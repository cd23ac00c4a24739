"""Las Vegas uniform sampling of join answers via guided trace-tree walks.

A single trial walks the trace tree from the root, choosing child d with
probability value(d) / value(parent) and failing outright with the leftover
probability, so that each answer is returned with probability exactly
1 / up(root). The memo is the set of prefixes proven answer-free: a node is
added when all its children are 0, and a memo prefix counts 0 without being
bound again. On instances with no answers the root prefix joins the set after
finitely many refutations, which is how emptiness is detected.

Sampler walks the bit levels of the original relations (branching factor
2, see `index.Cursors`); the functions below take any EstimatorContext.
Repetition yields i.i.d. uniform answers with geometric trial counts.

Next to its memo, a Sampler keeps a ValueStore: the child values of every
prefix its walks have expanded, each estimated once. A walk draws from the
store without touching a cursor, binds only at the first prefix the store
lacks, and reads an answer's codes off its prefix. The store is unbounded
but holds one block per consistent inner node reached, so it never outgrows
the join's own recursive-call bound.
"""
from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Sequence

from .constraints import ConstraintSet, cardinality_constraints
from .core import JoinQuery
from .enumerator import resolve_order
from .estimators import (
    EstimatorContext,
    FractionalCover,
    solve_cover_degree,
)


class EmptyAnswerSetError(Exception):
    """The query is provably answer-free (the root prefix is refuted, or its value is 0)."""

    def __init__(self, stats: "SamplerStats"):
        self.stats = stats
        super().__init__("answer set empty")


class WorkBudgetError(Exception):
    """Trial budget exhausted before collecting the requested samples."""

    def __init__(self, stats: "SamplerStats", answers: list):
        self.stats = stats
        self.answers = answers
        super().__init__(f"work budget exhausted after {stats.trials} trials")


@dataclass
class SamplerStats:
    trials: int = 0
    failures: int = 0
    answers_returned: int = 0
    up_root: float = 0.0
    final_up_root: float = 0.0

    @property
    def mean_trials_per_success(self) -> float:
        return self.trials / self.answers_returned if self.answers_returned else float("inf")

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": self.failures,
            "answers_returned": self.answers_returned,
            "up_root": self.up_root,
            "final_up_root": self.final_up_root,
            "mean_trials_per_success": (
                self.mean_trials_per_success if self.answers_returned else None
            ),
        }


# Prefixes (tuples of child indices) proven to have no answer below them.
Memo = set[tuple[int, ...]]


class ValueStore:
    """Child values of every prefix the walks have expanded, as a trie of flat blocks.

    Slot 0 holds the root's estimate. Expanding a node appends one block of
    `fanout` child values to `values` and a parallel block of -1s to `child`,
    and points the node's slot in `child` at the block's offset. The values
    are the very floats `children_values` returned; a refutation only zeroes
    the slot of the refuted child (the root's refutation lives in the memo).

    The store is not bounded: it holds one block per consistent inner node a
    walk has reached, so at most `fanout` values per node of the trace tree
    that the join itself calls, the join's recursive-call bound.
    """

    __slots__ = ("values", "child")

    def __init__(self) -> None:
        self.values = array("d")
        self.child = array("i")

    def root(self, ctx: EstimatorContext) -> float:
        """The root's estimate, computed on the first call; ctx must be at the root."""
        if not self.values:
            self.values.append(ctx.estimate())
            self.child.append(-1)
        return self.values[0]

    def add(self, slot: int, block: list[float]) -> int:
        """Record the child values of the node in `slot`; the offset of its block."""
        at = len(self.values)
        self.values.extend(block)
        self.child.extend([-1] * len(block))
        self.child[slot] = at
        return at


def children_values(ctx: EstimatorContext, memo: Memo, prefix: Sequence[int]) -> list[float]:
    """Estimator value of every child of the current node; 0 for a refuted child."""
    values = []
    base = tuple(prefix)
    for d in range(ctx.fanout):
        if base + (d,) in memo:
            values.append(0.0)
            continue
        ctx.bind(d)
        values.append(ctx.estimate())
        ctx.unbind()
    return values


def _refute(store: ValueStore, memo: Memo, prefix: list[int], slots: list[int], fanout: int) -> None:
    """Add the current node to the memo, then every ancestor whose children are all 0.

    `slots[i]` is the store slot of the node at depth i on the walk. Each
    refuted child's slot is zeroed in its parent's block; nothing is estimated.
    """
    values, child = store.values, store.child
    memo.add(tuple(prefix))
    for i in range(len(prefix), 0, -1):
        values[slots[i]] = 0.0
        at = child[slots[i - 1]]
        if any(values[at : at + fanout]):
            return
        memo.add(tuple(prefix[: i - 1]))


def sample_once(
    ctx: EstimatorContext, memo: Memo, rng: random.Random, store: ValueStore | None = None
) -> tuple[int, ...] | None:
    """One guided walk: an answer's code tuple, or None on failure.

    Each answer comes out with probability 1 / up(root); once the root is in
    the memo every walk fails. Walks that prove a subtree empty add its
    prefix to the memo. The walk draws from the store's cached values and
    binds cursors only to expand the first node the store lacks; the
    context is back at the root on return.
    """
    if () in memo:
        return None
    store = store if store is not None else ValueStore()
    value = store.root(ctx)
    if value <= 0.0:
        return None
    values, child = store.values, store.child
    fanout, levels = ctx.fanout, ctx.levels
    prefix: list[int] = []
    slots = [0]
    try:
        while len(prefix) < levels:
            at = child[slots[-1]]
            if at < 0:
                for d in prefix[ctx.depth :]:
                    ctx.bind(d)
                block = children_values(ctx, memo, prefix)
                if sum(block) <= 0.0:
                    _refute(store, memo, prefix, slots, fanout)
                    return None
                at = store.add(slots[-1], block)
            # One uniform draw against cumulative child values; mass beyond the
            # children (clamped at >= 0 by construction) is the failure branch.
            r = rng.random() * value
            acc = 0.0
            for d in range(fanout):
                acc += values[at + d]
                if r < acc:
                    break
            else:
                return None
            prefix.append(d)
            slots.append(at + d)
            value = values[at + d]
        return ctx.prefix_codes(prefix)
    finally:
        while ctx.depth:
            ctx.unbind()


def sample(
    ctx: EstimatorContext,
    k: int,
    rng: random.Random,
    max_work: int | None = None,
    memo: Memo | None = None,
    store: ValueStore | None = None,
) -> tuple[list[tuple[int, ...]], SamplerStats]:
    """k i.i.d. uniform answers (with replacement), or prove the query empty.

    Raises EmptyAnswerSetError once the root prefix is in the memo (or the
    root value is 0), and WorkBudgetError when max_work trials pass without
    finishing. Pass the same memo and store to later calls to keep what
    earlier walks learned.
    """
    memo = memo if memo is not None else set()
    store = store if store is not None else ValueStore()
    stats = SamplerStats(up_root=store.root(ctx))
    answers: list[tuple[int, ...]] = []
    while True:
        # The root estimate is static; only a refutation of the root moves it.
        stats.final_up_root = 0.0 if () in memo else stats.up_root
        if len(answers) >= k:
            return answers, stats
        if stats.final_up_root <= 0.0:
            raise EmptyAnswerSetError(stats)
        if max_work is not None and stats.trials >= max_work:
            raise WorkBudgetError(stats, answers)
        stats.trials += 1
        out = sample_once(ctx, memo, rng, store)
        if out is None:
            stats.failures += 1
        else:
            answers.append(out)
            stats.answers_returned += 1


class Sampler:
    """End-to-end sampler walking bit levels, emitting code rows."""

    def __init__(
        self,
        query: JoinQuery,
        constraint_set: ConstraintSet | None = None,
        cover: FractionalCover | None = None,
        order: Sequence[str] | None = None,
    ):
        if constraint_set is None:
            constraint_set = cardinality_constraints(query)
        self.order = resolve_order(query, constraint_set, order)
        if cover is None:
            cover = solve_cover_degree(constraint_set)
        self.ctx = EstimatorContext(query, constraint_set, cover, self.order, bits=True)
        self.memo: Memo = set()
        self.store = ValueStore()

    def sample(
        self, k: int, rng: random.Random, max_work: int | None = None
    ) -> tuple[list[tuple[int, ...]], SamplerStats]:
        """k uniform answers as code tuples aligned with the sampler's order."""
        return sample(self.ctx, k, rng, max_work=max_work, memo=self.memo, store=self.store)
