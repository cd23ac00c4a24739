"""Las Vegas uniform sampling of join answers via guided trace-tree walks.

A single trial walks the trace tree from the root, choosing child d with
probability value(d) / value(parent) and failing outright with the leftover
probability, so that each answer is returned with probability exactly
1 / up(root). Sampler walks the bit levels of the original relations; the
functions below take any two-way EstimatorContext, whose nodes one
`Cursors.split` expands into both children. Repetition yields i.i.d.
uniform answers with geometric trial counts.

A Sampler's only learned state is its ValueStore: the child values of every
prefix its walks have expanded, each estimated once. A walk draws from the
store without touching a cursor and binds the cursors to its prefix, one
code interval per variable, only at the first node the store lacks
(`Cursors.bind_prefix`). From there on every node is new: one
`split` expands it and leaves the cursors on a child, and after the draw they
move to the drawn child in place, so no bisect runs twice. The walk reads an
answer's codes off its prefix, and `Cursors.reset` returns the cursors to
the root in one step. A node whose children are all 0 is proven
answer-free: its slot is zeroed, and so is every ancestor's whose children
are then all 0. On instances with no answers the root's slot reaches 0
after finitely many refutations, which is how emptiness is detected. The
store is unbounded but holds one block per consistent inner node reached,
so it never outgrows the join's own recursive-call bound.
"""
from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from typing import Sequence

from .constraints import ConstraintSet
from .core import JoinQuery
from .estimators import CoverError, EstimatorContext, FractionalCover, check_coverage


class EmptyAnswerSetError(Exception):
    """The query is provably answer-free: the root's value is 0, estimated or refuted."""

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


class ValueStore:
    """Child values of every prefix the walks have expanded, as a trie of flat blocks.

    Slot 0 holds the root's estimate, taken when the store is built with its
    context at the root and kept as `up_root`. Expanding a node appends one
    block of its two child values to `values` and a parallel block of -1s to
    `child`, and points the node's slot in `child` at the block's offset. The
    values are the very floats `children_values` returned; a refutation zeroes
    the refuted node's slot (slot 0 for the root) and counts it in `refuted`.

    The store is not bounded: it holds one block per consistent inner node a
    walk has reached, so at most two values per node of the trace tree that
    the join itself calls, the join's recursive-call bound.
    """

    __slots__ = ("values", "child", "up_root", "refuted")

    def __init__(self, ctx: EstimatorContext) -> None:
        if ctx.fanout != 2:
            raise ValueError(f"the sampler walks two-way levels, not {ctx.fanout}-way ones")
        self.up_root = ctx.estimate()
        # `estimate` raises only on a finite log sum; an infinite root fails every walk.
        if not math.isfinite(self.up_root):
            raise CoverError("the root's bound overflows a float")
        self.values = array("d", [self.up_root])
        self.child = array("i", [-1])
        self.refuted = 0

    def add(self, slot: int, block: list[float]) -> int:
        """Record the child values of the node in `slot`; the offset of its block."""
        at = len(self.values)
        self.values.extend(block)
        self.child.extend([-1] * len(block))
        self.child[slot] = at
        return at


def children_values(ctx: EstimatorContext) -> list[float]:
    """Expand the current node, which must be consistent: its two children's values.

    One `split` serves both children, and the context stays on a child:
    child 1 if its value is positive, else child 0. A child left with no rows
    in some column is inconsistent, so its value is 0.0 without an estimate;
    a child with rows in every narrowed column is consistent, so its value is
    the product bound without a consistency scan.
    """
    live0, live1 = ctx.split()
    v0 = ctx.bound() if live0 else 0.0
    if live1:
        ctx.sibling()
        return [v0, ctx.bound()]
    return [v0, 0.0]


def _refute(store: ValueStore, slots: list[int]) -> None:
    """Zero the current node's slot, then that of every ancestor whose children are all 0.

    `slots[i]` is the store slot of the node at depth i on the walk; nothing
    is estimated.
    """
    values, child = store.values, store.child
    for i in range(len(slots) - 1, -1, -1):
        values[slots[i]] = 0.0
        store.refuted += 1
        if i:
            at = child[slots[i - 1]]
            if values[at] or values[at + 1]:
                return


def sample_once(
    ctx: EstimatorContext, store: ValueStore, rng: random.Random
) -> tuple[int, ...] | None:
    """One guided walk: an answer's code tuple, or None on failure.

    Each answer comes out with probability 1 / up(root); once the root's slot
    is 0 every walk fails. Walks that prove a subtree empty zero its slot.
    The walk draws from the store's cached values and binds cursors only at
    the first node the store lacks; below it, each node is expanded where the
    cursors stand. The context is back at the root on return.
    """
    values, child = store.values, store.child
    value = values[0]
    if value <= 0.0:
        return None
    prefix: list[int] = []
    slots = [0]
    slot = 0
    try:
        for level in range(ctx.levels):
            at = child[slot]
            if at < 0:
                # The cursors wait at the root below a cached prefix, or
                # stand on this node.
                if ctx.depth < level:
                    ctx.bind_prefix(prefix)
                block = children_values(ctx)
                if sum(block) <= 0.0:
                    _refute(store, slots)
                    return None
                at = store.add(slot, block)
            # One uniform draw against cumulative child values; mass beyond the
            # children (clamped at >= 0 by construction) is the failure branch.
            r = rng.random() * value
            v0 = values[at]
            if r < v0:
                d = 0
                # The expansion left the cursors on child 1 if it has a value.
                if ctx.depth > level and values[at + 1]:
                    ctx.unsibling()
            elif r < v0 + values[at + 1]:
                d = 1
            else:
                return None
            prefix.append(d)
            slot = at + d
            slots.append(slot)
            value = values[slot]
        return ctx.prefix_codes(prefix)
    finally:
        ctx.reset()


class Sampler:
    """End-to-end sampler walking bit levels, emitting code rows.

    Constraint set, cover and order default as in `EstimatorContext` (AGM).
    """

    def __init__(
        self,
        query: JoinQuery,
        constraint_set: ConstraintSet | None = None,
        cover: FractionalCover | None = None,
        order: Sequence[str] | None = None,
    ):
        self.ctx = EstimatorContext(query, constraint_set, cover, order, bits=True)
        self.order = self.ctx.order
        # A supplied cover must cover every variable, or the samples are not uniform.
        if cover is not None:
            cs = self.ctx.constraint_set
            sets = [c.B - c.A for c in cs.constraints]
            uncovered = check_coverage(sets, cover.weights, sorted(cs.variables))
            if uncovered is not None:
                raise CoverError(f"supplied weights do not cover variable {uncovered!r}")
        self.store = ValueStore(self.ctx)

    def sample(
        self, k: int, rng: random.Random, max_work: int | None = None
    ) -> tuple[list[tuple[int, ...]], SamplerStats]:
        """k i.i.d. uniform answers (with replacement), or prove the query empty.

        Answers are code tuples aligned with the sampler's order. Raises
        EmptyAnswerSetError once the root's slot is 0 (refuted, or an estimate
        of 0), and WorkBudgetError when max_work trials pass without
        finishing. Later calls keep what earlier walks stored.
        """
        ctx, store = self.ctx, self.store
        stats = SamplerStats(up_root=store.up_root)
        answers: list[tuple[int, ...]] = []
        while True:
            # The root estimate is static; only a refutation of the root moves it.
            stats.final_up_root = store.values[0]
            if len(answers) >= k:
                return answers, stats
            if stats.final_up_root <= 0.0:
                raise EmptyAnswerSetError(stats)
            if max_work is not None and stats.trials >= max_work:
                raise WorkBudgetError(stats, answers)
            stats.trials += 1
            out = sample_once(ctx, store, rng)
            if out is None:
                stats.failures += 1
            else:
                answers.append(out)
                stats.answers_returned += 1
