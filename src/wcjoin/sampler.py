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
"""
from __future__ import annotations

import random
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


def _refute(ctx: EstimatorContext, memo: Memo, prefix: list[int]) -> None:
    """Add the current node to the memo, then every ancestor whose children are all 0.

    Restores the context to the root.
    """
    memo.add(tuple(prefix))
    while prefix:
        ctx.unbind()
        prefix.pop()
        if any(children_values(ctx, memo, prefix)):
            break
        memo.add(tuple(prefix))
    while prefix:
        ctx.unbind()
        prefix.pop()


def sample_once(ctx: EstimatorContext, memo: Memo, rng: random.Random) -> tuple[int, ...] | None:
    """One guided walk: an answer's code tuple, or None on failure.

    Each answer comes out with probability 1 / up(root); once the root is in
    the memo every walk fails. Walks that prove a subtree empty add its
    prefix to the memo.
    """
    prefix: list[int] = []
    value = 0.0 if () in memo else ctx.estimate()
    if value <= 0.0:
        return None
    while True:
        if len(prefix) == ctx.levels:
            answer = ctx.codes()
            while prefix:
                ctx.unbind()
                prefix.pop()
            return answer
        values = children_values(ctx, memo, prefix)
        total = sum(values)
        if total <= 0.0:
            _refute(ctx, memo, prefix)
            return None
        # One uniform draw against cumulative child values; mass beyond the
        # children (clamped at >= 0 by construction) is the failure branch.
        r = rng.random() * value
        acc = 0.0
        chosen = -1
        for d, vd in enumerate(values):
            acc += vd
            if r < acc:
                chosen = d
                break
        if chosen < 0:
            while prefix:
                ctx.unbind()
                prefix.pop()
            return None
        ctx.bind(chosen)
        prefix.append(chosen)
        value = values[chosen]


def sample(
    ctx: EstimatorContext,
    k: int,
    rng: random.Random,
    max_work: int | None = None,
    memo: Memo | None = None,
) -> tuple[list[tuple[int, ...]], SamplerStats]:
    """k i.i.d. uniform answers (with replacement), or prove the query empty.

    Raises EmptyAnswerSetError once the root prefix is in the memo (or the
    root value is 0), and WorkBudgetError when max_work trials pass without
    finishing.
    """
    memo = memo if memo is not None else set()
    stats = SamplerStats(up_root=ctx.estimate())
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
        out = sample_once(ctx, memo, rng)
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

    def sample(
        self, k: int, rng: random.Random, max_work: int | None = None
    ) -> tuple[list[tuple[int, ...]], SamplerStats]:
        """k uniform answers as code tuples aligned with the sampler's order."""
        return sample(self.ctx, k, rng, max_work=max_work, memo=self.memo)
