"""Las Vegas uniform sampling of join answers via guided trace-tree walks.

A single trial walks the trace tree from the root, choosing child d with
probability value(d) / value(parent) and failing outright with the leftover
probability, so that each answer is returned with probability exactly
1 / up(root). Subtrees proven empty are memoized to 0 so they are never
walked again; on instances with no answers the memoized root value reaches 0
after finitely many updates, which is how emptiness is detected.

Sampler walks the bit levels of the original relations (branching factor
2, see `index.Cursors`); the functions below take any EstimatorContext.
Repetition yields i.i.d. uniform answers with geometric trial counts.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .constraints import ConstraintSet, cardinality_constraints
from .core import JoinQuery
from .enumerator import resolve_order
from .estimators import (
    EstimatorContext,
    FractionalCover,
    solve_cover_degree,
)


class EmptyAnswerSetError(Exception):
    """The query is provably answer-free (memo-adjusted root value hit 0)."""

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


class UpMemo:
    """Sparse residual upper bounds learned from exhausted subtrees.

    Keys are prefixes as tuples of child indices; entries appear only along
    failed walks that bottomed out, so memory stays bounded by work done.
    """

    def __init__(self):
        self.overrides: dict[tuple[int, ...], float] = {}

    def adjusted(self, key: tuple[int, ...], estimate: float) -> float:
        return self.overrides.get(key, estimate)

    def __len__(self) -> int:
        return len(self.overrides)


def children_values(ctx: EstimatorContext, memo: UpMemo, prefix: Sequence[int]) -> list[float]:
    """Memo-adjusted estimator value of every child of the current node."""
    values = []
    base = tuple(prefix)
    for d in range(ctx.fanout):
        ctx.bind(d)
        values.append(memo.adjusted(base + (d,), ctx.estimate()))
        ctx.unbind()
    return values


def _refute(ctx: EstimatorContext, memo: UpMemo, prefix: list[int]) -> None:
    """Mark the current node empty and propagate 0 up while siblings allow it.

    A parent is overridden (with the sum of its children's residuals, 0 in
    practice) once every child is either overridden or plainly inconsistent.
    Restores the context to the root.
    """
    memo.overrides[tuple(prefix)] = 0.0
    while prefix:
        ctx.unbind()
        prefix.pop()
        base = tuple(prefix)
        settled, total = True, 0.0
        for d in range(ctx.fanout):
            key = base + (d,)
            if key in memo.overrides:
                total += memo.overrides[key]
                continue
            ctx.bind(d)
            live = ctx.estimate()
            ctx.unbind()
            if live != 0.0:
                settled = False
                break
        if not settled:
            break
        memo.overrides[base] = total
    while prefix:
        ctx.unbind()
        prefix.pop()


def sample_once(ctx: EstimatorContext, memo: UpMemo, rng: random.Random) -> tuple[int, ...] | None:
    """One guided walk: an answer's code tuple, or None on failure.

    Each answer comes out with probability 1 / (memo-adjusted root value).
    Walks that prove a subtree empty record that in the memo.
    """
    prefix: list[int] = []
    value = memo.adjusted((), ctx.estimate())
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
    memo: UpMemo | None = None,
) -> tuple[list[tuple[int, ...]], SamplerStats]:
    """k i.i.d. uniform answers (with replacement), or prove the query empty.

    Raises EmptyAnswerSetError once the memo-adjusted root value reaches 0,
    and WorkBudgetError when max_work trials pass without finishing.
    """
    memo = memo if memo is not None else UpMemo()
    stats = SamplerStats(up_root=ctx.estimate())
    answers: list[tuple[int, ...]] = []
    while len(answers) < k:
        root = memo.adjusted((), ctx.estimate())
        stats.final_up_root = root
        if root <= 0.0:
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
    stats.final_up_root = memo.adjusted((), ctx.estimate())
    return answers, stats


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
        self.cover = cover
        self.ctx = EstimatorContext(query, constraint_set, cover, self.order, bits=True)
        self.memo = UpMemo()

    def sample(
        self, k: int, rng: random.Random, max_work: int | None = None
    ) -> tuple[list[tuple[int, ...]], SamplerStats]:
        """k uniform answers as code tuples aligned with the sampler's order."""
        return sample(self.ctx, k, rng, max_work=max_work, memo=self.memo)
