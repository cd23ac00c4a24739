"""Fractional-cover LPs and the answer-count upper-bound estimators.

The cover LP minimizes sum(w_j * log N_j) subject to: every variable is
covered with total weight >= 1 by the constraints that can introduce it
(x in B - A). It is solved exactly over the rationals by enumerating basic
feasible solutions; the programs are tiny (one unknown per constraint) and
exactness removes any float-feasibility doubt. Objectives are compared
without logs, as integer powers.

An EstimatorContext is an `index.Cursors` over the query's relations and
the guard projections R|B, at variable or at bit levels, that evaluates, at
the current prefix node, the product bound

    prod over constraints of N[tau] ^ w,   N[tau] = static N until A is fully
                                           bound, live range count afterwards,

which is 0 on inconsistent prefixes and exactly 1 on full answers. With
cardinality constraints only, this is the AGM estimator; with degree
constraints and a compatible order, the polymatroid one. At bit levels the
values equal those of a context over the bit-encoded query
(`binary.bin_query` with `binary.bin_constraints`) level for level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .constraints import ConstraintSet, guard_relation
from .core import JoinQuery, project
from .index import Cursors

COVER_SIZE_LIMIT = 20


class CoverError(ValueError):
    pass


class InfeasibleCoverError(CoverError):
    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(f"variable {variable!r} cannot be covered by any constraint")


class CoverSizeError(CoverError):
    """Program too large for exact vertex enumeration; supply weights explicitly."""


@dataclass(frozen=True)
class FractionalCover:
    """Nonnegative exact weights, one per constraint, satisfying coverage."""

    weights: tuple[Fraction, ...]

    def log2_bound(self, bounds: Sequence[int]) -> float:
        return sum(float(w) * math.log2(n) for w, n in zip(self.weights, bounds))

    def bound_power(self, bounds: Sequence[int]) -> tuple[int, int]:
        """(P, q) with (product bound)^q == P exactly; q is the common denominator."""
        q = math.lcm(*(w.denominator for w in self.weights)) if self.weights else 1
        p = 1
        for w, n in zip(self.weights, bounds):
            p *= n ** int(w * q)
        return p, q

    def format_weights(self) -> str:
        return " ".join(str(w) for w in self.weights)


def parse_weights(texts: Sequence[str]) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in texts)


def _coverage_sets(cs: ConstraintSet) -> list[frozenset[str]]:
    return [c.B - c.A for c in cs.constraints]


def check_coverage(
    cover_sets: Sequence[frozenset[str]],
    weights: Sequence[Fraction],
    variables: Sequence[str],
) -> str | None:
    """First uncovered variable under the given weights, or None if feasible."""
    for w in weights:
        if w < 0:
            raise CoverError("cover weights must be nonnegative")
    for x in variables:
        total = sum((w for s, w in zip(cover_sets, weights) if x in s), Fraction(0))
        if total < 1:
            return x
    return None


def _objective_cmp(
    w1: Sequence[Fraction], w2: Sequence[Fraction], bounds: Sequence[int]
) -> int:
    """Sign of sum(w1*log N) - sum(w2*log N), computed exactly as integer powers."""
    diffs = [a - b for a, b in zip(w1, w2)]
    q = math.lcm(*(d.denominator for d in diffs)) if diffs else 1
    num = den = 1
    for d, n in zip(diffs, bounds):
        e = int(d * q)
        if e > 0:
            num *= n ** e
        elif e < 0:
            den *= n ** (-e)
    return (num > den) - (num < den)


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over the rationals; None when singular."""
    m = len(rows)
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][m] for r in range(m)]


def _minimise_cover(
    cover_sets: Sequence[frozenset[str]],
    bounds: Sequence[int],
    variables: Sequence[str],
) -> tuple[Fraction, ...]:
    m = len(cover_sets)
    variables = sorted(variables)
    n = len(variables)
    if m + n > COVER_SIZE_LIMIT:
        raise CoverSizeError(
            f"{m} constraints + {n} variables exceed the exact-LP guard ({COVER_SIZE_LIMIT})"
        )
    for x in variables:
        if not any(x in s for s in cover_sets):
            raise InfeasibleCoverError(x)
    one, zero = Fraction(1), Fraction(0)
    # Inequality rows a.w >= rhs: coverage rows first, then nonnegativity.
    ineqs = [
        ([one if x in s else zero for s in cover_sets], one) for x in variables
    ] + [
        ([one if j == k else zero for j in range(m)], zero) for k in range(m)
    ]
    best: tuple[Fraction, ...] | None = None
    for picked in combinations(range(len(ineqs)), m):
        w = _solve_square([ineqs[i][0][:] for i in picked], [ineqs[i][1] for i in picked])
        if w is None:
            continue
        feasible = all(
            sum(a * v for a, v in zip(coeffs, w)) >= rhs for coeffs, rhs in ineqs
        )
        if not feasible:
            continue
        cand = tuple(w)
        if best is None:
            best = cand
            continue
        cmp = _objective_cmp(cand, best, bounds)
        if cmp < 0 or (cmp == 0 and cand < best):
            best = cand
    if best is None:
        raise InfeasibleCoverError(variables[0] if variables else "?")
    return best


def solve_cover_card(
    edges: Sequence[frozenset[str]], sizes: Sequence[int], variables: Sequence[str]
) -> FractionalCover:
    """Optimal fractional edge cover for cardinality constraints."""
    return FractionalCover(_minimise_cover(list(edges), list(sizes), variables))


def solve_cover_degree(cs: ConstraintSet) -> FractionalCover:
    """Optimal weights for the degree-constraint bound LP."""
    uncovered = cs.uncovered_variables()
    if uncovered:
        raise InfeasibleCoverError(uncovered[0])
    bounds = [c.N for c in cs.constraints]
    return FractionalCover(_minimise_cover(_coverage_sets(cs), bounds, sorted(cs.variables)))


class EstimatorContext(Cursors):
    """Cursor-backed evaluation of the product upper bound at a prefix node.

    The context is positioned at a node of the trace tree; bind()/unbind()
    move down and up one level. Levels are variables, or with bits=True the
    MSB-first bits of each variable's code. One context serves one run at a
    time.
    """

    def __init__(
        self,
        query: JoinQuery,
        constraint_set: ConstraintSet,
        cover: FractionalCover,
        order: Sequence[str] | None = None,
        bits: bool = False,
    ):
        if len(cover.weights) != len(constraint_set.constraints):
            raise ValueError("one weight per constraint required")
        self.query = query
        self.constraint_set = constraint_set
        self.cover = cover
        self.order = tuple(order) if order is not None else query.order

        # Consistency cursors over every relation of the query, then count
        # cursors over the deduplicated guard projections R' = R|B.
        projections = []
        for c in constraint_set.constraints:
            guard = guard_relation(query, c.guard)
            if guard is None:
                raise ValueError(f"no relation on guard of {c.describe()}")
            projections.append(project(guard, c.B))
        super().__init__(query.relations + tuple(projections), self.order, query.domain_size, bits)
        self._rel_stacks = self.stacks[: len(query.relations)]
        # A term uses its static N until every level of A is bound.
        pos = {v: i for i, v in enumerate(self.order)}
        self._terms: list[tuple[float, float, int, list[tuple[int, int]]]] = []
        guard_stacks = self.stacks[len(query.relations):]
        for c, w, st in zip(constraint_set.constraints, cover.weights, guard_stacks):
            ready = self.per_var * (1 + max((pos[a] for a in c.A), default=-1))
            self._terms.append((float(w), math.log(c.N), ready, st))

    # Bound under the context's own names, so that perfbench's tracer times
    # the estimator's cursor moves apart from the enumerator's.
    bind, unbind = Cursors.bind, Cursors.unbind

    def node_consistent(self) -> bool:
        return all(st[-1][0] < st[-1][1] for st in self._rel_stacks)

    def estimate(self) -> float:
        """Upper bound on answers below the current node; 0 iff inconsistent."""
        if not self.node_consistent():
            return 0.0
        depth = self.depth
        log_total = 0.0
        for w, log_n, ready, stack in self._terms:
            if depth < ready:
                log_total += w * log_n
            else:
                lo, hi = stack[-1]
                count = hi - lo
                if count <= 0:
                    return 0.0
                if count > 1:
                    log_total += w * math.log(count)
        return math.exp(log_total) if log_total != 0.0 else 1.0


def build_agm_context(
    query: JoinQuery,
    constraint_set: ConstraintSet | None = None,
    cover: FractionalCover | None = None,
    order: Sequence[str] | None = None,
) -> EstimatorContext:
    """AGM estimator context for a cardinality class (bounds default to |R|)."""
    from .constraints import cardinality_constraints

    cs = constraint_set if constraint_set is not None else cardinality_constraints(query)
    if any(not c.is_cardinality for c in cs.constraints):
        raise ValueError("AGM estimator takes cardinality constraints only")
    if cover is None:
        cover = solve_cover_degree(cs)
    return EstimatorContext(query, cs, cover, order)


def build_pm_context(
    query: JoinQuery,
    constraint_set: ConstraintSet,
    cover: FractionalCover | None = None,
    order: Sequence[str] | None = None,
) -> EstimatorContext:
    """Polymatroid estimator context; the order must be constraint-compatible."""
    from .constraints import check_compatible, compatible_order

    if order is None:
        order = compatible_order(constraint_set)
    elif not check_compatible(constraint_set, order):
        raise ValueError("order is not compatible with the degree constraints")
    if cover is None:
        cover = solve_cover_degree(constraint_set)
    return EstimatorContext(query, constraint_set, cover, order)


@dataclass
class EstimatorReport:
    superadditivity_violations: list = field(default_factory=list)
    answer_violations: list = field(default_factory=list)
    zero_violations: list = field(default_factory=list)
    max_relative_violation: float = 0.0

    @property
    def ok(self) -> bool:
        return not (
            self.superadditivity_violations
            or self.answer_violations
            or self.zero_violations
        )


def verify_estimator(ctx: EstimatorContext, rel_tol: float = 1e-9) -> EstimatorReport:
    """Exhaustively walk the trace tree and check the estimator axioms.

    Checks: value 0 exactly on inconsistent nodes, exactly 1 on answers, and
    superadditive (parent >= sum of direct children) at every consistent node.
    Only usable on instances small enough to enumerate.
    """
    report = EstimatorReport()
    prefix: list[int] = []
    path: list[list[float]] = []  # [value, sum of walked children] per inner node above
    while True:
        value = ctx.estimate()
        if not ctx.node_consistent():
            if value != 0.0:
                report.zero_violations.append((tuple(prefix), value))
        else:
            if value <= 0.0:
                report.zero_violations.append((tuple(prefix), value))
            if ctx.depth < ctx.levels:
                path.append([value, 0.0])
                prefix.append(0)
                ctx.bind(0)
                continue
            if abs(value - 1.0) > rel_tol:
                report.answer_violations.append((tuple(prefix), value))
        # Hand the value to the parent and move to the next sibling, closing
        # every node whose children have all been walked.
        while path:
            path[-1][1] += value
            d = prefix.pop() + 1
            ctx.unbind()
            if d < ctx.fanout:
                prefix.append(d)
                ctx.bind(d)
                break
            value, child_sum = path.pop()
            slack = child_sum - value
            if slack > rel_tol * max(value, 1.0):
                report.superadditivity_violations.append((tuple(prefix), value, child_sum))
                rel = slack / max(value, 1.0)
                report.max_relative_violation = max(report.max_relative_violation, rel)
        else:
            return report
