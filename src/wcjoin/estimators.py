"""Fractional-cover LPs and the answer-count upper-bound estimators.

The cover LP minimizes sum(w_j * log N_j) subject to: every variable is
covered with total weight >= 1 by the constraints that can introduce it
(x in B - A). It is solved exactly over the rationals by a simplex on its
dual, with the right-hand sides perturbed so that ties go to the
lexicographically smallest cover; exactness removes any float-feasibility
doubt. Sums of logs are compared without logs, as integer powers.

An EstimatorContext is an `index.Cursors` over the query's relations plus
one guard projection R|B per distinct proper B of a weighted constraint, at
variable or at bit levels; a constraint whose B is its whole guard reads the
guard relation's own cursor. Its `estimate` evaluates, at the current prefix
node, the product bound

    prod over weighted constraints of N[tau] ^ w,
        N[tau] = static N until A is fully bound, live range count afterwards,

which is 0 on inconsistent prefixes and exactly 1 on full answers; `bound`
is the product alone, for a node known to be consistent. With
cardinality constraints only, this is the AGM estimator; with degree
constraints and a compatible order, the polymatroid one. At bit levels the
values equal those of a context over the bit-encoded query
(`binary.bin_query` with `binary.bin_constraints`) level for level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .constraints import ConstraintSet, cardinality_constraints, guard_relations, resolve_order
from .core import JoinQuery, project
from .index import Cursors

class CoverError(ValueError):
    pass


class InfeasibleCoverError(CoverError):
    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(f"variable {variable!r} cannot be covered by any constraint")


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


def check_coverage(
    cover_sets: Sequence[frozenset[str]],
    weights: Sequence[Fraction],
    variables: Sequence[str],
) -> str | None:
    """First uncovered variable under the given weights, or None if feasible."""
    if any(w < 0 for w in weights):
        raise CoverError("cover weights must be nonnegative")
    return next(
        (x for x in variables if sum(w for s, w in zip(cover_sets, weights) if x in s) < 1), None
    )


def _sign(r: Sequence[Fraction], bounds: Sequence[int]) -> int:
    """Sign of sum(r_k * (log N_k + eps^k)) for an infinitesimal eps > 0.

    The log part is compared exactly as integer powers; when it is 0, the
    first nonzero r_k decides.
    """
    q = math.lcm(*(x.denominator for x in r))
    num = den = 1
    for x, n in zip(r, bounds):
        e = int(x * q)
        if e > 0:
            num *= n ** e
        elif e < 0:
            den *= n ** (-e)
    if num != den:
        return 1 if num > den else -1
    return next((1 if x > 0 else -1 for x in r if x), 0)


def _minimise_cover(
    cover_sets: Sequence[frozenset[str]],
    bounds: Sequence[int],
    variables: Sequence[str],
) -> tuple[Fraction, ...]:
    """Optimal cover, the lexicographically smallest among ties.

    A primal simplex on the dual packing LP: maximise sum(y_x) subject to
    sum(y_x for x in S_j) <= log N_j + eps^j, y >= 0, from y = 0 and the
    slack basis. A tableau row is [coefficients over the variables | a row
    of B^-1]; read as sum(r_k * (log N_k + eps^k)), the B^-1 part is also
    the row's right-hand side. The eps^j terms make every pivot gain, and
    make the optimal prices w_j = -(profit of slack j) the smallest optimal
    cover in lexicographic order.
    """
    variables = sorted(variables)
    for x in variables:
        if not any(x in s for s in cover_sets):
            raise InfeasibleCoverError(x)
    m, n = len(cover_sets), len(variables)
    one, zero = Fraction(1), Fraction(0)
    rows = [
        [one if x in s else zero for x in variables] + [one if k == j else zero for k in range(m)]
        for j, s in enumerate(cover_sets)
    ]
    profit = [one] * n + [zero] * m
    while True:
        col = next((c for c, p in enumerate(profit) if p > 0), None)
        if col is None:
            return tuple(-p for p in profit[n:])
        # Ratio test; the rows of B^-1 are independent, so no two ratios tie.
        i = None
        for k, row in enumerate(rows):
            if row[col] > 0 and (i is None or _sign(
                [a / row[col] - b / rows[i][col] for a, b in zip(row[n:], rows[i][n:])], bounds
            ) < 0):
                i = k
        pivot = rows[i] = [v / rows[i][col] for v in rows[i]]
        # Most tableau entries are 0; skipping them spares the Fraction arithmetic.
        for k, row in enumerate(rows):
            if k != i and row[col]:
                f = row[col]
                rows[k] = [a - f * b if b else a for a, b in zip(row, pivot)]
        f = profit[col]
        profit = [a - f * b if b else a for a, b in zip(profit, pivot)]


def solve_cover_card(
    edges: Sequence[frozenset[str]], sizes: Sequence[int], variables: Sequence[str]
) -> FractionalCover:
    """Optimal fractional edge cover for cardinality constraints."""
    return FractionalCover(_minimise_cover(list(edges), list(sizes), variables))


def solve_cover_degree(cs: ConstraintSet) -> FractionalCover:
    """Optimal weights for the degree-constraint bound LP."""
    bounds = [c.N for c in cs.constraints]
    cover_sets = [c.B - c.A for c in cs.constraints]
    return FractionalCover(_minimise_cover(cover_sets, bounds, sorted(cs.variables)))


class _Values(dict):
    """A plan's child bounds by the row count n of its one live column, each taken once.

    The term loop of the sampler's expansion, in term order, then `exp`: the
    very float that loop gives for a child with n rows in that column.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: list) -> None:
        super().__init__()
        self.terms = terms

    def __missing__(self, n: int) -> float:
        t = 0.0
        for j, table, x in self.terms:
            t += x if j < 0 else table[n]
        value = self[n] = math.exp(t)
        return value


class EstimatorContext(Cursors):
    """Cursor-backed evaluation of the product upper bound at a prefix node.

    The context is positioned at a node of the trace tree; bind()/unbind()
    move down and up one level. Levels are variables, or with bits=True the
    MSB-first bits of each variable's code. One context serves one run at a
    time.

    Missing arguments get the estimator's defaults here and nowhere else: the
    constraint set `cardinality_constraints(query)` (AGM), kept as
    `constraint_set`, the cover `solve_cover_degree`'s optimum, and the order
    `constraints.resolve_order`'s, which also checks an explicit order.
    """

    def __init__(
        self,
        query: JoinQuery,
        constraint_set: ConstraintSet | None = None,
        cover: FractionalCover | None = None,
        order: Sequence[str] | None = None,
        bits: bool = False,
    ):
        if constraint_set is None:
            constraint_set = cardinality_constraints(query)
        self.order = resolve_order(query, constraint_set, order)
        if cover is None:
            cover = solve_cover_degree(constraint_set)
        n = len(constraint_set.constraints)
        if len(cover.weights) != n:
            raise CoverError(f"one weight per constraint required: {n}, not {len(cover.weights)}")
        self.constraint_set = constraint_set

        # Cursors by (guard, B): each guard relation under its own variable set,
        # then one projection R|B per distinct proper B of a weighted
        # constraint. A constraint of weight 0 would add exactly 0.0 to the
        # bound, so it gets no term and no cursor.
        relations = list(query.relations)
        source = {(e, e): i for e, i in guard_relations(query).items()}
        weighted = []
        for c, w in zip(constraint_set.constraints, cover.weights):
            guard = source.get((c.guard, c.guard))
            if guard is None:
                raise ValueError(f"no relation on guard of {c.describe()}")
            if w:
                key = (c.guard, c.B)
                if key not in source:
                    source[key] = len(relations)
                    relations.append(project(relations[guard], c.B))
                weighted.append((c, float(w), source[key]))
        super().__init__(relations, self.order, query.domain_size, bits)
        # The bound's terms as (w, w * log N, ready, stack): static until depth `ready`.
        pos = {v: i for i, v in enumerate(self.order)}
        terms = []
        for c, w, i in weighted:
            ready = self.per_var * (1 + max((pos[a] for a in c.A), default=-1))
            terms.append((w, w * math.log(c.N), ready, self.stacks[i]))
        self._terms = tuple(terms)

    # Bound under the context's own names, so that perfbench's tracer times
    # the estimator's cursor moves apart from the enumerator's.
    bind, unbind = Cursors.bind, Cursors.unbind

    def node_consistent(self) -> bool:
        # A projection is nonempty whenever its guard is, so checking every
        # stack is the same test as checking the query's relations.
        return all(st[-1][0] < st[-1][1] for st in self.stacks)

    def estimate(self) -> float:
        """Upper bound on answers below the current node; 0 iff inconsistent."""
        return self.bound() if self.node_consistent() else 0.0

    def bound(self) -> float:
        """The product bound at the current node, which the caller knows to be consistent."""
        depth = self.depth
        log_total = 0.0
        for w, static, ready, stack in self._terms:
            if depth < ready:
                log_total += static
            else:
                lo, hi = stack[-1]
                if hi - lo > 1:
                    log_total += w * math.log(hi - lo)
        try:
            return math.exp(log_total) if log_total != 0.0 else 1.0
        except OverflowError:
            raise CoverError(f"bound 2^{log_total / math.log(2):.4g} overflows a float") from None

    @cached_property
    def frontier_plans(self) -> list[tuple]:
        """Per level, what the sampler's one-pass expansion of a node there reads.

        A plan is (affected, width, terms, single). A term of
        `_terms` enters the children's bounds as (j, table, stack) if column j
        of `affected` narrows its stack, (-1, table, stack) if none does, and
        (-1, None, w * log N) while static; `table[n]` is `bound`'s w * log(n),
        or the 0.0 `bound` skips for n < 2. Terms keep their order, but one
        whose stack no later level narrows is left out: at a consistent node
        it adds 0.0.

        If the children's bounds read exactly one live row count, all other
        terms being static, `single` is (j, end, values): j is the column the
        count comes from, and `values[n]` is a child's bound when that column
        keeps n rows, the term loop's sum and `exp` taken on first use. `end`
        is the first later level on another variable or with other columns
        or terms: a stretch of the walk that starts at this level stops there
        at the latest. Otherwise `single` is None. Built on the first
        expansion.
        """
        keys = {(w, stack[0][1]) for w, _, _, stack in self._terms}
        tables = {(w, n): [0.0, 0.0] + [w * math.log(k) for k in range(2, n + 1)] for w, n in keys}
        last = {id(st): level for level, affected in enumerate(self.affected) for _, st in affected}
        plans, shapes, shared = [], [], {}
        for level, affected in enumerate(self.affected):
            terms = []
            for w, static, ready, stack in self._terms:
                if level + 1 < ready:
                    terms.append((-1, None, static))
                elif level < last.get(id(stack), self.levels):
                    j = next((j for j, (_, st) in enumerate(affected) if st is stack), -1)
                    terms.append((j, tables[w, stack[0][1]], stack))
            live = {j for j, table, _ in terms if table is not None}  # -1: an unnarrowed stack
            single = live.pop() if len(live) == 1 else -1
            shape = (id(affected), *((j, id(table), id(x)) for j, table, x in terms))
            table = None if single < 0 else shared.setdefault(shape, _Values(terms))
            plans.append([affected, self._width[level], terms, single, level + 1, table])
            shapes.append(shape)
        for level in range(self.levels - 2, -1, -1):
            if shapes[level] == shapes[level + 1]:
                plans[level][4] = plans[level + 1][4]
        return [
            (affected, w, terms, None if j < 0 else (j, end, table))
            for affected, w, terms, j, end, table in plans
        ]

    @cached_property
    def frontier_cuts(self) -> list[list[tuple]]:
        """Per level L, the `cut_plan` of the sampler's cut to a prefix of length L.

        Below the cut the walk reads only stacks that some level >= L
        narrows: its plans (`frontier_plans`) read the levels' columns, and
        keep a term only while a later level narrows the term's stack. So
        plan L lists only the variables the prefix binds that have such a
        stack, each with those stacks' pairs. Built with the plans, on the
        first expansion; `Cursors.bind_prefix` reads the prefix's bits once
        and narrows once per entry.
        """
        last = {id(st): level for level, affected in enumerate(self.affected) for _, st in affected}
        return [
            self.cut_plan(level, {i for i, end in last.items() if end >= level})
            for level in range(self.levels)
        ]


def build_agm_context(
    query: JoinQuery,
    constraint_set: ConstraintSet | None = None,
    cover: FractionalCover | None = None,
    order: Sequence[str] | None = None,
) -> EstimatorContext:
    """AGM estimator context; bounds (|R|), cover and order default in `EstimatorContext`."""
    if constraint_set is not None and any(not c.is_cardinality for c in constraint_set.constraints):
        raise ValueError("AGM estimator takes cardinality constraints only")
    return EstimatorContext(query, constraint_set, cover, order)


def build_pm_context(
    query: JoinQuery,
    constraint_set: ConstraintSet,
    cover: FractionalCover | None = None,
    order: Sequence[str] | None = None,
) -> EstimatorContext:
    """Polymatroid estimator context; cover and order default in `EstimatorContext`."""
    return EstimatorContext(query, constraint_set, cover, order)


@dataclass
class EstimatorReport:
    superadditivity_violations: list = field(default_factory=list)
    answer_violations: list = field(default_factory=list)
    zero_violations: list = field(default_factory=list)

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
            if child_sum - value > rel_tol * max(value, 1.0):
                report.superadditivity_violations.append((tuple(prefix), value, child_sum))
        else:
            return report
