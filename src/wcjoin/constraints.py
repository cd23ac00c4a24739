"""Cardinality and degree constraints, their validation, and variable orders.

A degree constraint (A, B, N) guarded by hyperedge e says: for every
assignment of A, the guard relation filtered by it has at most N distinct
B-projections. A = {} gives a cardinality constraint; B = A + {y}, N = 1 is a
functional dependency A -> y.

An order is compatible when it sorts the dependency graph (A -> B - A)
topologically; `resolve_order`, the one order rule, picks or checks the
order of every search, estimator and sampler.
"""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Mapping, Sequence

from .core import JoinQuery, project, rows_at


class IncompatibleOrderError(ValueError):
    """Requested variable order violates the constraint dependency graph."""


class CyclicConstraintsError(ValueError):
    """The dependency graph has a cycle; no compatible order exists."""

    def __init__(self, cycle: Sequence[str]):
        self.cycle = tuple(cycle)
        super().__init__(f"cyclic degree constraints: {' -> '.join(self.cycle)}")


@dataclass(frozen=True)
class DegreeConstraint:
    A: frozenset[str]
    B: frozenset[str]
    N: int
    guard: frozenset[str]

    def __post_init__(self):
        if not self.A <= self.B <= self.guard:
            raise ValueError("degree constraint requires A <= B <= guard")
        if self.N < 1:
            raise ValueError("degree bound must be >= 1")

    @property
    def is_cardinality(self) -> bool:
        return not self.A

    def describe(self) -> str:
        a = "{" + ",".join(sorted(self.A)) + "}"
        b = "{" + ",".join(sorted(self.B)) + "}"
        return f"({a}, {b}, {self.N})"


def functional_dependency(source: Iterable[str], target: str, guard: Iterable[str]) -> DegreeConstraint:
    """A -> y sugar, normalized to (A, A + {y}, 1)."""
    a = frozenset(source)
    return DegreeConstraint(a, a | {target}, 1, frozenset(guard))


@dataclass(frozen=True)
class ConstraintSet:
    variables: frozenset[str]
    edges: tuple[frozenset[str], ...]
    constraints: tuple[DegreeConstraint, ...]

    def __post_init__(self):
        union = frozenset().union(*self.edges) if self.edges else frozenset()
        if union != self.variables:
            raise ValueError("hyperedges must cover exactly the variable set")
        for c in self.constraints:
            if c.guard not in self.edges:
                raise ValueError(f"guard of {c.describe()} is not a hyperedge")


@dataclass(frozen=True)
class ValidationEntry:
    constraint: DegreeConstraint
    passed: bool
    max_degree: int | None
    witness: dict[str, int] | None
    note: str = ""


def guard_relations(query: JoinQuery) -> dict[frozenset[str], int]:
    """Index of each edge's guard relation, the first relation on it; edges in query order."""
    guards: dict[frozenset[str], int] = {}
    for i, rel in enumerate(query.relations):
        guards.setdefault(frozenset(rel.variables), i)
    return guards


def validate(query: JoinQuery, cs: ConstraintSet) -> list[ValidationEntry]:
    """Check every constraint against the instance; failures carry a witness.

    The degree of an A-row is the number of distinct B-rows of the guard
    relation that extend it. Guard rows are distinct, so when B is the whole
    guard they are the B-rows; a proper B's rows are deduplicated once. The
    witness is the first A-row of the worst degree in the walk over
    `project(rel, A).rows`.
    """
    guards = guard_relations(query)
    report = []
    for c in cs.constraints:
        if c.guard not in guards:
            report.append(ValidationEntry(c, False, None, None, "no guard relation"))
            continue
        rel = query.relations[guards[c.guard]]
        if c.B == c.guard:
            b_vars, b_rows = rel.variables, rel.rows
        else:
            b_idx = [i for i, v in enumerate(rel.variables) if v in c.B]
            b_vars, b_rows = [rel.variables[i] for i in b_idx], set(rows_at(rel.rows, b_idx))
        a_idx = [j for j, v in enumerate(b_vars) if v in c.A]
        degrees = Counter(rows_at(b_rows, a_idx)) if c.A else {(): len(b_rows)}
        worst = max(degrees.values(), default=0)
        passed = worst <= c.N
        witness = None
        if not passed:
            a_rel = project(rel, c.A)
            a_row = next(r for r in a_rel.rows if degrees[r] == worst)
            witness = dict(zip(a_rel.variables, a_row))
        report.append(ValidationEntry(c, passed, worst, witness))
    return report


def dependency_graph(cs: ConstraintSet) -> frozenset[tuple[str, str]]:
    """The edges (u, v) of the dependency graph; its vertices are `cs.variables`."""
    # Edges run from determining variables to the determined ones (B - A);
    # pairs inside A would otherwise form spurious two-cycles.
    edges = set()
    for c in cs.constraints:
        for u in c.A:
            for v in c.B - c.A:
                edges.add((u, v))
    return frozenset(edges)


def compatible_order(cs: ConstraintSet) -> tuple[str, ...]:
    """Topological sort of the dependency graph, ties broken by variable name."""
    ts = TopologicalSorter()
    for v in sorted(cs.variables):
        ts.add(v)
    for u, v in sorted(dependency_graph(cs)):
        ts.add(v, u)
    try:
        ts.prepare()
    except CycleError as exc:
        raise CyclicConstraintsError(exc.args[1]) from None
    ready: list[str] = []
    out = []
    while ts.is_active():
        for v in ts.get_ready():
            heapq.heappush(ready, v)
        v = heapq.heappop(ready)
        out.append(v)
        ts.done(v)
    return tuple(out)


def check_compatible(cs: ConstraintSet, order: Sequence[str]) -> bool:
    if set(order) != set(cs.variables) or len(order) != len(cs.variables):
        return False
    pos = {v: i for i, v in enumerate(order)}
    return all(pos[u] < pos[v] for u, v in dependency_graph(cs))


def resolve_order(
    query: JoinQuery, constraint_set: ConstraintSet | None, order: Sequence[str] | None
) -> tuple[str, ...]:
    """The one order rule of every search, estimator and sampler.

    An explicit order must be a permutation of the query's variables
    (`ValueError`) and compatible with the constraints
    (`IncompatibleOrderError`). Without one, the query's own order stays if
    the constraints allow it, else `compatible_order`'s.
    """
    if order is None:
        if constraint_set is None or check_compatible(constraint_set, query.order):
            return query.order
        return compatible_order(constraint_set)
    order = tuple(order)
    if sorted(order) != sorted(query.order):
        raise ValueError(f"order {order} is not a permutation of the query variables")
    if constraint_set is not None and not check_compatible(constraint_set, order):
        raise IncompatibleOrderError(f"order {order} is not compatible with the degree constraints")
    return order


def cardinality_constraints(
    query: JoinQuery, bounds: Mapping[frozenset[str], int] | None = None
) -> ConstraintSet:
    """One cardinality constraint per distinct hyperedge.

    Missing bounds default to the observed size of the first relation on that
    edge, which the instance respects by construction.
    """
    guards = guard_relations(query)
    constraints = []
    for e, i in guards.items():
        n = bounds.get(e) if bounds else None
        if n is None:
            n = max(1, query.relations[i].size)
        constraints.append(DegreeConstraint(frozenset(), e, n, e))
    return ConstraintSet(frozenset(query.order), tuple(guards), tuple(constraints))
