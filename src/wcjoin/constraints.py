"""Cardinality and degree constraints, their validation, and variable orders.

A degree constraint (A, B, N) guarded by hyperedge e says: for every
assignment of A, the guard relation filtered by it has at most N distinct
B-projections. A = {} gives a cardinality constraint; B = A + {y}, N = 1 is a
functional dependency A -> y.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import JoinQuery, Relation, project


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
class DependencyGraph:
    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class ValidationEntry:
    constraint: DegreeConstraint
    passed: bool
    max_degree: int | None
    witness: dict[str, int] | None
    note: str = ""


def guard_relation(query: JoinQuery, guard: frozenset[str]) -> Relation | None:
    """The first relation of the query whose variable set is the guard."""
    for rel in query.relations:
        if frozenset(rel.variables) == guard:
            return rel
    return None


def validate(query: JoinQuery, cs: ConstraintSet) -> list[ValidationEntry]:
    """Check every constraint against the instance; failures carry a witness."""
    report = []
    for c in cs.constraints:
        rel = guard_relation(query, c.guard)
        if rel is None:
            report.append(ValidationEntry(c, False, None, None, "no guard relation"))
            continue
        a_idx = [i for i, v in enumerate(rel.variables) if v in c.A]
        b_idx = [i for i, v in enumerate(rel.variables) if v in c.B]
        b_rows: dict[tuple[int, ...], set[tuple[int, ...]]] = {}  # distinct B-rows per A-row
        for row in rel.rows:
            key = tuple(row[i] for i in a_idx)
            b_rows.setdefault(key, set()).add(tuple(row[i] for i in b_idx))
        worst, witness = 0, None
        # The witness is the first A-row of the worst degree in this walk.
        for a_row in project(rel, c.A).rows:
            degree = len(b_rows[a_row])
            if degree > worst:
                worst, witness = degree, {rel.variables[i]: x for i, x in zip(a_idx, a_row)}
        passed = worst <= c.N
        report.append(ValidationEntry(c, passed, worst, None if passed else witness))
    return report


def dependency_graph(cs: ConstraintSet) -> DependencyGraph:
    # Edges run from determining variables to the determined ones (B - A);
    # pairs inside A would otherwise form spurious two-cycles.
    edges = set()
    for c in cs.constraints:
        for u in c.A:
            for v in c.B - c.A:
                edges.add((u, v))
    return DependencyGraph(cs.variables, frozenset(edges))


def _find_cycle(succ: Mapping[str, set[str]], nodes: set[str]) -> list[str]:
    """A cycle among the nodes a topological sort left over, first node repeated last.

    Each of them keeps a predecessor among them, so a walk along predecessors
    comes back to a node it passed; that stretch, reversed, is a cycle.
    """
    pred = {w: v for v in sorted(nodes) for w in succ[v] if w in nodes}
    walk = [min(nodes)]
    seen = {walk[0]: 0}
    while (v := pred[walk[-1]]) not in seen:
        seen[v] = len(walk)
        walk.append(v)
    return (walk[seen[v]:] + [v])[::-1]


def compatible_order(cs: ConstraintSet) -> tuple[str, ...]:
    """Topological sort of the dependency graph, ties broken by variable name."""
    graph = dependency_graph(cs)
    succ: dict[str, set[str]] = {v: set() for v in graph.vertices}
    indeg = {v: 0 for v in graph.vertices}
    for u, v in graph.edges:
        if v not in succ[u]:
            succ[u].add(v)
            indeg[v] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for w in sorted(succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(out) != len(graph.vertices):
        remaining = set(graph.vertices) - set(out)
        raise CyclicConstraintsError(_find_cycle(succ, remaining))
    return tuple(out)


def check_compatible(cs: ConstraintSet, order: Sequence[str]) -> bool:
    if set(order) != set(cs.variables) or len(order) != len(cs.variables):
        return False
    pos = {v: i for i, v in enumerate(order)}
    return all(pos[u] < pos[v] for u, v in dependency_graph(cs).edges)


def cardinality_constraints(
    query: JoinQuery, bounds: Mapping[frozenset[str], int] | None = None
) -> ConstraintSet:
    """One cardinality constraint per distinct hyperedge.

    Missing bounds default to the observed size of the first relation on that
    edge, which the instance respects by construction.
    """
    edges: list[frozenset[str]] = []
    constraints = []
    seen = set()
    for rel in query.relations:
        e = frozenset(rel.variables)
        if e in seen:
            continue
        seen.add(e)
        edges.append(e)
        n = bounds.get(e) if bounds else None
        if n is None:
            n = max(1, rel.size)
        constraints.append(DegreeConstraint(frozenset(), e, n, e))
    return ConstraintSet(frozenset(query.order), tuple(edges), tuple(constraints))
