"""Branch-and-bound join enumeration.

wcj() is the plain algorithm: bind variables in order, try every domain code,
backtrack as soon as some relation has no matching row. wcj_binarised() runs
the same search on the bit-expanded query, which prunes whole blocks of
useless codes after a single bit and is what makes the search worst-case
optimal; answers are decoded back before reaching the sink.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .binary import bin_query, debin_row, make_layout
from .constraints import ConstraintSet, check_compatible, compatible_order
from .core import JoinQuery
from .index import build

Sink = Callable[[tuple[int, ...]], None]


class IncompatibleOrderError(ValueError):
    """Requested variable order violates the constraint dependency graph."""


@dataclass
class EnumerationStats:
    recursive_calls: int = 0
    consistent_calls: int = 0
    answers_emitted: int = 0
    per_depth_calls: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "recursive_calls": self.recursive_calls,
            "consistent_calls": self.consistent_calls,
            "answers_emitted": self.answers_emitted,
            "per_depth_calls": list(self.per_depth_calls),
        }


def wcj(query: JoinQuery, sink: Sink, order: Sequence[str] | None = None) -> EnumerationStats:
    """Enumerate ans(Q) into the sink, in lexicographic order of the codes.

    The sink receives one code tuple per answer, aligned with the variable
    order used for the search.
    """
    order = tuple(order) if order is not None else query.order
    if set(order) != set(query.order) or len(order) != len(query.order):
        raise ValueError("order must be a permutation of the query variables")
    n = len(order)
    domain = query.domain_size
    pos = {v: i for i, v in enumerate(order)}

    # Per-relation cursor stacks: narrowing pushes a range, backtracking pops.
    stacks: list[list[tuple[int, int]]] = []
    affected: list[list[tuple[list[int], list[tuple[int, int]]]]] = [[] for _ in range(n)]
    for rel in query.relations:
        sr = build(rel, order)
        stack = [(0, len(sr.rows) - 1)]
        stacks.append(stack)
        for j, v in enumerate(sr.variables):
            affected[pos[v]].append((sr.columns[j], stack))

    checked = [stacks] + [[st for _, st in affected[p]] for p in range(n)]
    stats = EnumerationStats(per_depth_calls=[0] * (n + 1))
    assignment = [0] * n
    per_depth = stats.per_depth_calls

    def recurse(depth: int) -> None:
        stats.recursive_calls += 1
        per_depth[depth] += 1
        for st in checked[depth]:
            lo, hi = st[-1]
            if lo > hi:
                return
        stats.consistent_calls += 1
        if depth == n:
            stats.answers_emitted += 1
            sink(tuple(assignment))
            return
        aff = affected[depth]
        nxt = depth + 1
        for d in range(domain):
            for col, st in aff:
                lo, hi = st[-1]
                l2 = bisect_left(col, d, lo, hi + 1)
                if l2 > hi or col[l2] != d:
                    st.append((l2, l2 - 1))
                else:
                    st.append((l2, bisect_right(col, d, l2, hi + 1) - 1))
            assignment[depth] = d
            recurse(nxt)
            for _, st in aff:
                st.pop()

    recurse(0)
    return stats


def wcj_binarised(
    query: JoinQuery,
    sink: Sink,
    constraint_set: ConstraintSet | None = None,
    order: Sequence[str] | None = None,
) -> EnumerationStats:
    """Worst-case optimal path: binarise, enumerate bit by bit, decode answers.

    With a constraint set, the variable order defaults to a compatible one;
    an explicit order is checked against the dependency graph. The returned
    stats describe the binarised search (depth n*b).
    """
    order = resolve_order(query, constraint_set, order)
    layout = make_layout(order, query.domain_size)
    bq = bin_query(query, layout)

    def bit_sink(bits: tuple[int, ...]) -> None:
        sink(debin_row(bits, layout))

    return wcj(bq, bit_sink, layout.bin_order)


def resolve_order(
    query: JoinQuery,
    constraint_set: ConstraintSet | None,
    order: Sequence[str] | None,
) -> tuple[str, ...]:
    """Pick the search order: explicit > constraint-compatible > query order."""
    if constraint_set is not None:
        if order is not None:
            if not check_compatible(constraint_set, order):
                raise IncompatibleOrderError(
                    f"order {tuple(order)} is not compatible with the degree constraints"
                )
            return tuple(order)
        return compatible_order(constraint_set)
    return tuple(order) if order is not None else query.order
