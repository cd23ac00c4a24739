"""Branch-and-bound join enumeration.

wcj() is the plain algorithm: bind variables in order, try every domain code,
backtrack as soon as some relation has no matching row. wcj_binarised() binds
codes one bit at a time, MSB first, which prunes whole blocks of useless
codes after a single bit and is what makes the search worst-case optimal.
Both walk the levels of one `index.Cursors` over the original sorted
relations, depth first from an explicit stack, so the depth n*b of the bit
search is not limited by Python's recursion limit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .constraints import ConstraintSet, check_compatible, compatible_order
from .core import JoinQuery
from .index import Cursors

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
    return _search(query, sink, order if order is not None else query.order, bits=False)


def wcj_binarised(
    query: JoinQuery,
    sink: Sink,
    constraint_set: ConstraintSet | None = None,
    order: Sequence[str] | None = None,
) -> EnumerationStats:
    """Worst-case optimal path: enumerate bit by bit, MSB first.

    With a constraint set, the variable order defaults to a compatible one;
    an explicit order is checked against the dependency graph. The returned
    stats describe the bit-level search (depth n*b); the sink receives code
    tuples, as from wcj().
    """
    return _search(query, sink, resolve_order(query, constraint_set, order), bits=True)


def _search(query: JoinQuery, sink: Sink, order: Sequence[str], bits: bool) -> EnumerationStats:
    """Depth-first search over the cursor levels, driven from an explicit stack."""
    order = tuple(order)
    if set(order) != set(query.order) or len(order) != len(query.order):
        raise ValueError("order must be a permutation of the query variables")
    cur = Cursors(query.relations, order, query.domain_size, bits)
    levels, fanout = cur.levels, cur.fanout
    bind, unbind = cur.bind, cur.unbind
    # A node is consistent iff no relation has run out of rows; only the
    # relations narrowed by the level just bound can have (every relation
    # at the root).
    checked = [cur.stacks] + [[st for _, st in aff] for aff in cur.affected]
    per_depth = [0] * (levels + 1)
    child = [0] * levels  # the child bound at each level of the current path
    calls = consistent = emitted = 0
    depth = 0
    while True:
        calls += 1
        per_depth[depth] += 1
        for st in checked[depth]:
            lo, hi = st[-1]
            if lo == hi:
                break
        else:
            consistent += 1
            if depth < levels:
                child[depth] = 0
                bind(0)
                depth += 1
                continue
            emitted += 1
            sink(cur.codes())
        # Move to the next sibling, climbing out of exhausted levels.
        while depth:
            depth -= 1
            unbind()
            d = child[depth] + 1
            if d < fanout:
                child[depth] = d
                bind(d)
                depth += 1
                break
        else:
            break
    return EnumerationStats(calls, consistent, emitted, per_depth)


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
