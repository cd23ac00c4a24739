"""Sorted-array indexes with pointer-pair range cursors.

A relation is stored with its columns rearranged to follow the global
variable order and its rows sorted lexicographically. Filtering by a prefix
assignment then keeps matching rows contiguous, so the filtered relation is
represented by an index range narrowed with two binary searches per bound
variable.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

from .core import Relation


@dataclass(frozen=True)
class RangeCursor:
    lo: int
    hi: int  # inclusive; lo == hi + 1 encodes the empty range
    depth: int  # number of leading columns already bound

    def count(self) -> int:
        return self.hi - self.lo + 1 if self.hi >= self.lo else 0

    def is_empty(self) -> bool:
        return self.lo > self.hi


class SortedRelation:
    """Rows sorted lexicographically, plus per-column arrays for fast bisect."""

    __slots__ = ("variables", "rows", "columns")

    def __init__(self, variables: Sequence[str], rows: Sequence[tuple[int, ...]]):
        self.variables = tuple(variables)
        self.rows: list[tuple[int, ...]] = sorted(set(rows))
        self.columns: list[list[int]] = [
            [row[j] for row in self.rows] for j in range(len(self.variables))
        ]

    def __len__(self) -> int:
        return len(self.rows)

    def full_cursor(self) -> RangeCursor:
        return RangeCursor(0, len(self.rows) - 1, 0)

    def narrow(self, cursor: RangeCursor, value: int) -> RangeCursor:
        """Restrict the cursor to rows whose next unbound column equals value."""
        col = self.columns[cursor.depth]
        lo = bisect_left(col, value, cursor.lo, cursor.hi + 1)
        if lo > cursor.hi or col[lo] != value:
            return RangeCursor(lo, lo - 1, cursor.depth + 1)
        hi = bisect_right(col, value, lo, cursor.hi + 1) - 1
        return RangeCursor(lo, hi, cursor.depth + 1)


def build(rel: Relation, order: Sequence[str]) -> SortedRelation:
    """Index a relation for the given global variable order."""
    positions = {v: i for i, v in enumerate(order)}
    for v in rel.variables:
        if v not in positions:
            raise ValueError(f"variable {v!r} not in global order")
    perm = sorted(range(len(rel.variables)), key=lambda i: positions[rel.variables[i]])
    variables = tuple(rel.variables[i] for i in perm)
    rows = [tuple(row[i] for i in perm) for row in rel.rows]
    return SortedRelation(variables, rows)
