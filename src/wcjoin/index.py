"""Sorted relations and the one cursor engine every search drives.

Columns follow the global variable order and rows are sorted, so the rows
agreeing with a bound prefix stay contiguous. `Cursors` keeps a stack of row
ranges per relation; binding a level narrows each relation on that level's
variable to a code interval [a, c) with two bisects, unbinding pops. Plain
levels are variables, child d being [d, d+1). Bit levels are the b bits of
each variable, MSB first: child d of a level of width w narrows [a, a + 2w)
to [a + d*w, a + (d+1)*w). A range agrees on all earlier columns and bits,
so its codes stay sorted, and the bit-level tree over the original relations
is, node for node, the plain tree of `binary.bin_query`'s bit-level copy.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .binary import bit_width
from .core import Relation


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


class Cursors:
    """Row-range stacks over sorted relations, positioned at one search node.

    `stacks[i]` holds relation i's half-open row ranges (lo, hi), the top one
    matching the bound prefix; `affected[level]` lists the (column, stack)
    pairs a level narrows. bind(d) moves to child d, unbind() to the parent.
    """

    def __init__(
        self, relations: Sequence[Relation], order: Sequence[str], domain_size: int, bits: bool
    ):
        n = len(order)
        per_var = bit_width(domain_size) if bits else 1
        self.per_var = per_var  # levels per variable
        self.levels = n * per_var
        self.fanout = 2 if bits else domain_size
        self.depth = 0
        self._width = [1 << (per_var - 1 - level % per_var) for level in range(self.levels)]
        # Start of the bound variable's code interval after each level; after
        # a variable's last level it is the variable's code.
        self._start = [0] * self.levels
        pos = {v: i for i, v in enumerate(order)}
        self.stacks: list[list[tuple[int, int]]] = []
        on_var: list[list[tuple[list[int], list[tuple[int, int]]]]] = [[] for _ in range(n)]
        for rel in relations:
            sr = build(rel, order)
            stack = [(0, len(sr))]
            self.stacks.append(stack)
            for v, col in zip(sr.variables, sr.columns):
                on_var[pos[v]].append((col, stack))
        self.affected = [on_var[level // per_var] for level in range(self.levels)]

    def bind(self, d: int) -> None:
        level = self.depth
        w = self._width[level]
        a = (self._start[level - 1] if level % self.per_var else 0) + d * w
        c = a + w
        self._start[level] = a
        for col, st in self.affected[level]:
            lo, hi = st[-1]
            lo = bisect_left(col, a, lo, hi)
            st.append((lo, bisect_left(col, c, lo, hi)))
        self.depth = level + 1

    def unbind(self) -> None:
        self.depth -= 1
        for _, st in self.affected[self.depth]:
            st.pop()

    def codes(self) -> tuple[int, ...]:
        """Codes of the fully bound variables, in order; the answer at a leaf."""
        return tuple(self._start[self.per_var - 1 : self.depth : self.per_var])
