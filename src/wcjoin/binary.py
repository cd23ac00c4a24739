"""Bitwise re-encoding of a query onto the domain {0,1}.

Every code is expanded to b = ceil(log2(|D|)) bits, MSB first, and each
variable x becomes the block x#1..x#b of binary variables. Answer sets are
in one-to-one correspondence. The engine never builds this copy: it binds
the same bits as code intervals over the original relations (see
`index.Cursors`); the explicit construction is what the tests compare it to.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import Dictionary, JoinQuery, Relation
from .constraints import ConstraintSet, DegreeConstraint


class DebinError(ValueError):
    """A binarised tuple decodes to a code outside the active domain."""


def bit_width(domain_size: int) -> int:
    """Number of bits needed per variable (at least 1, even for empty domains)."""
    if domain_size < 0:
        raise ValueError("domain size must be nonnegative")
    return max(1, (domain_size - 1).bit_length()) if domain_size else 1


def bin_value(code: int, b: int) -> tuple[int, ...]:
    """MSB-first binary expansion of a code on b bits."""
    if not 0 <= code < (1 << b):
        raise ValueError(f"code {code} does not fit on {b} bits")
    return tuple((code >> (b - 1 - i)) & 1 for i in range(b))


def bin_var(name: str, i: int) -> str:
    return f"{name}#{i}"


@dataclass(frozen=True)
class BitLayout:
    """Mapping between original variables and their bit-block counterparts."""

    b: int
    source_order: tuple[str, ...]
    domain_size: int
    bin_order: tuple[str, ...]
    var_map: Mapping[str, tuple[str, ...]]  # x -> (x#1, ..., x#b)
    inverse: Mapping[str, tuple[str, int]]  # x#i -> (x, i)


def make_layout(order: Sequence[str], domain_size: int) -> BitLayout:
    b = bit_width(domain_size)
    var_map = {x: tuple(bin_var(x, i) for i in range(1, b + 1)) for x in order}
    inverse = {bv: (x, i) for x in order for i, bv in enumerate(var_map[x], start=1)}
    bin_order = tuple(bv for x in order for bv in var_map[x])
    return BitLayout(b, tuple(order), domain_size, bin_order, var_map, inverse)


def bin_relation(rel: Relation, layout: BitLayout) -> Relation:
    b = layout.b
    variables = tuple(bv for x in rel.variables for bv in layout.var_map[x])
    rows = frozenset(
        tuple(bit for code in row for bit in bin_value(code, b)) for row in rel.rows
    )
    return Relation(variables, rows)


def bin_query(query: JoinQuery, layout: BitLayout | None = None) -> JoinQuery:
    """Binarised query over domain {0,1}; relation cardinalities are preserved."""
    if layout is None:
        layout = make_layout(query.order, query.domain_size)
    relations = tuple(bin_relation(rel, layout) for rel in query.relations)
    dictionary = Dictionary({"0": 0, "1": 1}, ("0", "1"))
    return JoinQuery(layout.bin_order, relations, 2, dictionary)


def bin_tuple(t: Mapping[str, int], layout: BitLayout) -> dict[str, int]:
    out = {}
    for x, code in t.items():
        for bv, bit in zip(layout.var_map[x], bin_value(code, layout.b)):
            out[bv] = bit
    return out


def debin_row(bits: Sequence[int], layout: BitLayout) -> tuple[int, ...]:
    """Decode a full row of bits (aligned with bin_order) back to codes."""
    b = layout.b
    codes = []
    for k in range(len(layout.source_order)):
        code = 0
        for i in range(b):
            code = (code << 1) | bits[k * b + i]
        if code >= layout.domain_size:
            raise DebinError(f"decoded code {code} >= domain size {layout.domain_size}")
        codes.append(code)
    return tuple(codes)


def debin_tuple(t: Mapping[str, int], layout: BitLayout) -> dict[str, int]:
    """Inverse of bin_tuple on tuples assigning complete bit blocks."""
    out = {}
    for x in layout.source_order:
        block = layout.var_map[x]
        if block[0] not in t:
            continue
        code = 0
        for bv in block:
            code = (code << 1) | t[bv]
        if code >= layout.domain_size:
            raise DebinError(f"decoded code {code} >= domain size {layout.domain_size}")
        out[x] = code
    return out


def bin_constraints(cs: ConstraintSet, layout: BitLayout) -> ConstraintSet:
    """Degree constraints carried over to the bit variables, bounds unchanged."""

    def expand(vs: frozenset[str]) -> frozenset[str]:
        return frozenset(bv for x in vs for bv in layout.var_map[x])

    constraints = tuple(
        DegreeConstraint(expand(c.A), expand(c.B), c.N, expand(c.guard))
        for c in cs.constraints
    )
    edges = tuple(expand(e) for e in cs.edges)
    return ConstraintSet(expand(cs.variables), edges, constraints)
