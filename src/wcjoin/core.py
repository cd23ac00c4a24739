"""Dictionary-encoded relational data model.

Everything inside the engine works on dense integer codes; raw values only
exist at the input/output boundary, where a Dictionary translates them.
Partial assignments ("tuples") are plain dicts mapping variable name to code.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Mapping, Sequence


class EncodingError(ValueError):
    """Raw tables cannot be turned into a join query."""


@dataclass(frozen=True)
class Dictionary:
    """Dense bijection between raw values and integer codes 0..|D|-1."""

    forward: Mapping[str, int]
    backward: tuple[str, ...]

    def encode(self, raw: str) -> int:
        return self.forward[raw]

    def decode(self, code: int) -> str:
        return self.backward[code]

    def __len__(self) -> int:
        return len(self.backward)


@dataclass(frozen=True)
class Relation:
    """A deduplicated set of rows over a fixed variable tuple."""

    variables: tuple[str, ...]
    rows: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variable in {self.variables}")
        width = len(self.variables)
        for row in self.rows:
            if len(row) != width:
                raise ValueError(f"row {row} does not match arity {width}")

    @property
    def size(self) -> int:
        return len(self.rows)

    def is_empty(self) -> bool:
        return not self.rows


@dataclass(frozen=True)
class JoinQuery:
    """A full conjunctive query: relations over a shared ordered variable set."""

    order: tuple[str, ...]
    relations: tuple[Relation, ...]
    domain_size: int
    dictionary: Dictionary

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise ValueError(f"duplicate variable in order {self.order}")
        covered = set()
        for rel in self.relations:
            extra = set(rel.variables) - set(self.order)
            if extra:
                raise ValueError(f"relation variables {extra} not in order")
            for row in rel.rows:
                for code in row:
                    if not 0 <= code < self.domain_size:
                        raise ValueError(f"code {code} outside active domain")
            covered.update(rel.variables)
        if covered != set(self.order):
            missing = set(self.order) - covered
            raise ValueError(f"variables {missing} not covered by any relation")

    @property
    def num_variables(self) -> int:
        return len(self.order)


def encode_instance(
    tables: Sequence[tuple[str, Sequence[str], Iterable[Sequence[str]]]],
    order: Sequence[str],
) -> JoinQuery:
    """Encode raw tables (name, header, rows of raw values) into a JoinQuery.

    Codes are assigned in first-appearance order: tables in the given order,
    rows top to bottom, columns left to right. Duplicate rows are dropped.
    A table's rows may be any iterable, which is read once: the CLI streams
    them from the CSV file.
    """
    if not order:
        raise EncodingError("empty variable order")
    order = tuple(order)
    order_set = set(order)
    forward: dict[str, int] = {}
    backward: list[str] = []
    relations = []
    for name, header, rows in tables:
        header = tuple(header)
        for var in header:
            if var not in order_set:
                raise EncodingError(f"table {name!r}: variable {var!r} not in order")
        if len(set(header)) != len(header):
            raise EncodingError(f"table {name!r}: duplicate variable in header")
        encoded = set()
        for row in rows:
            if len(row) != len(header):
                raise EncodingError(f"table {name!r}: row {row!r} does not match header")
            codes = []
            for raw in row:
                code = forward.get(raw)
                if code is None:
                    code = len(backward)
                    forward[raw] = code
                    backward.append(raw)
                codes.append(code)
            encoded.add(tuple(codes))
        relations.append(Relation(header, frozenset(encoded)))
    dictionary = Dictionary(forward, tuple(backward))
    return JoinQuery(order, tuple(relations), len(backward), dictionary)


def filter_relation(rel: Relation, t: Mapping[str, int]) -> Relation:
    """R[t]: rows agreeing with t on shared variables, projected off t's variables."""
    shared = [i for i, v in enumerate(rel.variables) if v in t]
    keep = [i for i, v in enumerate(rel.variables) if v not in t]
    target = tuple(t[rel.variables[i]] for i in shared)
    out = set()
    for row in rel.rows:
        if tuple(row[i] for i in shared) == target:
            out.add(tuple(row[i] for i in keep))
    return Relation(tuple(rel.variables[i] for i in keep), frozenset(out))


def rows_at(
    rows: Collection[tuple[int, ...]], positions: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Each row restricted to `positions`, in the rows' order, with no Python loop per row.

    `itemgetter` returns a scalar for one position and refuses zero, so one
    position is wrapped by `zip` and zero positions give `()` per row.
    """
    if len(positions) > 1:
        return map(itemgetter(*positions), rows)
    if positions:
        return zip(map(itemgetter(positions[0]), rows))
    return repeat((), len(rows))


def project(rel: Relation, variables: Iterable[str]) -> Relation:
    """R|Y: deduplicated restriction of every row to Y (intersected with X_R)."""
    keep_set = set(variables)
    keep = [i for i, v in enumerate(rel.variables) if v in keep_set]
    return Relation(tuple(rel.variables[i] for i in keep), frozenset(rows_at(rel.rows, keep)))
