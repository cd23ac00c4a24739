"""Bitwise re-encoding onto domain {0,1} and its inverse."""
import random

import pytest

from wcjoin.binary import (
    DebinError,
    bin_constraints,
    bin_query,
    bin_relation,
    bin_value,
    bin_var,
    bit_width,
    debin_row,
    make_layout,
)
from wcjoin.constraints import (
    ConstraintSet,
    DegreeConstraint,
    compatible_order,
    dependency_graph,
)
from wcjoin.index import build
from wcjoin.oracle import nested_loop_join

from conftest import TRIANGLE_ORDER, random_query


def sorted_rows(rel, order):
    """The sorted rows of `build`'s columns."""
    return list(zip(*(col for col, _ in build(rel, order))))


class TestBitWidth:
    def test_examples(self):
        assert bit_width(0) == 1  # empty active domain still gets one bit
        assert bit_width(1) == 1
        assert bit_width(2) == 1
        assert bit_width(3) == 2
        assert bit_width(4) == 2
        assert bit_width(5) == 3
        assert bit_width(1000) == 10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bit_width(-1)


class TestBinValue:
    def test_msb_first(self):
        assert bin_value(0, 2) == (0, 0)
        assert bin_value(1, 2) == (0, 1)
        assert bin_value(2, 2) == (1, 0)
        assert bin_value(6, 3) == (1, 1, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bin_value(4, 2)

    def test_preserves_integer_order(self):
        for b in (1, 2, 3, 5):
            expansions = [bin_value(c, b) for c in range(1 << b)]
            assert expansions == sorted(expansions)


class TestLayout:
    def test_triangle_layout(self):
        lay = make_layout(TRIANGLE_ORDER, 4)
        assert lay.b == 2
        assert lay.bin_order == ("x1#1", "x1#2", "x2#1", "x2#2", "x3#1", "x3#2")
        assert lay.var_map["x2"] == ("x2#1", "x2#2")
        assert bin_var("x1", 1) == "x1#1"


class TestBinQuery:
    def test_triangle_relation_rows(self, triangle_query):
        lay = make_layout(TRIANGLE_ORDER, 4)
        br = bin_relation(triangle_query.relations[0], lay)
        assert br.variables == ("x1#1", "x1#2", "x2#1", "x2#2")
        assert (0, 1, 0, 0) in br.rows  # (x1, x2) = (1, 0)
        assert (1, 0, 0, 1) in br.rows  # (x1, x2) = (2, 1)

    def test_query_shape(self, triangle_query):
        bq = bin_query(triangle_query)
        assert bq.domain_size == 2
        assert bq.num_variables == 6
        assert all(br.size == r.size for br, r in zip(bq.relations, triangle_query.relations))

    def test_cardinalities_preserved_random(self):
        rng = random.Random(3)
        for _ in range(100):
            q = random_query(rng)
            bq = bin_query(q)
            assert [r.size for r in bq.relations] == [r.size for r in q.relations]

    def test_answers_in_bijection_random(self):
        rng = random.Random(4)
        for _ in range(40):
            q = random_query(rng, max_vars=3, max_rels=3, max_tuples=15)
            lay = make_layout(q.order, q.domain_size)
            bq = bin_query(q, lay)
            decoded = {debin_row(row, lay) for row in nested_loop_join(bq)}
            assert decoded == nested_loop_join(q)

    def test_sorted_index_order_preserved(self):
        # MSB-first expansion keeps lexicographic row order: the binarised
        # sorted index is the original one expanded row by row.
        rng = random.Random(6)
        for _ in range(40):
            q = random_query(rng)
            lay = make_layout(q.order, q.domain_size)
            for r in q.relations:
                expanded = [
                    tuple(bit for code in row for bit in bin_value(code, lay.b))
                    for row in sorted_rows(r, q.order)
                ]
                assert sorted_rows(bin_relation(r, lay), lay.bin_order) == expanded


class TestTupleCodecs:
    def test_round_trip_random(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 5)
            order = tuple(f"x{i}" for i in range(n))
            d = rng.randint(1, 40)
            lay = make_layout(order, d)
            row = tuple(rng.randrange(d) for _ in order)
            bits = tuple(bit for c in row for bit in bin_value(c, lay.b))
            assert debin_row(bits, lay) == row

    def test_debin_rejects_codes_outside_domain(self):
        lay = make_layout(("x1",), 3)  # 2 bits, codes 0..2
        with pytest.raises(DebinError):
            debin_row((1, 1), lay)


class TestBinConstraints:
    def test_degree_constraints_expand_blockwise(self):
        e2 = frozenset({"x2", "x3"})
        cs = ConstraintSet(
            frozenset({"x2", "x3"}),
            (e2,),
            (DegreeConstraint(frozenset({"x3"}), e2, 7, e2),),
        )
        lay = make_layout(("x2", "x3"), 4)
        bcs = bin_constraints(cs, lay)
        (c,) = bcs.constraints
        assert c.A == frozenset({"x3#1", "x3#2"})
        assert c.B == frozenset({"x2#1", "x2#2", "x3#1", "x3#2"})
        assert c.N == 7
        assert c.guard in bcs.edges

    def test_acyclicity_survives_binarisation(self):
        e1, e2, e3 = (
            frozenset({"x1", "x2"}),
            frozenset({"x2", "x3"}),
            frozenset({"x1", "x3"}),
        )
        cs = ConstraintSet(
            frozenset({"x1", "x2", "x3"}),
            (e1, e2, e3),
            (
                DegreeConstraint(frozenset(), e1, 4, e1),
                DegreeConstraint(frozenset({"x3"}), e2, 2, e2),
                DegreeConstraint(frozenset({"x3"}), e3, 2, e3),
            ),
        )
        lay = make_layout(("x1", "x2", "x3"), 4)
        bcs = bin_constraints(cs, lay)
        order = compatible_order(bcs)
        assert order == ("x3#1", "x3#2", "x1#1", "x1#2", "x2#1", "x2#2")
        # No edges between bits of the same variable.
        g = dependency_graph(bcs)
        assert all(u.split("#")[0] != v.split("#")[0] for u, v in g)
