"""Dictionary encoding and relational algebra on encoded rows."""
import random

import pytest

from wcjoin.core import (
    EncodingError,
    Relation,
    encode_instance,
    filter_relation,
    project,
)

from conftest import TRIANGLE_ORDER, TRIANGLE_TABLES, random_query


def rel(variables, rows) -> Relation:
    return Relation(tuple(variables), frozenset(tuple(r) for r in rows))


class TestEncodeInstance:
    def test_triangle_first_appearance_codes(self, triangle_query):
        # Raw values appear in the order "0", "1", "2", "3", so codes equal ints.
        q = triangle_query
        assert q.domain_size == 4
        assert q.dictionary.backward == ("0", "1", "2", "3")
        assert q.dictionary.encode("2") == 2
        assert q.dictionary.decode(3) == "3"
        assert q.order == TRIANGLE_ORDER
        r = q.relations[0]
        assert r.variables == ("x1", "x2")
        assert r.rows == frozenset({(0, 0), (1, 0), (1, 1), (2, 1)})

    def test_codes_are_dense_and_shared_across_tables(self):
        tables = [
            ("R", ("x1",), [["apple"], ["pear"]]),
            ("S", ("x1", "x2"), [["pear", "fig"]]),
        ]
        q = encode_instance(tables, ("x1", "x2"))
        assert q.domain_size == 3
        assert q.dictionary.backward == ("apple", "pear", "fig")
        assert q.relations[1].rows == frozenset({(1, 2)})

    def test_duplicate_rows_are_dropped(self):
        q = encode_instance([("R", ("x1",), [["a"], ["a"], ["b"]])], ("x1",))
        assert q.relations[0].size == 2

    def test_header_variable_not_in_order(self):
        with pytest.raises(EncodingError):
            encode_instance([("R", ("y",), [["a"]])], ("x1",))

    def test_ragged_row_rejected(self):
        with pytest.raises(EncodingError):
            encode_instance([("R", ("x1", "x2"), [["a"]])], ("x1", "x2"))

    def test_uncovered_variable_rejected(self):
        with pytest.raises(ValueError):
            encode_instance([("R", ("x1",), [["a"]])], ("x1", "x2"))

    def test_dictionary_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(50):
            q = random_query(rng)
            d = q.dictionary
            assert len(d) == q.domain_size
            for code in range(q.domain_size):
                assert d.encode(d.decode(code)) == code


class TestAlgebra:
    def test_filter_triangle_examples(self, triangle_query):
        r = triangle_query.relations[0]
        assert filter_relation(r, {"x1": 1}) == rel(("x2",), {(0,), (1,)})
        assert filter_relation(r, {"x1": 3}).is_empty()
        # Variables outside the relation are ignored.
        assert filter_relation(r, {"x3": 0}) == r
        assert filter_relation(r, {}) == r

    def test_filter_full_binding_leaves_nullary_relation(self, triangle_query):
        r = triangle_query.relations[0]
        assert filter_relation(r, {"x1": 1, "x2": 0}) == rel((), {()})
        assert filter_relation(r, {"x1": 0, "x2": 1}) == rel((), set())

    def test_project(self, triangle_query):
        r = triangle_query.relations[0]
        assert project(r, {"x2"}) == rel(("x2",), {(0,), (1,)})
        assert project(r, {"x1", "x2"}) == r
        assert project(r, set()) == rel((), {()})
        assert project(rel(("x1",), set()), set()) == rel((), set())

    def test_filter_then_project_commute_on_disjoint_sets(self):
        rng = random.Random(23)
        for _ in range(50):
            q = random_query(rng)
            r = rng.choice(q.relations)
            if not r.variables:
                continue
            v = rng.choice(r.variables)
            t = {v: rng.randrange(q.domain_size or 1)}
            rest = set(r.variables) - {v}
            assert filter_relation(project(r, rest | {v}), t) == project(
                filter_relation(r, t), rest
            )
