"""Dictionary encoding and relational algebra on encoded rows."""
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wcjoin.binary import bin_query, make_layout
from wcjoin.core import (
    Dictionary,
    EncodingError,
    JoinQuery,
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


class TestPublicConstructorsCheckRows:
    """`Relation(...)` and `JoinQuery(...)` check every row and every code."""

    def query(self, relations, order=("x1", "x2"), domain_size=3):
        values = tuple(str(i) for i in range(domain_size))
        dictionary = Dictionary({v: i for i, v in enumerate(values)}, values)
        return JoinQuery(order, tuple(relations), domain_size, dictionary)

    def test_row_width_differs_from_variables(self):
        with pytest.raises(ValueError, match="arity"):
            rel(("x1", "x2"), [(0, 1), (2,)])

    @pytest.mark.parametrize("code", [-1, 3])
    def test_code_outside_the_domain(self, code):
        with pytest.raises(ValueError, match="outside active domain"):
            self.query([rel(("x1", "x2"), [(0, 1), (code, 0)])])

    def test_relation_variable_not_in_order(self):
        with pytest.raises(ValueError, match="not in order"):
            self.query([rel(("x1", "x2"), [(0, 1)]), rel(("x3",), [(0,)])])

    def test_uncovered_variable(self):
        with pytest.raises(ValueError, match="not covered"):
            self.query([rel(("x1",), [(0,)])])


@st.composite
def raw_tables(draw):
    """Raw tables as `random_query` draws them, with duplicate rows left in,
    plus an empty relation and a one-column table; and their variable order."""
    # Sizes come from a Random that hypothesis seeds: its own integers favour
    # small values.
    rng = draw(st.randoms(use_true_random=True))
    n = rng.randint(1, 4)
    variables = [f"x{i + 1}" for i in range(n)]
    d = rng.randint(1, 6)
    tables = []
    for j in range(rng.randint(1, 3)):
        vs = tuple(rng.sample(variables, rng.randint(1, n)))
        rows = [[str(rng.randrange(d)) for _ in vs] for _ in range(rng.randint(0, 12))]
        tables.append((f"R{j}", vs, rows + rows[: rng.randint(0, len(rows))]))
    tables.append(("E", tuple(rng.sample(variables, rng.randint(1, n))), []))
    tables.append(("C", (rng.choice(variables),), [[str(rng.randrange(d))] for _ in range(4)]))
    missing = tuple(v for v in variables if not any(v in vs for _, vs, _ in tables))
    if missing:
        tables.append(("Rcov", missing, [["0"] * len(missing)]))
    rng.shuffle(tables)
    return tables, variables


def assert_checked(value):
    """`value` equals what the public constructors build from its fields, and a
    relation hashes as that does."""
    if isinstance(value, Relation):
        assert type(value.variables) is tuple and type(value.rows) is frozenset
        checked = Relation(value.variables, value.rows)
        assert hash(value) == hash(checked)
    else:
        assert type(value.order) is tuple and type(value.relations) is tuple
        for r in value.relations:
            assert_checked(r)
        checked = JoinQuery(value.order, value.relations, value.domain_size, value.dictionary)
    assert value == checked


@given(raw_tables(), st.randoms(use_true_random=True))
def test_trusted_values_pass_the_public_checks(case, rng):
    """What encode_instance, project, filter_relation and bin_query build
    without the per-row checks would pass them."""
    q = encode_instance(*case)
    assert_checked(q)
    assert_checked(bin_query(q))
    assert_checked(bin_query(q, make_layout(rng.sample(q.order, len(q.order)), q.domain_size)))
    for r in q.relations:
        keep = rng.sample(r.variables, rng.randint(0, len(r.variables)))
        assert_checked(project(r, keep))
        t = {v: rng.randrange(q.domain_size) for v in keep}
        assert_checked(filter_relation(r, t))
