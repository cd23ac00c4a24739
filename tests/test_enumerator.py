"""Branch-and-bound enumeration: correctness, pruning shape, call bound."""
import csv
import json
import random
from collections import defaultdict

import pytest

from wcjoin.binary import bin_query, bin_tuple, bit_width, make_layout
from wcjoin.cli import main
from wcjoin.constraints import ConstraintSet, functional_dependency
from wcjoin.core import encode_instance, is_consistent
from wcjoin.enumerator import (
    IncompatibleOrderError,
    resolve_order,
    wcj,
    wcj_binarised,
)
from wcjoin.oracle import nested_loop_join, prefix_counts

from conftest import TRIANGLE_ANSWERS, random_query


def run(query, order=None):
    out = []
    stats = wcj(query, out.append, order)
    return out, stats


def run_bin(query, constraint_set=None, order=None):
    out = []
    stats = wcj_binarised(query, out.append, constraint_set, order)
    return out, stats


class TestPlainEnumeration:
    def test_triangle_answers(self, triangle_query):
        out, stats = run(triangle_query)
        assert set(out) == TRIANGLE_ANSWERS
        assert out == sorted(out)  # emitted in lexicographic order
        assert stats.answers_emitted == 4
        assert stats.recursive_calls == 33
        assert stats.per_depth_calls == [1, 4, 12, 16]

    def test_per_depth_calls_match_consistent_prefixes(self, triangle_query):
        # Every consistent prefix fans out into |D| calls one level down;
        # the root contributes the single initial call.
        q = triangle_query
        _, stats = run(q)
        pc = [1] + prefix_counts(q)
        assert stats.per_depth_calls == [1] + [q.domain_size * c for c in pc[:-1]]
        assert stats.consistent_calls == sum(pc)

    def test_alternate_order(self, triangle_query):
        out, _ = run(triangle_query, ("x3", "x1", "x2"))
        assert {(a, b, c) for c, a, b in out} == TRIANGLE_ANSWERS

    def test_empty_relation_is_one_call(self):
        q = encode_instance(
            [("R", ("x1",), [["a"]]), ("S", ("x1",), [])], ("x1",)
        )
        out, stats = run(q)
        assert out == []
        assert stats.recursive_calls == 1
        assert stats.consistent_calls == 0

    def test_no_duplicates(self):
        rng = random.Random(19)
        for _ in range(50):
            q = random_query(rng)
            out, _ = run(q)
            assert len(out) == len(set(out))

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(21)
        for _ in range(100):
            q = random_query(rng)
            out, _ = run(q)
            assert set(out) == nested_loop_join(q)

    def test_rejects_non_permutation_order(self, triangle_query):
        with pytest.raises(ValueError):
            wcj(triangle_query, lambda t: None, ("x1", "x2"))


class TestBinarisedEnumeration:
    def test_triangle_answers_and_shape(self, triangle_query):
        out, stats = run_bin(triangle_query)
        assert set(out) == TRIANGLE_ANSWERS
        assert stats.recursive_calls == 37
        assert stats.per_depth_calls == [1, 2, 4, 6, 6, 8, 10]

    def test_pruning_cuts_whole_code_blocks(self, triangle_query):
        # Binding x1 = 3 fails in one bit-level call under the binarised
        # search, whereas the plain search pays one call per code. The bit
        # prefix (1, 1) for x1 is already inconsistent:
        lay = make_layout(triangle_query.order, 4)
        bq = bin_query(triangle_query, lay)
        assert not is_consistent(bq, bin_tuple({"x1": 3}, lay))
        _, stats = run_bin(triangle_query)
        pc = [1] + prefix_counts(bq, lay.bin_order)
        assert stats.per_depth_calls == [1] + [2 * c for c in pc[:-1]]

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(29)
        for _ in range(100):
            q = random_query(rng)
            out, _ = run_bin(q)
            assert set(out) == nested_loop_join(q)

    def test_order_resolution(self, triangle_query):
        e2 = frozenset({"x2", "x3"})
        e3 = frozenset({"x1", "x3"})
        cs = ConstraintSet(
            frozenset(triangle_query.order),
            (frozenset({"x1", "x2"}), e2, e3),
            (
                functional_dependency({"x3"}, "x2", e2),
                functional_dependency({"x3"}, "x1", e3),
            ),
        )
        assert resolve_order(triangle_query, cs, None) == ("x3", "x1", "x2")
        assert resolve_order(triangle_query, None, None) == triangle_query.order
        assert resolve_order(triangle_query, cs, ("x3", "x2", "x1")) == (
            "x3",
            "x2",
            "x1",
        )
        with pytest.raises(IncompatibleOrderError):
            run_bin(triangle_query, cs, ("x1", "x2", "x3"))
        out, _ = run_bin(triangle_query, cs)
        assert {(a, b, c) for c, a, b in out} == TRIANGLE_ANSWERS


class TestCallBound:
    def test_bound_holds_on_triangle(self, triangle_query):
        q = triangle_query
        _, stats = run(q)
        budget = (1 + q.domain_size) * (1 + sum(prefix_counts(q)))
        assert stats.recursive_calls <= budget

    def test_bound_holds_on_random_instances(self):
        rng = random.Random(37)
        for _ in range(60):
            q = random_query(rng)
            _, stats = run(q)
            assert stats.recursive_calls <= (1 + q.domain_size) * (
                1 + sum(prefix_counts(q))
            )
            bq = bin_query(q)
            _, bstats = run_bin(q)
            assert bstats.recursive_calls <= 3 * (1 + sum(prefix_counts(bq)))


def deep_path_tables(n_vars=121, pool=1000, seed=12):
    """A path R0(x0, x1), R1(x1, x2), ... with three full chains and dead-end chaff."""
    rng = random.Random(seed)
    chains = [[str(rng.randrange(pool)) for _ in range(n_vars)] for _ in range(3)]
    tables = []
    for i in range(n_vars - 1):
        rows = {(chain[i], chain[i + 1]) for chain in chains}
        rows.add((chains[0][i], str(rng.randrange(pool))))
        for _ in range(2):
            rows.add((str(rng.randrange(pool)), str(rng.randrange(pool))))
        tables.append((f"R{i}", (f"x{i}", f"x{i + 1}"), [list(r) for r in sorted(rows)]))
    return tables


def path_join(tables):
    """Raw answers of a path query, joining one relation at a time."""
    partial = [tuple(r) for r in tables[0][2]]
    for _, _, rows in tables[1:]:
        succ = defaultdict(list)
        for a, b in rows:
            succ[a].append(b)
        partial = [p + (b,) for p in partial for b in succ[p[-1]]]
    return partial


class TestDeepQuery:
    def test_path_deeper_than_the_recursion_limit(self, tmp_path):
        # 121 variables x 10 bits: the bit search is 1210 levels deep.
        tables = deep_path_tables()
        order = tuple(f"x{i}" for i in range(121))
        q = encode_instance(tables, order)
        assert bit_width(q.domain_size) == 10
        expected = sorted(
            tuple(q.dictionary.encode(v) for v in row) for row in path_join(tables)
        )
        assert len(expected) >= 3
        out, stats = run_bin(q)
        assert out == expected
        assert len(stats.per_depth_calls) == 121 * 10 + 1

        spec = {"relations": {}}
        for name, header, rows in tables:
            with open(tmp_path / f"{name}.csv", "w", newline="") as fh:
                csv.writer(fh).writerows([header, *rows])
            spec["relations"][name] = {"path": f"{name}.csv"}
        (tmp_path / "q.json").write_text(json.dumps(spec))
        assert main(["join", str(tmp_path / "q.json"), "--output", str(tmp_path / "a.csv")]) == 0
        with open(tmp_path / "a.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert tuple(header) == order
        assert sorted(map(tuple, rows)) == sorted(path_join(tables))
