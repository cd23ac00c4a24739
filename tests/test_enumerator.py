"""Branch-and-bound enumeration: correctness, pruning shape, call bound."""
import csv
import inspect
import itertools
import json
import random
import sys
from bisect import bisect_left
from collections import Counter, defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wcjoin import enumerator
from wcjoin.binary import bin_query, bit_width, make_layout
from wcjoin.cli import main
from wcjoin.constraints import (
    ConstraintSet,
    DegreeConstraint,
    IncompatibleOrderError,
    functional_dependency,
    resolve_order,
)
from wcjoin.core import Dictionary, JoinQuery, Relation, encode_instance, filter_relation
from wcjoin.enumerator import wcj, wcj_binarised
from wcjoin.estimators import build_agm_context
from wcjoin.index import Cursors
from wcjoin.oracle import nested_loop_join, prefix_counts
from wcjoin.sampler import EmptyAnswerSetError, Sampler

from conftest import TRIANGLE_ANSWERS, TRIANGLE_TABLES, coded_query, random_query
from test_differential import assert_same_join, queries, reference_join


def run(query, order=None):
    out = []
    stats = wcj(query, out.append, order)
    return out, stats


def run_bin(query, constraint_set=None, order=None):
    out = []
    stats = wcj_binarised(query, out.append, constraint_set, order)
    return out, stats


@given(queries(), st.data())
def test_both_searches_match_the_nested_loop_oracle(q, data):
    order = data.draw(st.permutations(q.order))
    want = nested_loop_join(q, order)
    lay = make_layout(order, q.domain_size)
    root = int(all(rel.rows for rel in q.relations))
    for (out, stats), fanout, counts in (
        (run(q, order), q.domain_size, prefix_counts(q, order)),
        (run_bin(q, None, order), 2, prefix_counts(bin_query(q, lay), lay.bin_order)),
    ):
        assert len(out) == len(want) and set(out) == want
        assert out == sorted(out)  # emitted in lexicographic order
        # Every consistent prefix fans out into `fanout` calls one level down.
        pc = [root] + counts
        assert stats.per_depth_calls == [1] + [fanout * c for c in pc[:-1]]
        assert stats.consistent_calls == sum(pc)
        assert stats.recursive_calls == sum(stats.per_depth_calls)
        assert stats.answers_emitted == len(want)


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

    def test_empty_relation_is_one_call(self):
        q = encode_instance(
            [("R", ("x1",), [["a"]]), ("S", ("x1",), [])], ("x1",)
        )
        out, stats = run_bin(q)
        assert out == []
        assert stats.recursive_calls == 1
        assert stats.consistent_calls == 0

    def test_one_value_domain(self):
        # One bit per variable: each node's child 1 (code 1) is outside the
        # domain and inconsistent, but still counted.
        q = encode_instance(
            [("R", ("x1", "x2"), [["a", "a"]]), ("S", ("x2",), [["a"]])], ("x1", "x2")
        )
        assert q.domain_size == 1 and bit_width(q.domain_size) == 1
        out, stats = run_bin(q)
        assert out == [(0, 0)]
        assert stats.per_depth_calls == [1, 2, 2]
        assert stats.consistent_calls == 3
        assert stats.answers_emitted == 1

    def test_pruning_cuts_whole_code_blocks(self, triangle_query):
        # Binding x1 = 3 fails in one bit-level call under the binarised
        # search, whereas the plain search pays one call per code. The bit
        # prefix (1, 1) for x1 is already inconsistent:
        lay = make_layout(triangle_query.order, 4)
        bq = bin_query(triangle_query, lay)
        t = {"x1#1": 1, "x1#2": 1}
        assert any(filter_relation(r, t).is_empty() for r in bq.relations)
        _, stats = run_bin(triangle_query)
        pc = [1] + prefix_counts(bq, lay.bin_order)
        assert stats.per_depth_calls == [1] + [2 * c for c in pc[:-1]]

    @pytest.mark.parametrize("x_last", [False, True])
    @pytest.mark.parametrize("holds_c", [False, True])
    @pytest.mark.parametrize("c", [0b1010, 0b1011])
    def test_forced_path(self, c, holds_c, x_last):
        # R holds the single code c of x. S's codes of x share with c a bit
        # prefix of each length 0..b-1 (c with bit j flipped) and, if holds_c,
        # include c. The longest shared prefix is with the next code above
        # c = 1010 and with the next code below c = 1011.
        b, y = 4, 0b0101
        flips = [c ^ (1 << (b - 1 - j)) for j in range(b)]
        if x_last:
            order, s = ("y", "x"), (("y", "x"), [(y, x) for x in flips + [c] * holds_c])
        else:
            # Only c's row holds y, so x = c's range must end before c + 1.
            order, s = ("x", "y"), (("x", "y"), [(x, y + 1) for x in flips] + [(c, y)] * holds_c)
        q = coded_query(order, [(("x",), [(c,)]), s], 1 << b)
        out, stats = run_bin(q)
        assert out == ([(y, c) if x_last else (c, y)] if holds_c else [])
        # x follows c for b - 1 levels; both children of its last bit are
        # inconsistent unless S holds c. y's single code 0101 is followed
        # to its last bit wherever y is reached.
        if x_last or holds_c:
            assert stats.per_depth_calls == [1] + [2] * (2 * b)
        else:
            assert stats.per_depth_calls == [1] + [2] * b + [0] * b
        assert stats.consistent_calls == (2 * b + 1 if holds_c else 2 * b if x_last else b)
        lay = make_layout(order, q.domain_size)
        pc = [1] + prefix_counts(bin_query(q, lay), lay.bin_order)
        assert stats.per_depth_calls == [1] + [2 * n for n in pc[:-1]]
        assert stats.consistent_calls == sum(pc)
        ref_out, ref_stats = reference_join(q, order)
        assert out == ref_out
        assert stats.as_dict() == ref_stats.as_dict()

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


class TestOrderRule:
    """One order rule for join, sample and the estimators: explicit, else the
    query's own order where the constraints allow it, else a compatible one."""

    # Headers y,x and x,z: first appearance is y,x,z, name order x,y,z.
    UNSORTED = [("R", ("y", "x"), [["0", "1"], ["1", "1"]]), ("S", ("x", "z"), [["1", "2"]])]

    def test_join_and_sample_write_the_first_appearance_header(self, tmp_path):
        spec = {"relations": {}}
        for name, header, rows in self.UNSORTED:
            (tmp_path / f"{name}.csv").write_text(
                "\n".join(",".join(r) for r in [header, *rows]) + "\n"
            )
            spec["relations"][name] = {"path": f"{name}.csv"}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        headers = []
        for command in ("join", "sample"):
            out = tmp_path / f"{command}.csv"
            assert main([command, str(tmp_path / "spec.json"), "--output", str(out)]) == 0
            headers.append(out.read_text().splitlines()[0])
        assert headers == ["y,x,z", "y,x,z"]

    def test_sampler_and_estimator_keep_the_query_order(self):
        q = encode_instance(self.UNSORTED, ("y", "x", "z"))
        assert Sampler(q).order == build_agm_context(q).order == q.order

    def test_a_compatible_order_is_kept_under_degree_constraints(self):
        # x1 must precede x3. Name order would also pick x1 first; the
        # query's own order x2,x1,x3 is compatible and stays.
        q = encode_instance(TRIANGLE_TABLES, ("x2", "x1", "x3"))
        e1, e2, e3 = (frozenset(rel.variables) for rel in q.relations)
        cs = ConstraintSet(
            frozenset(q.order), (e1, e2, e3), (DegreeConstraint(frozenset({"x1"}), e3, 2, e3),)
        )
        assert resolve_order(q, cs, None) == ("x2", "x1", "x3")
        out, _ = run_bin(q, cs)
        assert out == sorted(nested_loop_join(q))


class TestNonPermutationOrder:
    """Every entry point refuses an order that is not a permutation of the
    query's variables with the same plain ValueError, constraints or not."""

    @pytest.mark.parametrize("order", [("x1", "x2"), ("x1", "x2", "x3", "x1"), ("x1", "x2", "x9")])
    def test_every_entry_point_raises_the_same_error(self, triangle_query, order):
        q = triangle_query
        cs = ConstraintSet(
            frozenset(q.order),
            tuple(frozenset(rel.variables) for rel in q.relations),
            (functional_dependency({"x3"}, "x1", frozenset({"x1", "x3"})),),
        )
        entry_points = (
            lambda: wcj(q, lambda t: None, order),
            lambda: wcj_binarised(q, lambda t: None, None, order),
            lambda: wcj_binarised(q, lambda t: None, cs, order),
            lambda: build_agm_context(q, order=order),
            lambda: Sampler(q, order=order),
            lambda: Sampler(q, cs, order=order),
        )
        for call in entry_points:
            with pytest.raises(ValueError, match="permutation") as exc:
                call()
            assert not isinstance(exc.value, IncompatibleOrderError)

    def test_a_query_order_repeats_no_variable(self):
        with pytest.raises(ValueError, match="duplicate variable in order"):
            encode_instance(TRIANGLE_TABLES, ("x1", "x2", "x3", "x1"))
        rel = Relation(("x1",), frozenset({(0,)}))
        with pytest.raises(ValueError, match="duplicate variable in order"):
            JoinQuery(("x1", "x1"), (rel,), 1, Dictionary({"0": 0}, ("0",)))


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


class TestBisectBound:
    """The bit search's work stays within the paper's bound: each code it
    scans is a consistent leaf or an inconsistent child, and costs at most
    two bisects per column on its variable."""

    @staticmethod
    def bisects_and_calls(monkeypatch, q, order=None):
        count = 0

        def counting_bisect(*args):
            nonlocal count
            count += 1
            return bisect_left(*args)

        monkeypatch.setattr(enumerator, "bisect_left", counting_bisect)
        _, stats = run_bin(q, None, order)
        monkeypatch.undo()
        # C: the most relations sharing one variable.
        columns = max(sum(v in rel.variables for rel in q.relations) for v in q.order)
        return count, columns, stats.recursive_calls

    def test_random_queries(self, monkeypatch):
        rng = random.Random(41)
        for i in range(300):
            q = random_query(rng, max_vars=5, max_domain=40) if i % 2 else random_query(rng)
            order = rng.sample(q.order, len(q.order))
            count, columns, calls = self.bisects_and_calls(monkeypatch, q, order)
            assert count <= 2 * columns * calls

    @staticmethod
    def bisects_per_code(monkeypatch, q, order=None):
        """Per code the bit search reads: whether a settled last variable's scan
        read it, the columns on its variable, and the bisects charged to it by
        column. A line tracer spots where `_seek_search` reads the next code of
        its scanned column, or of a settled last variable's (on two columns); a
        bisect is charged to the code read last."""
        lines, first = inspect.getsourcelines(enumerator._seek_search)
        where = {line.strip(): first + i for i, line in enumerate(lines)}
        read, settled = where["a = col_s[pos]"], where["b = lcol[lpos]"]
        scan = enumerator._seek_search.__code__
        codes = []

        def trace_lines(frame, event, arg):
            if event == "line" and frame.f_lineno == read:
                codes.append((False, len(frame.f_locals["aff"]), Counter()))
            elif event == "line" and frame.f_lineno == settled:
                codes.append((True, 2, Counter()))
            return trace_lines

        def counting_bisect(col, *args):
            codes[-1][2][id(col)] += 1
            return bisect_left(col, *args)

        monkeypatch.setattr(enumerator, "bisect_left", counting_bisect)
        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: trace_lines if frame.f_code is scan else None)
        try:
            run_bin(q, None, order)
        finally:
            sys.settrace(previous)
            monkeypatch.undo()
        return codes

    def test_each_scanned_code_costs_at_most_two_bisects_per_column(self, monkeypatch):
        rng = random.Random(43)
        most = 0
        for i in range(100):
            q = random_query(rng, max_vars=5, max_domain=40) if i % 2 else random_query(rng)
            order = rng.sample(q.order, len(q.order))
            for _, columns, bisects in self.bisects_per_code(monkeypatch, q, order):
                assert len(bisects) <= columns
                most = max(most, *bisects.values(), 0)
        # A generic leaf: a seek, then a again in each other column. Its rows
        # end at its run length, with no bisect for a + 1.
        assert most == 2

    def test_disjoint_halves_take_one_seek(self, monkeypatch):
        # R holds the low half of 2^12 codes and S the high half: the first
        # bit refutes both children, and one seek passes all of R.
        half = 1 << 11
        low = (("x",), [(c,) for c in range(half)])
        high = (("x",), [(half + c,) for c in range(half)])
        q = coded_query(("x",), [low, high], 2 * half)
        count, columns, calls = self.bisects_and_calls(monkeypatch, q)
        assert (count, columns, calls) == (2, 2, 3)


def two_predecessor_path(n_vars, domain, seed):
    """Coded tables of a path R1(x1, x2), ..., where each value of x2 .. x(n) has
    two predecessors, so the subtree below each value is reached repeatedly."""
    rng = random.Random(seed)
    return [
        ((f"x{i}", f"x{i + 1}"), [(s, v) for v in range(domain) for s in rng.sample(range(domain), 2)])
        for i in range(1, n_vars)
    ]


def key_sizes(q, order):
    """How many stacks key each variable's cached subtree; None where none is cached."""
    cur = Cursors(q.relations, order, q.domain_size, True)
    keys = enumerator._cache_keys(cur.affected[:: cur.per_var])
    return [None if ks is None else len(ks) for ks in keys]


class TestSubtreeCache:
    """The bit search caches a variable's subtree under the rows it reads and
    replays it. Answers, their order and every counter must stay those of the
    uncached search: wcj over `bin_query`'s copy."""

    @staticmethod
    def assert_matches_reference(monkeypatch, q, order):
        replays = 0
        replay = enumerator._replay

        def counting_replay(*args):
            nonlocal replays
            replays += 1
            replay(*args)

        monkeypatch.setattr(enumerator, "_replay", counting_replay)
        out, stats = run_bin(q, None, order)
        monkeypatch.undo()
        ref_out, ref_stats = reference_join(q, order)
        assert out == ref_out  # the same answers, in the same order
        # per_depth_calls, consistent_calls, recursive_calls, answers_emitted
        assert stats.as_dict() == ref_stats.as_dict()
        return replays

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_path_where_every_value_has_two_predecessors(self, monkeypatch, seed):
        tables = two_predecessor_path(5, 12, seed)
        order = tuple(f"x{i}" for i in range(1, 6))
        q = coded_query(order, tables, 12)
        assert self.assert_matches_reference(monkeypatch, q, order) > 0

    def test_cross_product_shares_one_subtree(self, monkeypatch):
        # x2's subtree reads no relation bound above it: its key is empty,
        # and every x1 after the first replays it. x3's key is S's rows of x2.
        r = (("x1",), [(c,) for c in (0, 2, 3, 5, 7)])
        s = (("x2", "x3"), [(0, 1), (0, 6), (3, 3), (4, 0), (4, 7), (6, 2)])
        order = ("x1", "x2", "x3")
        q = coded_query(order, [r, s], 8)
        assert key_sizes(q, order) == [None, 0, 1]
        assert self.assert_matches_reference(monkeypatch, q, order) == 4

    def test_cached_variables_are_a_suffix(self):
        # The search caches every variable from the first cached one down
        # (`_cache_keys`), and looks up a key at each of them.
        rng = random.Random(30)
        cached = 0
        for _ in range(3000):
            q = random_query(rng)
            sizes = key_sizes(q, tuple(rng.sample(q.order, len(q.order))))
            first = next((i for i, n in enumerate(sizes) if n is not None), len(sizes))
            assert None not in sizes[first:], sizes
            cached += first < len(sizes)
        assert cached > 500

    @pytest.mark.parametrize("seed", [4, 5])
    def test_four_cycle_keys_x4_by_two_stacks(self, monkeypatch, seed):
        # x4's subtree reads T's rows of x3 and U's rows of x1, not x2. S
        # sends the six values of x2 to three of x3, so the pair (x1, x3)
        # repeats across x2.
        rng = random.Random(seed)
        pairs = [(a, b) for a in range(6) for b in range(6)]
        r, t, u = (sorted(rng.sample(pairs, 24)) for _ in range(3))
        s = [(b, b % 3) for b in range(6)] + [(b, rng.randrange(6)) for b in range(0, 6, 2)]
        order = ("x1", "x2", "x3", "x4")
        q = coded_query(order, [(("x1", "x2"), r), (("x2", "x3"), s), (("x3", "x4"), t),
                                (("x4", "x1"), u)], 6)
        assert key_sizes(q, order) == [None, None, None, 2]
        assert self.assert_matches_reference(monkeypatch, q, order) > 0

    def test_a_shared_subtree_is_searched_once(self, monkeypatch):
        # m prefixes (x1, 0) reach x2 = 0, below which S and T hold a subtree
        # of 64 leaves. Searched m times, it would cost m times its bisects.
        def bisects(m):
            r = (("x1", "x2"), [(c, 0) for c in range(m)])
            s = (("x2", "x3"), [(0, c) for c in range(0, 256, 4)])
            t = (("x3", "x4"), [(c, c + 1) for c in range(0, 256, 4)])
            q = coded_query(("x1", "x2", "x3", "x4"), [r, s, t], 256)
            count, _, _ = TestBisectBound.bisects_and_calls(monkeypatch, q)
            return count

        once = bisects(1)
        assert once >= 64  # each of the 64 leaves costs one lookup in the other column
        for m in (2, 8, 32):
            assert bisects(m) <= once + 4 * (m - 1)


def last_columns(q, order):
    """How many narrowed columns the last variable's scan reads."""
    cur = Cursors(q.relations, order, q.domain_size, True)
    return len(cur.affected[:: cur.per_var][-1])


class TestLastVariable:
    """The last variable's consistent leaves are the answers, emitted and, in
    a recorded visit, appended to the entry; on two columns and uncached, it
    is settled at its parent's leaves (TestSettledLastVariable). Answers,
    their order and every counter must stay those of the uncached search:
    wcj over `bin_query`'s copy."""

    @staticmethod
    def run_and_compare(monkeypatch, q, order, spy_bisect=None):
        """Compare both searches; for each replay, whether it started at the last variable."""
        replays = []
        replay = enumerator._replay

        def counting_replay(entry, i, last, *rest):
            replays.append(i == last)
            replay(entry, i, last, *rest)

        monkeypatch.setattr(enumerator, "_replay", counting_replay)
        if spy_bisect is not None:
            monkeypatch.setattr(enumerator, "bisect_left", spy_bisect)
        out, stats = run_bin(q, None, order)
        monkeypatch.undo()
        ref_out, ref_stats = reference_join(q, order)
        assert out == ref_out  # the same answers, in the same order
        assert stats.as_dict() == ref_stats.as_dict()
        assert out  # every instance here has answers
        return replays

    @pytest.mark.parametrize("relations", [1, 2])
    def test_one_variable_query_is_settled_at_the_root(self, monkeypatch, relations):
        # The root's scan is the last variable's: every leaf is an answer.
        r = (("x",), [(c,) for c in (1, 4, 5, 11, 12)])
        s = (("x",), [(c,) for c in (0, 4, 11, 13)])
        q = coded_query(("x",), [r, s][:relations], 16)
        assert last_columns(q, ("x",)) == relations
        assert self.run_and_compare(monkeypatch, q, ("x",)) == []

    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_last_variable_on_one_two_and_three_columns(self, monkeypatch, columns):
        # x3 ends R; S and T add its second and third column, so its scan
        # takes the generic loop, is settled at x2's leaves (R and S hold x1
        # and x2), then takes the generic loop.
        rng = random.Random(8)
        r = (("x1", "x2", "x3"), {(rng.randrange(8), rng.randrange(8), rng.randrange(32))
                                  for _ in range(60)})
        s = (("x2", "x3"), {(rng.randrange(8), rng.randrange(32)) for _ in range(80)})
        t = (("x3",), {(rng.randrange(32),) for _ in range(24)})
        order = ("x1", "x2", "x3")
        q = coded_query(order, [r, s, t][:columns], 32)
        assert last_columns(q, order) == columns
        self.run_and_compare(monkeypatch, q, order)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_cached_last_variable_replays_its_recorded_leaves(self, monkeypatch, seed):
        # Every x2 has two predecessors, so x3's entry, keyed by R2's rows of
        # x2, records the leaves of its first visit, and the second replays them.
        order = ("x1", "x2", "x3")
        q = coded_query(order, two_predecessor_path(3, 12, seed), 12)
        assert key_sizes(q, order) == [None, None, 1]
        assert last_columns(q, order) == 1
        replays = self.run_and_compare(monkeypatch, q, order)
        assert any(replays) and all(replays)

    @pytest.mark.parametrize("order", [("x1", "x2"), ("x2", "x1")])
    def test_two_column_scan_past_both_ends_of_the_other_column(self, monkeypatch, order):
        # x2's smallest column is R's, codes 1, 7 and 12: 1 falls before S's
        # first row (q == lo) and 12 past its last (q == hi). x2 is the last
        # variable in order (x1, x2), settled at the root's leaves, and the
        # first in (x2, x1).
        s_codes = [5, 6, 7, 8, 9]
        r = (("x1", "x2"), [(0, 1), (0, 7), (0, 12)])
        q = coded_query(order, [r, (("x2",), [(c,) for c in s_codes])], 16)
        outside = set()

        def spy_bisect(col, x, lo=0, hi=None):
            q = bisect_left(col, x, lo, len(col) if hi is None else hi)
            if col == s_codes and q in (lo, hi):
                outside.add((x, "lo" if q == lo else "hi"))
            return q

        self.run_and_compare(monkeypatch, q, order, spy_bisect)
        assert {(1, "lo"), (12, "hi")} <= outside
        assert last_columns(q, order) == (2 if order[-1] == "x2" else 1)


def random_triangle(seed, domain, rows):
    """A coded triangle R(x1,x2) S(x2,x3) T(x1,x3), each relation `rows` distinct random pairs."""
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(domain) for b in range(domain)]
    edges = (("x1", "x2"), ("x2", "x3"), ("x1", "x3"))
    return coded_query(("x1", "x2", "x3"), [(vs, rng.sample(pairs, rows)) for vs in edges], domain)


class TestSettledLastVariable:
    """An uncached last variable on two columns is settled at its parent's
    leaves, with no node of its own. Answers, their order and every counter
    must stay those of wcj over `bin_query`'s copy, and its scan does the
    two-column kernel's work."""

    @staticmethod
    def compare(monkeypatch, q, order):
        """Check that the settle reads codes, compare both searches and return the answers."""
        reads = TestBisectBound.bisects_per_code(monkeypatch, q, order)
        assert any(settled for settled, _, _ in reads)
        assert TestLastVariable.run_and_compare(monkeypatch, q, order) == []  # nothing cached
        return run_bin(q, None, order)[0]

    @pytest.mark.parametrize("domain, rows", [(32, 100), (8, 40)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_triangle_in_every_order(self, monkeypatch, seed, domain, rows):
        q = random_triangle(seed, domain, rows)
        for order in itertools.permutations(q.order):
            out = self.compare(monkeypatch, q, order)
            if domain == 8:  # dense: some leaves of the parent hold several answers
                assert max(Counter(t[:-1] for t in out).values()) > 1

    def test_last_relations_hold_every_earlier_variable(self, monkeypatch):
        # x4 lies on S and T, which hold x3 and x1, x2: x4 is uncached. T's
        # range is fixed over x3's nodes; S's is x3's leaf rows.
        rng = random.Random(3)
        triples = [(a, b, c) for a in range(6) for b in range(6) for c in range(6)]
        r = (("x1", "x2", "x3"), rng.sample(triples, 120))
        s = (("x3", "x4"), rng.sample([(c, d) for c in range(6) for d in range(6)], 24))
        t = (("x1", "x2", "x4"), rng.sample(triples, 120))
        order = ("x1", "x2", "x3", "x4")
        self.compare(monkeypatch, coded_query(order, [r, s, t], 6), order)

    @pytest.mark.parametrize("unary", [False, True])
    def test_parent_on_two_and_three_columns(self, monkeypatch, unary):
        # U(x2) puts x2 on three columns, so its nodes take the generic scan
        # and a leaf seeks S's rows of its code for x3.
        q = random_triangle(4, 16, 90)
        if unary:
            u = (("x2",), [(c,) for c in range(0, 16, 2)])
            q = coded_query(q.order, [(r.variables, r.rows) for r in q.relations] + [u], 16)
        order = ("x1", "x2", "x3")
        cur = Cursors(q.relations, order, q.domain_size, True)
        assert len(cur.affected[cur.per_var]) == (3 if unary else 2)
        self.compare(monkeypatch, q, order)

    @pytest.mark.parametrize("second", [("x1", "x2"), ("x2",)])
    def test_two_variable_query_settles_at_the_root(self, monkeypatch, second):
        # The root's leaves settle x2, from R's rows of x1 and S's rows of x1
        # or all of S's rows.
        rng = random.Random(5)
        pairs = [(a, b) for a in range(16) for b in range(16)]
        r = (("x1", "x2"), rng.sample(pairs, 120))
        s = (second, rng.sample(pairs, 120) if len(second) == 2 else [(c,) for c in range(1, 16, 3)])
        order = ("x1", "x2")
        self.compare(monkeypatch, coded_query(order, [r, s], 16), order)

    def test_random_queries_under_random_orders(self, monkeypatch):
        rng = random.Random(47)
        settled = 0
        for i in range(400):
            q = random_query(rng, max_vars=5, max_domain=20) if i % 2 else random_query(rng)
            order = rng.sample(q.order, len(q.order))
            reads = TestBisectBound.bisects_per_code(monkeypatch, q, order)
            settled += any(s for s, _, _ in reads)
            assert_same_join(q, order)
        assert settled > 40

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_settle_does_the_two_column_kernels_work(self, monkeypatch, seed):
        # With a unary U(x4) after it, x3 is no longer last: its nodes are
        # entered and scanned by the two-column kernel, and x4, cached with
        # an empty key, costs no bisect. The settle seeks exactly as often.
        rng = random.Random(seed)
        q = random_triangle(seed, 8, 40)
        tables = [(r.variables, r.rows) for r in q.relations]
        for _ in range(6):
            order = tuple(rng.sample(q.order, 3))
            with_u = coded_query(order + ("x4",), tables + [(("x4",), [(5,)])], 8)
            out, _ = run_bin(q, None, order)
            out_u, _ = run_bin(with_u, None, order + ("x4",))
            assert out_u == [t + (5,) for t in out]
            count, _, _ = TestBisectBound.bisects_and_calls(monkeypatch, q, order)
            count_u, _, _ = TestBisectBound.bisects_and_calls(monkeypatch, with_u, order + ("x4",))
            assert count == count_u


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


class TestZeroVariableQuery:
    """A query whose only relation is nullary: its one answer is (), if it holds ()."""

    def nullary(self, rows):
        return JoinQuery((), (Relation((), frozenset(rows)),), 0, Dictionary({}, ()))

    def test_holding_the_empty_tuple(self):
        q = self.nullary({()})
        for search in (run, run_bin):
            out, stats = search(q)
            assert out == [()]
            assert (stats.recursive_calls, stats.consistent_calls, stats.answers_emitted,
                    stats.per_depth_calls) == (1, 1, 1, [1])
        assert nested_loop_join(q) == {()}
        assert Sampler(q).sample(1, random.Random(0))[0] == [()]

    def test_empty(self):
        q = self.nullary(set())
        for search in (run, run_bin):
            out, stats = search(q)
            assert out == []
            assert (stats.recursive_calls, stats.consistent_calls, stats.answers_emitted,
                    stats.per_depth_calls) == (1, 0, 0, [1])
        assert nested_loop_join(q) == set()
        with pytest.raises(EmptyAnswerSetError):
            Sampler(q).sample(1, random.Random(0))
