"""Sorted relations and the cursor engine's moves."""
import random

import pytest

from wcjoin.binary import bin_query, bin_value, bit_width
from wcjoin.core import Relation, filter_relation, rows_at
from wcjoin.estimators import build_agm_context
from wcjoin.index import Cursors, build, seek
from wcjoin.sampler import ValueStore

from conftest import TRIANGLE_ORDER, random_query


def count(stack):
    lo, hi = stack[-1]
    return hi - lo


def columns(cur):
    """The columns each level narrows, level by level."""
    return [[col for col, _ in aff] for aff in cur.affected]


def built(rel, order):
    """`build`'s columns, each with its run lengths at the rows that start a run:
    the first row, and each row that differs from the one above on the column
    or an earlier one."""
    result, out = build(rel, order), []
    for c, (col, runs) in enumerate(result):
        earlier = [e for e, _ in result[: c + 1]]
        starts = [i for i in range(len(col)) if not i or any(e[i] != e[i - 1] for e in earlier)]
        out.append((col, {i: runs[i] for i in starts}))
    return out


class TestBuild:
    def test_triangle_relation_sorted(self, triangle_query):
        r = triangle_query.relations[0]
        # Rows (0, 0), (1, 0), (1, 1), (2, 1): code 1 leads a run of two.
        assert built(r, TRIANGLE_ORDER) == [
            ([0, 1, 1, 2], {0: 1, 1: 2, 3: 1}),
            ([0, 0, 1, 1], {0: 1, 1: 1, 2: 1, 3: 1}),
        ]
        cur = Cursors([r], TRIANGLE_ORDER, 4, bits=False)
        assert columns(cur) == [[[0, 1, 1, 2]], [[0, 0, 1, 1]], []]

    def test_columns_permuted_to_global_order(self):
        r = Relation(("x3", "x1"), frozenset({(5, 0), (2, 1)}))
        assert built(r, ("x1", "x2", "x3")) == [([0, 1], {0: 1, 1: 1}), ([5, 2], {0: 1, 1: 1})]
        cur = Cursors([r], ("x1", "x2", "x3"), 6, bits=False)
        assert columns(cur) == [[[0, 1]], [], [[5, 2]]]

    def test_variable_outside_the_order(self):
        with pytest.raises(ValueError):
            build(Relation(("x9",), frozenset({(0,)})), ("x1",))

    def test_empty_relation(self):
        assert built(Relation(("x1",), frozenset()), ("x1",)) == [([], {})]
        cur = Cursors([Relation(("x1",), frozenset())], ("x1",), 4, bits=False)
        assert cur.stacks == [[(0, 0)]]
        assert columns(cur) == [[[]]]  # one empty column per variable
        cur.bind(3)
        assert count(cur.stacks[0]) == 0

    def test_columns_and_runs_against_the_sorted_rows(self):
        # Each column is the matching column of the relation's rows permuted
        # to the order and sorted. At each row that starts a run, the run
        # length counts the rows from there on that agree with it on the
        # column and every earlier one.
        rng = random.Random(12)
        seen = set()
        for _ in range(300):
            q = random_query(rng)
            order = tuple(rng.sample(q.order, len(q.order)))
            for r in q.relations:
                perm = sorted(range(len(r.variables)), key=lambda i: order.index(r.variables[i]))
                rows = sorted(rows_at(r.rows, perm))
                result = build(r, order)
                assert len(result) == len(perm)
                for c, (col, runs) in enumerate(result):
                    assert col == [row[c] for row in rows]
                    assert len(runs) == len(rows)
                    for i, row in enumerate(rows):
                        if i and rows[i - 1][: c + 1] == row[: c + 1]:
                            continue  # not the first row of its run
                        j = i
                        while j < len(rows) and rows[j][: c + 1] == row[: c + 1]:
                            j += 1
                        assert runs[i] == j - i, (r, order, c, i)
                seen.add((len(perm), min(len(rows), 2)))
        # Every arity from 1 to 4, each seen empty, with one row and with more.
        assert seen == {(arity, size) for arity in range(1, 5) for size in range(3)}


class TestNarrow:
    def test_triangle_narrowing(self, triangle_query):
        r = triangle_query.relations[0]  # (x1, x2): (0,0) (1,0) (1,1) (2,1)
        cur = Cursors([r], TRIANGLE_ORDER, 4, bits=False)
        (stack,) = cur.stacks
        assert (cur.levels, cur.fanout) == (3, 4)
        assert stack == [(0, 4)]
        cur.bind(1)
        assert stack[-1] == (1, 3)
        cur.bind(0)
        assert stack[-1] == (1, 2)
        cur.unbind()
        cur.bind(2)
        assert count(stack) == 0
        cur.unbind()
        cur.unbind()
        cur.bind(3)
        assert count(stack) == 0
        cur.unbind()
        assert stack == [(0, 4)] and cur.depth == 0

    def test_triangle_bit_narrowing(self, triangle_query):
        # Two bits per variable: x1's top bit 0 keeps codes [0, 2), then its
        # low bit 1 keeps code 1.
        r = triangle_query.relations[0]
        cur = Cursors([r], TRIANGLE_ORDER, 4, bits=True)
        (stack,) = cur.stacks
        assert (cur.levels, cur.fanout) == (6, 2)
        cur.bind(0)
        assert stack[-1] == (0, 3)
        cur.bind(1)
        assert stack[-1] == (1, 3)
        cur.bind(1)  # x2 in [2, 4): none
        assert count(stack) == 0

    def test_empty_cursor_stays_empty(self, triangle_query):
        cur = Cursors(triangle_query.relations[:1], TRIANGLE_ORDER, 4, bits=False)
        cur.bind(3)
        cur.bind(0)
        assert count(cur.stacks[0]) == 0

    def test_counts_partition_the_parent_range(self):
        rng = random.Random(5)
        for bits in [False, True] * 50:
            q = random_query(rng)
            cur = Cursors(q.relations, q.order, q.domain_size, bits)
            while cur.depth < cur.levels:
                affected = {id(st) for _, st in cur.affected[cur.depth]}
                parents = [count(st) for st in cur.stacks]
                children = []
                for d in range(cur.fanout):
                    cur.bind(d)
                    children.append([count(st) for st in cur.stacks])
                    cur.unbind()
                for i, st in enumerate(cur.stacks):
                    got = [child[i] for child in children]
                    if id(st) in affected:
                        assert sum(got) == parents[i]
                    else:
                        assert got == [parents[i]] * cur.fanout
                live = [d for d, child in enumerate(children) if all(child)]
                if not live:
                    break
                cur.bind(rng.choice(live))

    def test_cursor_agrees_with_filter(self):
        rng = random.Random(9)
        for bits in [False, True] * 100:
            q = random_query(rng)
            r = rng.choice(q.relations)
            cur = Cursors([r], q.order, q.domain_size, bits)
            b = bit_width(q.domain_size)
            t = {}
            for v in q.order:
                code = rng.randrange(q.domain_size or 1)
                for bit in bin_value(code, b) if bits else (code,):
                    cur.bind(bit)
                t[v] = code
                assert count(cur.stacks[0]) == filter_relation(r, t).size


class TestPrefixCodes:
    """`prefix_codes` is the one code reader, and `bind_prefix` is `bind` level by level."""

    @staticmethod
    def codes(prefix, per_var):
        """The code of every variable the prefix binds fully, MSB first."""
        out = []
        for first in range(0, len(prefix) // per_var * per_var, per_var):
            code = 0
            for d in prefix[first : first + per_var]:
                code = code * 2 + d  # at plain levels, one level: the code is d
            out.append(code)
        return tuple(out)

    def test_worked_triangle(self, triangle_query):
        cur = Cursors(triangle_query.relations, TRIANGLE_ORDER, 4, bits=True)
        assert cur.prefix_codes([0, 1]) == (1,)
        assert cur.prefix_codes([0, 1, 0]) == (1,)
        cur.bind_prefix([0, 1, 0, 0, 1, 1])
        assert cur.prefix_codes([0, 1, 0, 0, 1, 1]) == (1, 0, 3)

    def test_random_prefixes_of_every_length(self):
        rng = random.Random(13)
        prefixes = 0
        for bits in [False, True] * 100:
            q = random_query(rng)
            cur = Cursors(q.relations, q.order, q.domain_size, bits)
            assert cur.prefix_codes([]) == ()
            for length in range(1, cur.levels + 1):
                prefix = [rng.randrange(cur.fanout) for _ in range(length)]
                expected = self.codes(prefix, cur.per_var)
                assert cur.prefix_codes(prefix) == expected
                for d in prefix:
                    cur.bind(d)
                walked = [st[-1] for st in cur.stacks]
                cur.reset()
                cur.bind_prefix(prefix)
                assert cur.depth == length
                assert cur.prefix_codes(prefix) == expected
                assert [st[-1] for st in cur.stacks] == walked
                cur.reset()
                prefixes += 1
        assert prefixes > 500


class TestSplit:
    """A two-way node splits into its children by `bind(0)` and `bind(1)`."""

    @staticmethod
    def state(cur):
        return [list(st) for st in cur.stacks], cur.depth

    @staticmethod
    def top(cur):
        return [st[-1] for st in cur.stacks], cur.depth

    @staticmethod
    def live(cur):
        return all(lo < hi for lo, hi in (st[-1] for _, st in cur.affected[cur.depth - 1]))

    def check_walks(self, make_cursors):
        # At every node of random root-to-leaf walks, consistent or not,
        # bind(d) pushes one range on each stack the level narrows and on no
        # other, unbind returns to the node, and the two children's ranges
        # split the node's: child 0 keeps its start, child 1 its end. Both
        # reach the top ranges that bind_prefix cuts from the root, and so
        # does bind(d) straight after bind_prefix.
        rng = random.Random(11)
        nodes = 0
        for _ in range(150):
            q = random_query(rng, max_domain=40, max_tuples=30)
            cur, ref = make_cursors(q), make_cursors(q)
            assert cur.fanout == 2
            prefix = []
            while cur.depth < cur.levels:
                node, depth = self.state(cur)
                narrowed = [any(st is s for _, s in cur.affected[depth]) for st in cur.stacks]
                tops, live = [], []
                for d in range(2):
                    cur.bind(d)
                    child = self.state(cur)
                    assert child[1] == depth + 1
                    for before, after, cut in zip(node, child[0], narrowed):
                        assert (after[:-1] if cut else after) == before
                    tops.append(self.top(cur))
                    live.append(self.live(cur))
                    cur.unbind()
                    assert self.state(cur) == (node, depth)
                    ref.reset()
                    ref.bind_prefix(prefix + [d])
                    assert self.top(ref) == tops[d]
                    ref.reset()
                    ref.bind_prefix(prefix)
                    ref.bind(d)
                    assert self.top(ref) == tops[d]
                for st, cut, child0, child1 in zip(node, narrowed, tops[0][0], tops[1][0]):
                    if cut:
                        (lo, hi), (lo0, mid0), (mid1, hi1) = st[-1], child0, child1
                        assert lo == lo0 and mid0 == mid1 and hi1 == hi
                nodes += 1
                ok = [d for d in range(2) if live[d]]
                d = rng.choice(ok) if ok and rng.random() < 0.9 else rng.randrange(2)
                prefix.append(d)
                cur.bind(d)
        assert nodes > 1000

    def test_split_is_bind_at_bit_levels(self):
        self.check_walks(lambda q: Cursors(q.relations, q.order, q.domain_size, bits=True))

    def test_split_is_bind_on_bin_query_copies(self):
        def plain_over_bits(q):
            bq = bin_query(q)
            return Cursors(bq.relations, bq.order, bq.domain_size, bits=False)

        self.check_walks(plain_over_bits)

    def test_midpoint_read_past_an_empty_first_column(self):
        # Under x1 = 0 and x2's top bit 1, r's range is empty and points at
        # row (1, 0), whose x2 code 0 is outside [2, 4); s's range holds 2, 3.
        r = Relation(("x1", "x2"), frozenset({(0, 0), (1, 0)}))
        s = Relation(("x2",), frozenset({(2,), (3,)}))
        cur = Cursors([r, s], ("x1", "x2"), 4, bits=True)
        ref = Cursors([r, s], ("x1", "x2"), 4, bits=True)
        cur.bind_prefix([0, 0, 1])
        assert [st[-1] for st in cur.stacks] == [(1, 1), (0, 2)]
        for d in range(2):
            cur.bind(d)
            ref.reset()
            ref.bind_prefix([0, 0, 1, d])
            assert not self.live(cur)
            assert self.top(cur) == self.top(ref)
            assert cur.stacks[1][-1] == [(0, 1), (1, 2)][d]
            cur.unbind()

    def test_sampler_rejects_contexts_that_are_not_two_way(self, triangle_query):
        ctx = build_agm_context(triangle_query)  # one level per variable, 4 values
        assert ctx.fanout == 4
        with pytest.raises(ValueError):
            ValueStore(ctx)


class TestSeek:
    def test_against_every_prefix(self):
        # miss is k minus the longest prefix of a that some code in the range
        # holds; q is where a's rows start.
        rng = random.Random(5)
        k = 4
        for _ in range(300):
            col = sorted(rng.choices(range(1 << k), k=rng.randrange(0, 8)))
            lo = rng.randrange(0, len(col) + 1)
            hi = rng.randrange(lo, len(col) + 1)
            a = rng.randrange(1 << k)
            held = [p for p in range(k + 1) if any(x >> (k - p) == a >> (k - p) for x in col[lo:hi])]
            assert seek(col, a, lo, hi, k) == (
                next((i for i in range(lo, hi) if col[i] >= a), hi), k - max(held, default=0)
            )
