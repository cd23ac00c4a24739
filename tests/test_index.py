"""Sorted-array indexes and the cursor engine's narrowing."""
import random

from wcjoin.binary import bin_value, bit_width
from wcjoin.core import Relation, filter_relation
from wcjoin.index import Cursors, build

from conftest import TRIANGLE_ORDER, random_query


def count(stack):
    lo, hi = stack[-1]
    return hi - lo


class TestBuild:
    def test_triangle_relation_sorted(self, triangle_query):
        sr = build(triangle_query.relations[0], TRIANGLE_ORDER)
        assert sr.variables == ("x1", "x2")
        assert sr.rows == [(0, 0), (1, 0), (1, 1), (2, 1)]
        assert sr.columns == [[0, 1, 1, 2], [0, 0, 1, 1]]

    def test_columns_permuted_to_global_order(self):
        r = Relation(("x3", "x1"), frozenset({(5, 0), (2, 1)}))
        sr = build(r, ("x1", "x2", "x3"))
        assert sr.variables == ("x1", "x3")
        assert sr.rows == [(0, 5), (1, 2)]

    def test_empty_relation(self):
        sr = build(Relation(("x1",), frozenset()), ("x1",))
        assert len(sr) == 0
        cur = Cursors([Relation(("x1",), frozenset())], ("x1",), 4, bits=False)
        assert cur.stacks == [[(0, 0)]]
        cur.bind(3)
        assert count(cur.stacks[0]) == 0


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
        assert cur.codes() == (1, 0)
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
        assert cur.codes() == ()
        cur.bind(1)
        assert stack[-1] == (1, 3)
        assert cur.codes() == (1,)
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
                assert cur.codes() == tuple(t.values())
                assert count(cur.stacks[0]) == filter_relation(r, t).size
