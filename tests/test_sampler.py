"""Guided trace-tree walks: uniformity, trial counts, emptiness detection."""
import bisect
import hashlib
import itertools
import math
import random
import sys
from array import array
from collections import Counter
from fractions import Fraction

import pytest

from wcjoin import sampler as sampler_module
from wcjoin.binary import bin_query
from wcjoin.constraints import (
    ConstraintSet,
    DegreeConstraint,
    cardinality_constraints,
    functional_dependency,
)
from wcjoin.core import encode_instance
from wcjoin.enumerator import wcj_binarised
from wcjoin.estimators import (
    CoverError,
    EstimatorContext,
    FractionalCover,
    build_agm_context,
    build_pm_context,
    solve_cover_degree,
    verify_estimator,
)
from wcjoin.oracle import chi_square_uniformity, nested_loop_join
from wcjoin.sampler import (
    EmptyAnswerSetError,
    Sampler,
    ValueStore,
    WorkBudgetError,
    _refute,
    children_values,
    sample_once,
)

from conftest import (
    TRIANGLE_ANSWERS,
    TRIANGLE_TABLES,
    coded_query,
    random_degree_instance,
    random_query,
    tight_degree_instance,
)
from test_enumerator import deep_path_tables, path_join


# Answer-free although every relation is nonempty and every prefix of length
# one extends.
ANSWER_FREE_TABLES = [
    ("R", ("x1", "x2"), [["0", "1"], ["1", "0"]]),
    ("S", ("x2", "x3"), [["1", "1"], ["0", "0"]]),
    ("T", ("x1", "x3"), [["0", "0"], ["1", "1"]]),
]


def bin_ctx(query):
    return build_agm_context(bin_query(query))


def add_block(store, slot, block):
    """Store the child values of the node in `slot` as the walk does; the block's offset."""
    at = len(store.values)
    store.values.extend(block)
    store.child.extend([-1] * len(block))
    store.child[slot] = at
    return at


def stored_slots(ctx, store):
    """(prefix, stored value, fresh estimate) for every slot of the store."""
    slots = []
    pending = [((), 0)]  # (prefix, slot)
    while pending:
        prefix, slot = pending.pop()
        for d in prefix:
            ctx.bind(d)
        slots.append((prefix, store.values[slot], ctx.estimate()))
        while ctx.depth:
            ctx.unbind()
        at = store.child[slot]
        if at >= 0:
            pending.extend((prefix + (d,), at + d) for d in range(ctx.fanout))
    return slots


def check_refuted_slots(ctx, store, answers_bits):
    """A refuted slot (0 now, positive fresh estimate) prefixes no answer, every
    other slot holds its fresh estimate, and `store.refuted` counts the
    refuted ones; the refuted prefixes."""
    slots = stored_slots(ctx, store)
    assert len(slots) == len(store.values)
    refuted = []
    for prefix, stored, fresh in slots:
        if stored == 0.0 and fresh > 0.0:
            refuted.append(prefix)
            assert not any(bits[: len(prefix)] == prefix for bits in answers_bits)
        else:
            assert stored == fresh
    assert len(refuted) == store.refuted
    return refuted


class TestChildrenValues:
    def test_triangle_root_children(self, triangle_query):
        ctx = bin_ctx(triangle_query)
        store = ValueStore(ctx)
        values = children_values(ctx)
        assert len(values) == 2
        # Root value 8 splits between the x1#1 = 0 and x1#1 = 1 subtrees.
        assert sum(values) <= store.up_root + 1e-9
        assert values[0] > 0.0 and values[1] > 0.0
        # The context returns to the node; each child is one bind from it.
        assert ctx.depth == 0 and all(len(st) == 1 for st in ctx.stacks)
        assert ctx.estimate() == store.up_root
        for d in range(2):
            ctx.bind(d)
            assert ctx.depth == 1 and ctx.estimate() == values[d]
            ctx.unbind()
        at = add_block(store, 0, values)
        _refute(store, [0], at, 0, 0)  # a refuted child counts 0; the block at `at` is the root's
        assert list(store.values[at : at + 2]) == [0.0, values[1]]
        assert store.refuted == 1 and store.values[0] == store.up_root
        assert children_values(ctx) == values
        ctx.reset()

    def test_an_empty_child_is_0(self):
        # x1 takes codes 0, 1 and 2 (two bits), so below x1#1 = 1 only child 0 has rows.
        ctx = bin_ctx(encode_instance([("R", ("x1",), [["a"], ["b"], ["c"]])], ("x1",)))
        ctx.bind(0)
        values = children_values(ctx)
        assert values == [1.0, 1.0]
        ctx.reset()
        ctx.bind(1)
        values = children_values(ctx)
        assert values == [1.0, 0.0]
        assert ctx.depth == 1 and ctx.stacks == [[(0, 3), (2, 3)]]
        # Child 0 is row (1, 0) of the bit copy, which encodes "c"; child 1 has no rows.
        ctx.bind(0)
        assert ctx.stacks == [[(0, 3), (2, 3), (2, 3)]] and ctx.estimate() == 1.0
        ctx.unbind()
        ctx.bind(1)
        assert ctx.stacks == [[(0, 3), (2, 3), (3, 3)]] and ctx.estimate() == 0.0
        ctx.reset()


class TestSampleOnce:
    def test_returns_answers_with_probability_one_over_root(self, triangle_query):
        # Each specific answer must come out of a single trial with
        # probability 1 / up(root) = 1/8; check all four within 3 sigma.
        ctx = bin_ctx(triangle_query)
        rng = random.Random(101)
        store = ValueStore(ctx)
        trials = 20000
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(trials):
            out = sample_once(ctx, store, rng)
            if out is not None:
                counts[out] = counts.get(out, 0) + 1
        p = 1.0 / 8.0
        sigma = math.sqrt(trials * p * (1 - p))
        for answer in TRIANGLE_ANSWERS:
            bits = tuple(
                b for code in answer for b in ((code >> 1) & 1, code & 1)
            )
            assert abs(counts[bits] - trials * p) <= 3 * sigma

    def test_two_way_draw_at_the_bounds(self):
        # One variable, one bit: a single draw r = random() * 4 against the
        # stored children 1 and 2. Below 1 is child 0, below 1 + 2 child 1,
        # and the rest is the failure branch.
        s = Sampler(encode_instance([("R", ("x1",), [["a"], ["b"]])], ("x1",)))
        assert s.ctx.levels == 1
        s.store.values[0] = 4.0
        add_block(s.store, 0, [1.0, 2.0])

        class StubRandom:
            draws = iter([math.nextafter(0.25, 0.0), 0.25, math.nextafter(0.75, 0.0), 0.75])

            def random(self):
                return next(self.draws)

        rng = StubRandom()
        outs = [sample_once(s.ctx, s.store, rng) for _ in range(4)]
        assert outs == [(0,), (1,), (1,), None]
        assert s.ctx.depth == 0

    def test_root_zero_fails_immediately(self, triangle_query):
        ctx = bin_ctx(triangle_query)
        store = ValueStore(ctx)
        store.values[0] = 0.0  # a refuted root
        assert sample_once(ctx, store, random.Random(0)) is None
        assert ctx.depth == 0


class TestSample:
    def test_uniform_over_triangle_answers(self):
        s = Sampler(encode_instance(TRIANGLE_TABLES, ("x1", "x2", "x3")))
        answers, stats = s.sample(4000, random.Random(7))
        assert set(answers) <= TRIANGLE_ANSWERS
        assert stats.answers_returned == 4000
        report = chi_square_uniformity(answers, sorted(TRIANGLE_ANSWERS))
        assert report.passed, report
        # up(root) = 8 over 4 answers: two trials per success in expectation.
        assert stats.up_root == pytest.approx(8.0)
        assert 1.6 <= stats.mean_trials_per_success <= 2.5

    def test_trial_count_matches_geometric_prediction(self):
        rng = random.Random(103)
        checked = 0
        while checked < 8:
            q = random_query(rng, max_vars=3, max_rels=3, max_tuples=20)
            answers = nested_loop_join(q)
            if len(answers) < 2:
                continue
            s = Sampler(q)
            k = 3000
            got, stats = s.sample(k, rng)
            assert set(got) <= answers
            predicted = stats.up_root / len(answers)
            assert stats.mean_trials_per_success == pytest.approx(
                predicted, rel=0.2
            )
            checked += 1

    def test_sampling_is_with_replacement_and_iid(self, triangle_query):
        s = Sampler(triangle_query)
        answers, _ = s.sample(50, random.Random(5))
        assert len(answers) == 50
        assert len(set(answers)) > 1

    def test_empty_instance_terminates_with_zero_root(self):
        tables = [t for t in TRIANGLE_TABLES if t[0] != "T"]
        tables.append(("T", ("x1", "x3"), []))
        q = encode_instance(tables, ("x1", "x2", "x3"))
        s = Sampler(q)
        with pytest.raises(EmptyAnswerSetError) as exc:
            s.sample(1, random.Random(1), max_work=1000)
        assert exc.value.stats.final_up_root == 0.0

    def test_structurally_nonempty_but_answer_free(self):
        # Refutations must drive the root's slot to 0.
        q = encode_instance(ANSWER_FREE_TABLES, ("x1", "x2", "x3"))
        assert nested_loop_join(q) == set()
        s = Sampler(q)
        with pytest.raises(EmptyAnswerSetError) as exc:
            s.sample(1, random.Random(3), max_work=1000)
        assert exc.value.stats.final_up_root == 0.0
        assert exc.value.stats.trials >= 1

    def test_memo_entries_are_sound(self, triangle_query):
        # Every refuted prefix is a genuinely answer-free bit prefix.
        s = Sampler(bin_query(triangle_query))
        rng = random.Random(11)
        answers_bits = nested_loop_join(bin_query(triangle_query))
        _, _ = s.sample(200, rng)
        assert check_refuted_slots(s.ctx, s.store, answers_bits)  # the walk hit dead subtrees

    def test_work_budget(self, triangle_query):
        s = Sampler(triangle_query)
        with pytest.raises(WorkBudgetError) as exc:
            s.sample(10 ** 6, random.Random(2), max_work=50)
        assert exc.value.stats.trials == 50
        assert 0 < len(exc.value.answers) < 10 ** 6

    def test_seed_determinism(self, triangle_query):
        s1 = Sampler(triangle_query)
        s2 = Sampler(triangle_query)
        a1, st1 = s1.sample(100, random.Random(42))
        a2, st2 = s2.sample(100, random.Random(42))
        assert a1 == a2
        assert st1.as_dict() == st2.as_dict()

    def test_single_answer_query_never_fails(self):
        q = encode_instance([("R", ("x1",), [["a"]])], ("x1",))
        s = Sampler(q)
        answers, stats = s.sample(20, random.Random(9))
        assert answers == [(0,)] * 20
        assert stats.trials == 20 and stats.failures == 0


class TestSuppliedCover:
    """A cover that does not cover every variable skews the samples; Sampler refuses it."""

    @pytest.mark.parametrize(
        "weights, message",
        [
            ((0, 0, 0), "do not cover variable 'x1'"),
            ((1, 0, 0), "do not cover variable 'x3'"),
            ((1, -1, 1), "nonnegative"),
        ],
    )
    def test_refused(self, triangle_query, weights, message):
        cover = FractionalCover(tuple(Fraction(w) for w in weights))
        with pytest.raises(CoverError, match=message):
            Sampler(triangle_query, cover=cover)

    def test_one_weight_per_constraint(self, triangle_query):
        with pytest.raises(CoverError, match="one weight per constraint"):
            Sampler(triangle_query, cover=FractionalCover((Fraction(1), Fraction(1))))

    def test_a_covering_cover_is_used(self, triangle_query):
        cover = FractionalCover((Fraction(1), Fraction(0), Fraction(1)))
        s = Sampler(triangle_query, cover=cover)
        assert s.store.up_root == pytest.approx(16.0)  # |R| * |T|
        answers, _ = s.sample(20, random.Random(4))
        assert set(answers) <= TRIANGLE_ANSWERS


class TestValueStore:
    def test_each_prefix_is_estimated_once(self, triangle_query, monkeypatch):
        # The walk expands nodes in place, with no call per node: each block it
        # appends to the store is one expansion, of the node whose slot points
        # at the block, and each `math.exp` it takes is one child's bound. The
        # cursor moves of the reference expansion must not run at all.
        s = Sampler(triangle_query)
        expanded = set()
        estimates = expansions = 0
        walk, exp = sampler_module.sample_once, math.exp
        bind_prefix, reset = s.ctx.bind_prefix, s.ctx.reset
        path = []  # the context's bound prefix
        cuts = []  # every prefix the walk cut the cursors to
        node = {0: ()}  # a store slot's prefix

        def tracking_bind_prefix(prefix, *columns):
            path[:] = prefix
            cuts.append(tuple(prefix))
            bind_prefix(prefix, *columns)

        def tracking_reset():
            path.clear()
            reset()

        def counting_exp(x):
            nonlocal estimates
            estimates += 1
            return exp(x)

        def tracking_walk(ctx, store, rng):
            nonlocal expansions
            first, walks_cut = len(store.values), len(cuts)
            out = walk(ctx, store, rng)
            blocks = range(first, len(store.values), ctx.fanout)
            # A walk cuts once if it expands, and at most once if it refutes
            # the first node it lacks.
            assert len(cuts) - walks_cut == 1 if blocks else len(cuts) - walks_cut <= 1
            parent = {at: slot for slot, at in enumerate(store.child) if at >= first}
            for at in blocks:
                # The first expansion is at the cut, each later one at a child
                # of the one before.
                prefix = node[parent[at]]
                assert (prefix if at == first else prefix[:-1]) == cuts[-1]
                cuts[-1] = prefix
                expansions += 1
                expanded.add(prefix)
                node.update((at + d, prefix + (d,)) for d in range(ctx.fanout))
            return out

        def forbidden(*args):
            raise AssertionError("the walk ran a cursor move or bound of the reference")

        monkeypatch.setattr(sampler_module, "sample_once", tracking_walk)
        monkeypatch.setattr(sampler_module, "children_values", forbidden)
        monkeypatch.setattr(math, "exp", counting_exp)
        monkeypatch.setattr(s.ctx, "bind_prefix", tracking_bind_prefix)
        monkeypatch.setattr(s.ctx, "reset", tracking_reset)
        for name in ("bind", "unbind", "estimate", "bound"):
            monkeypatch.setattr(s.ctx, name, forbidden)
        s.sample(200, random.Random(42))
        assert estimates > 0 and path == []
        assert expansions == len(expanded)
        # One block of child estimates per expanded prefix; the root was
        # estimated when the store was built.
        assert estimates <= s.ctx.fanout * len(expanded)
        assert s.ctx.depth == 0

    def test_context_returns_to_the_root_on_every_exit(self, triangle_query):
        def assert_at_root(s, roots):
            # Every stack holds exactly its root range, at depth 0.
            assert s.ctx.depth == 0
            assert s.ctx.stacks == roots

        # A walk ends in an answer, a failed draw or a refutation.
        s = Sampler(triangle_query)
        roots = [list(st) for st in s.ctx.stacks]
        assert all(len(st) == 1 for st in roots)
        rng = random.Random(2)
        exits = set()
        for _ in range(200):
            refuted = s.store.refuted
            out = sample_once(s.ctx, s.store, rng)
            if out is not None:
                exits.add("answer")
            elif s.store.refuted > refuted:
                exits.add("refutation")
            else:
                exits.add("failed draw")
            assert_at_root(s, roots)
        assert exits == {"answer", "failed draw", "refutation"}
        # A sampling call ends in a work budget or a proof of emptiness.
        s = Sampler(triangle_query)
        with pytest.raises(WorkBudgetError):
            s.sample(10 ** 6, random.Random(2), max_work=50)
        assert_at_root(s, roots)
        s = Sampler(encode_instance(ANSWER_FREE_TABLES, ("x1", "x2", "x3")))
        roots = [list(st) for st in s.ctx.stacks]
        with pytest.raises(EmptyAnswerSetError):
            s.sample(1, random.Random(3), max_work=1000)
        assert_at_root(s, roots)

    @pytest.mark.parametrize("seed", range(4))
    def test_blocks_are_the_child_values_under_the_final_memo(self, seed):
        # A refutation zeroes exactly the slots of refuted prefixes, so every
        # other stored value is what a fresh estimate gives now.
        q, cs = random_degree_instance(random.Random(seed), max_vars=3, max_rels=3)
        s = Sampler(q, cs)
        try:
            s.sample(50, random.Random(seed), max_work=200)
        except (EmptyAnswerSetError, WorkBudgetError):
            pass
        ctx, store = s.ctx, s.store
        per_var = ctx.per_var
        answers_bits = [
            tuple((code >> (per_var - 1 - j)) & 1 for code in answer for j in range(per_var))
            for answer in nested_loop_join(q, s.order)
        ]
        check_refuted_slots(ctx, store, answers_bits)
        blocks = sum(at >= 0 for at in store.child)
        assert blocks * ctx.fanout + 1 == len(store.values)
        assert ctx.depth == 0


def check_blocks(ctx, store, answers_bits):
    """Every stored block holds what `children_values` gives at its prefix, but
    for children refuted since, which prefix no answer; the number of blocks."""
    blocks = 0
    pending = [((), 0)]  # (prefix, slot)
    while pending:
        prefix, slot = pending.pop()
        at = store.child[slot]
        if at < 0:
            continue
        blocks += 1
        for d in prefix:
            ctx.bind(d)
        fresh = children_values(ctx)
        ctx.reset()
        for d, value in enumerate(fresh):
            below = prefix + (d,)
            if store.values[at + d] != value:
                assert store.values[at + d] == 0.0 and value > 0.0
                assert not any(bits[: len(below)] == below for bits in answers_bits)
            pending.append((below, at + d))
    assert blocks * ctx.fanout + 1 == len(store.values)
    return blocks


def degree_path_instance(rng: random.Random, values: int = 20):
    """A path R1(x1,x2) ... R5(x5,x6) over `values` values, most of its joins functional.

    R1-R4 give four fifths of the values one successor, or two with
    probability 1/4, and R5 is a function x5 -> x6 on four fifths of them.
    The constraints: one cardinality constraint per relation, degree bounds
    x2 -> x3, x3 -> x4 and x4 -> x5 at the data's maxima, and the FD x5 -> x6.
    """
    vs = [str(v) for v in range(values)]
    tables = []
    for i in range(1, 5):
        rows = [(u, w) for u in rng.sample(vs, values * 4 // 5)
                for w in rng.sample(vs, rng.choice((1, 1, 1, 2)))]
        tables.append((f"R{i}", (f"x{i}", f"x{i + 1}"), rows))
    tables.append(("R5", ("x5", "x6"), [(u, rng.choice(vs)) for u in rng.sample(vs, values * 4 // 5)]))
    query = encode_instance(tables, [f"x{i}" for i in range(1, 7)])
    base = cardinality_constraints(query)
    degree = []
    for rel in query.relations[1:4]:
        b = frozenset(rel.variables)
        top = max(Counter(row[0] for row in rel.rows).values())
        degree.append(DegreeConstraint(frozenset(rel.variables[:1]), b, top, b))
    degree.append(functional_dependency(["x5"], "x6", ["x5", "x6"]))
    return query, ConstraintSet(base.variables, base.edges, base.constraints + tuple(degree))


def bit_search_answers(query, order):
    """The join's answers by the bit search, which the oracle checks elsewhere.

    The reference for instances like `degree_path_instance`, whose grid of
    20^6 assignments the oracle refuses.
    """
    answers = []
    wcj_binarised(query, answers.append, order=order)
    return answers


def stored_blocks(store):
    """Every stored block by the prefix of the node it expands."""
    blocks, pending = {}, [((), 0)]
    while pending:
        prefix, slot = pending.pop()
        at = store.child[slot]
        if at >= 0:
            blocks[prefix] = (store.values[at], store.values[at + 1])
            pending += [(prefix + (d,), at + d) for d in (0, 1)]
    return blocks


class TestWalkAgainstReference:
    """The walk's one-pass expansion against the cursor-move reference, after
    seeded sessions; the check itself draws nothing. Seeds fixed before the
    first run."""

    @staticmethod
    def session(query, constraint_set=None, seed=1, reference=nested_loop_join):
        s = Sampler(query, constraint_set)
        try:
            s.sample(20, random.Random(seed), max_work=200)
        except (EmptyAnswerSetError, WorkBudgetError):
            pass
        per_var = s.ctx.per_var
        answers_bits = [
            tuple((code >> (per_var - 1 - j)) & 1 for code in answer for j in range(per_var))
            for answer in reference(query, s.order)
        ]
        blocks = check_blocks(s.ctx, s.store, answers_bits)
        assert s.ctx.depth == 0 and all(len(st) == 1 for st in s.ctx.stacks)
        return s, blocks

    def test_agm_random_queries(self):
        expanded = 0
        for seed in range(40):
            q = random_query(random.Random(seed), max_vars=4, max_rels=4, max_tuples=30)
            expanded += self.session(q, seed=seed)[1] > 0
        assert expanded >= 20

    def test_pm_with_static_terms(self):
        # A degree term reads its static N until its earlier variable is
        # bound, and its live count below.
        expanded = static = 0
        for seed in range(40):
            q, cs = tight_degree_instance(random.Random(seed))
            s, blocks = self.session(q, cs, seed)
            expanded += blocks > 0
            static += any(ready > 0 for _, _, ready, _ in s.ctx._terms)
        assert expanded >= 20 and static >= 10

    def test_one_variable_on_two_relations(self):
        q = encode_instance(
            [("R", ("x1",), [["a"], ["b"], ["c"], ["e"]]), ("S", ("x1",), [["b"], ["c"], ["d"]])],
            ("x1",),
        )
        assert self.session(q)[1] > 0

    @pytest.mark.parametrize("tables", [ANSWER_FREE_TABLES, [
        ("R", ("x1", "x2"), [["0", "0"], ["0", "1"], ["1", "1"]]),
        ("S", ("x2", "x3"), [["0", "1"], ["1", "0"], ["1", "1"]]),
    ]])
    def test_one_bit_domain(self, tables):
        s, blocks = self.session(encode_instance(tables, ("x1", "x2", "x3")))
        assert s.ctx.per_var == 1 and blocks > 0

    def test_a_walk_within_the_store_moves_no_cursor(self, triangle_query, monkeypatch):
        # A walk that ends inside the store neither grows nor refutes it, and
        # never cuts the cursors, so it needs no reset.
        s = Sampler(triangle_query)
        roots = [list(st) for st in s.ctx.stacks]
        resets = 0
        reset = s.ctx.reset

        def counting_reset():
            nonlocal resets
            resets += 1
            reset()

        monkeypatch.setattr(s.ctx, "reset", counting_reset)
        rng = random.Random(8)
        within = []
        for _ in range(300):
            size, refuted, before = len(s.store.values), s.store.refuted, resets
            sample_once(s.ctx, s.store, rng)
            within.append(len(s.store.values) == size and s.store.refuted == refuted)
            assert resets == before + (not within[-1])
            assert s.ctx.depth == 0 and s.ctx.stacks == roots
        assert set(within) == {True, False}

    def test_a_bound_overflowing_below_the_root_raises_as_bound_does(self):
        # The degree term x1 -> x2 reads its static N = 1 at the root, which
        # stays finite, and the live count 2 below it, with weight 2000.
        q = encode_instance(
            [("R", ("x1", "x2"), [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]])], ("x1", "x2")
        )
        base, edge = cardinality_constraints(q), frozenset({"x1", "x2"})
        degree = DegreeConstraint(frozenset({"x1"}), edge, 1, edge)
        cs = ConstraintSet(base.variables, base.edges, base.constraints + (degree,))
        s = Sampler(q, cs, FractionalCover((Fraction(1), Fraction(2000))))
        assert s.store.up_root == 4.0
        with pytest.raises(CoverError) as reference:
            children_values(s.ctx)
        s.ctx.reset()
        with pytest.raises(CoverError) as walk:
            s.sample(1, random.Random(1))
        assert str(walk.value) == str(reference.value) == "bound 2^2001 overflows a float"
        assert s.ctx.depth == 0

    def test_degree_path_settles_stretches(self, monkeypatch):
        # Where the bound reads one live count and that column's rows agree on
        # the next bits, the walk settles those levels with one seek per other
        # column: fewer bisects than blocks.
        bisects = 0
        bisect_left = sampler_module.bisect_left

        def counting_bisect_left(*args):
            nonlocal bisects
            bisects += 1
            return bisect_left(*args)

        monkeypatch.setattr(sampler_module, "bisect_left", counting_bisect_left)
        for seed in range(6):
            q, cs = degree_path_instance(random.Random(seed))
            bisects = 0
            blocks = self.session(q, cs, seed, reference=bit_search_answers)[1]
            assert 0 < bisects < blocks

    @pytest.mark.parametrize("rewrite", [
        # Every level expanded by the term loop, no stretch and no value table.
        lambda level, affected, w, terms, single: (affected, w, terms, None),
        # Every stretch cut after one level, so most end mid-variable.
        lambda level, affected, w, terms, single: (
            affected, w, terms, single and (single[0], level + 1, single[2])),
    ], ids=["levels", "one-level-stretches"])
    def test_stretches_store_what_single_levels_store(self, rewrite):
        for seed in range(6):
            q, cs = degree_path_instance(random.Random(seed))
            runs = []
            for rewritten in (False, True):
                s = Sampler(q, cs)
                if rewritten:
                    s.ctx.frontier_plans = [
                        rewrite(level, *plan) for level, plan in enumerate(s.ctx.frontier_plans)
                    ]
                rng = random.Random(seed)
                calls = []
                for _ in range(40):
                    try:
                        calls.append(s.sample(1, rng, max_work=20))
                    except WorkBudgetError as exc:
                        calls.append((exc.answers, exc.stats))
                runs.append((
                    [(answers, stats.as_dict()) for answers, stats in calls],
                    s.store.values.tobytes(), s.store.child.tobytes(), s.store.refuted,
                ))
            assert runs[0] == runs[1]

    def test_a_stretch_refuted_partway_down(self):
        # Under x1 = 0, R's x2 column holds the one code 5 = 101b, and S
        # holds 6 = 110b and 7 = 111b, which share only 5's top bit: the
        # stretch on x2 stores the block of x2's first level, then refutes
        # the node below it, and with it x1 = 0. Under x1 = 1, R holds 5 and
        # 6: a stretch of one level, then the level that parts them.
        q = coded_query(("x1", "x2"), [
            (("x1", "x2"), [(0, 5), (1, 5), (1, 6)]),
            (("x2",), [(6,), (7,)]),
        ], 8)
        s = Sampler(q)
        plans = s.ctx.frontier_plans
        assert [plan[3] and plan[3][:2] for plan in plans] == [(0, 3)] * 3 + [(0, 5)] * 2 + [None]
        answers, _ = s.sample(20, random.Random(3))
        assert set(answers) == {(1, 6)}
        assert s.store.refuted == 2
        up = s.store.up_root
        assert stored_blocks(s.store) == {
            (): (up, 0.0), (0,): (up, 0.0), (0, 0): (0.0, 2.0),
            (0, 0, 0): (0.0, 0.0),
            (0, 0, 1): (0.0, 2.0), (0, 0, 1, 1): (0.0, 1.0), (0, 0, 1, 1, 1): (1.0, 0.0),
        }
        assert check_blocks(s.ctx, s.store, [(0, 0, 1, 1, 1, 0)]) == 7

    def test_a_stretch_value_overflowing_raises_at_the_stretch_start(self, monkeypatch):
        # The degree term x2 -> x3 turns live at x2's last level, the first
        # level of a stretch on R2's x2 column, and reads the live count 2
        # with weight 2000 (the data breaks its N = 1).
        q = coded_query(("x1", "x2", "x3"), [
            (("x1", "x2"), [(0, 1), (1, 2)]),
            (("x2", "x3"), [(1, 0), (1, 1), (2, 3)]),
        ], 4)
        base, edge = cardinality_constraints(q), frozenset({"x2", "x3"})
        degree = DegreeConstraint(frozenset({"x2"}), edge, 1, edge)
        cs = ConstraintSet(base.variables, base.edges, base.constraints + (degree,))
        cover = FractionalCover((Fraction(1), Fraction(0), Fraction(2000)))
        s = Sampler(q, cs, cover)
        assert s.ctx.frontier_plans[3][3][:2] == (1, 4)
        reported = []
        reference = sampler_module.children_values

        def recording_children_values(ctx):
            reported.append((ctx.depth, [st[-1] for st in ctx.stacks]))
            return reference(ctx)

        monkeypatch.setattr(sampler_module, "children_values", recording_children_values)
        with pytest.raises(CoverError, match=r"^bound 2\^2000 overflows a float$"):
            s.sample(20, random.Random(1))
        node = Sampler(q, cs, cover).ctx
        node.bind_prefix([0, 0, 0])  # x1 = 0, x2's first bit 0
        assert reported == [(3, [st[-1] for st in node.stacks])]
        assert s.ctx.depth == 0 and all(len(st) == 1 for st in s.ctx.stacks)

    def test_an_overflow_below_a_lean_cut_reports_the_bound_of_the_full_node(self):
        # The degree term x3 -> x4 (N = 1, weight 2000) turns live at x3's last
        # level, where x3 = 0 has two x4 partners (the data breaks N, which
        # `wcjoin sample` would refuse). A walk whose cached prefix ends below
        # R's last level cuts it without R, which stays at its root range of
        # 2 rows; `bound`, which reads R's term, must see R's 1 row there. The
        # CLI exits 2 on this CoverError.
        tables = [
            ("R", ("x1", "x2"), [["0", "0"], ["0", "1"]]),
            ("S", ("x2", "x3"), [["0", "0"], ["0", "2"]]),
            ("U", ("x3", "x4"), [["0", "0"], ["0", "1"], ["2", "3"]]),
        ]
        q = encode_instance(tables, ("x1", "x2", "x3", "x4"))
        base, edge = cardinality_constraints(q), frozenset({"x3", "x4"})
        cs = ConstraintSet(base.variables, base.edges,
                           base.constraints + (DegreeConstraint(frozenset({"x3"}), edge, 1, edge),))
        weights = (1, 1, 0, 2000)
        message = "bound 2^2000 overflows a float"
        skipped = 0
        for seed in range(10):
            s = Sampler(q, cs, FractionalCover(tuple(map(Fraction, weights))))
            r_stack = s.ctx.stacks[0]
            cuts = []
            bind_prefix = s.ctx.bind_prefix

            def recording_bind_prefix(prefix, *plan):
                cuts.append((len(prefix), plan))
                bind_prefix(prefix, *plan)

            s.ctx.bind_prefix = recording_bind_prefix
            with pytest.raises(CoverError) as exc:
                s.sample(20, random.Random(seed))
            assert str(exc.value) == message
            assert s.ctx.depth == 0 and all(len(st) == 1 for st in s.ctx.stacks)
            # The walk's own cut, then the report's full one.
            (depth, (plan,)), (full_depth, ()) = cuts[-2:]
            assert full_depth >= depth
            skipped += all(st is not r_stack for *_, pairs in plan for _, st in pairs)
        assert skipped


class TestLeanCut:
    """The walk cuts its cached prefix only in the stacks that levels at or below
    its frontier read, with the call `bind_prefix(prefix, frontier_cuts[L])`.
    Checked at every prefix against every stack's top range at the prefix's
    node, and by what the cut costs; no RNG draws."""

    @staticmethod
    def reads(ctx):
        """Per level L, the stacks the plans of levels >= L read: columns, and live or unnarrowed terms."""
        reads, read = [], {}
        for affected, _, terms, _ in reversed(ctx.frontier_plans):
            read.update((id(st), st) for _, st in affected)
            read.update((id(x), x) for _, table, x in terms if table is not None)
            reads.append(list(read.values()))
        return reads[::-1]

    def check(self, ctx, nodes):
        """The walk's cut at each (prefix, top ranges of every stack there): the stacks it skipped."""
        index = {id(st): i for i, st in enumerate(ctx.stacks)}
        reads, skipped = self.reads(ctx), 0
        for prefix, full in nodes:
            level = len(prefix)
            ctx.bind_prefix(prefix, ctx.frontier_cuts[level])
            assert ctx.depth == level
            assert all(st[-1] == full[index[id(st)]] for st in reads[level])
            skipped += sum(len(st) == 1 and top != st[0] for st, top in zip(ctx.stacks, full))
            ctx.reset()
        return skipped

    @staticmethod
    def full_cuts(ctx):
        """Every prefix of every code tuple, with the top ranges of `bind_prefix`'s full cut."""
        k = ctx.per_var
        grid = itertools.product(range(1 << k), repeat=len(ctx.order))
        bits = [tuple((c >> (k - 1 - b)) & 1 for c in codes for b in range(k)) for codes in grid]
        for prefix in sorted({b[:level] for b in bits for level in range(1, ctx.levels)}):
            ctx.bind_prefix(prefix)
            yield prefix, [st[-1] for st in ctx.stacks]
            ctx.reset()

    def test_agm_and_pm_random_queries(self):
        widths, skipped = set(), 0
        for seed in range(30):
            q, cs = random_degree_instance(random.Random(seed), max_vars=3)
            for constraint_set in (None, cs):
                ctx = Sampler(q, constraint_set).ctx
                widths.update(len(affected) for affected in ctx.affected)
                skipped += self.check(ctx, list(self.full_cuts(ctx)))
        assert {1, 2, 3} <= widths and skipped

    def test_prefixes_of_more_than_a_thousand_bits(self):
        # 121 variables x 10 bits: at every prefix of every answer's 1210
        # bits, against a second context that binds the prefix level by level.
        tables = deep_path_tables()
        order = tuple(f"x{i}" for i in range(121))
        q = encode_instance(tables, order)
        cs = cardinality_constraints(q)
        cover = FractionalCover((Fraction(1),) * len(cs.constraints))  # no LP
        ctx, ref = (EstimatorContext(q, cs, cover, order, bits=True) for _ in range(2))
        assert ctx.levels == 1210
        answers = [tuple(q.dictionary.encode(v) for v in row) for row in path_join(tables)]
        assert len(answers) >= 3

        def nodes(codes):
            bits = [(c >> (9 - b)) & 1 for c in codes for b in range(10)]
            for level in range(1, ctx.levels):
                ref.bind(bits[level - 1])
                yield bits[:level], [st[-1] for st in ref.stacks]
            ref.reset()

        assert sum(self.check(ctx, nodes(codes)) for codes in answers)

    def test_a_walks_cut_bisects_twice_per_pair_it_needs(self, monkeypatch):
        # One `_narrow` per variable the prefix binds that has a stack some
        # level at or below the cut narrows, two bisects per such (column,
        # stack) pair, and no other Python call: no code list per variable.
        cuts = []

        def needed(ctx, level):
            """Per variable the prefix binds, its pairs whose stack a level >= `level` narrows."""
            last = {id(st): depth for depth, pairs in enumerate(ctx.affected) for _, st in pairs}
            k = ctx.per_var
            return [[p for p in ctx.affected[u * k] if last[id(p[1])] >= level]
                    for u in range(-(-level // k))]

        def spy(ctx):
            bind_prefix = ctx.bind_prefix

            def profiled_bind_prefix(prefix, *plan):
                calls = []

                def profile(frame, event, arg):
                    if event == "call":
                        calls.append(frame.f_code.co_name)
                    elif event == "c_call" and arg is bisect.bisect_left:
                        calls.append("bisect")

                previous = sys.getprofile()
                sys.setprofile(profile)
                try:
                    bind_prefix(prefix, *plan)
                finally:
                    sys.setprofile(previous)
                pairs = needed(ctx, len(prefix))
                expected = ["bind_prefix"]
                for var in pairs:
                    if var:
                        expected += ["_narrow"] + ["bisect"] * (2 * len(var))
                assert calls == expected
                bound = sum(len(ctx.affected[u * ctx.per_var]) for u in range(len(pairs)))
                cuts.append(bound - sum(map(len, pairs)))  # the pairs the cut skipped

            monkeypatch.setattr(ctx, "bind_prefix", profiled_bind_prefix)

        for seed in range(3):
            q, cs = degree_path_instance(random.Random(seed))
            s = Sampler(q, cs)
            spy(s.ctx)
            s.sample(20, random.Random(seed))
        s = Sampler(encode_instance(TRIANGLE_TABLES, ("x1", "x2", "x3")))
        spy(s.ctx)
        s.sample(20, random.Random(1))
        assert len(cuts) > 50 and any(cuts)


class TestRefuteClimb:
    """`_refute` finds the slots of the walk's own nodes by arithmetic, zeroes
    the cut node's slot that the walk passes it, and walks from the root only
    once the climb goes past the cut node's parent. After every refutation of
    seeded sessions on FD paths, against the root walk on a copy of the store;
    the check draws nothing."""

    @staticmethod
    def root_walk(values, child, prefix):
        """The climb with every slot found from the root: its slots, and how many it zeroes."""
        slots = [0]
        for d in prefix:
            slots.append(child[slots[-1]] + d)
        for i in range(len(slots) - 1, -1, -1):
            values[slots[i]] = 0.0
            if i and (values[child[slots[i - 1]]] or values[child[slots[i - 1]] + 1]):
                return slots, len(slots) - i
        return slots, len(slots)

    def test_against_the_root_walk(self, monkeypatch):
        refute, climbs = sampler_module._refute, Counter()

        def checked_refute(store, prefix, first, cut, cut_slot):
            values, refuted = array("d", store.values), store.refuted
            slots, zeroed = self.root_walk(values, store.child, prefix)
            assert cut_slot == slots[cut]
            refute(store, prefix, first, cut, cut_slot)
            assert store.values.tobytes() == values.tobytes()
            assert store.refuted == refuted + zeroed
            below = len(prefix) - cut  # the slots zeroed below the cut node
            start = "from the cut" if not below else "from below the cut"
            if zeroed <= below:
                climbs[start, "stops below the cut"] += 1
            elif zeroed == below + 1:
                climbs[start, "stops at the cut node's parent"] += 1
            else:
                climbs[start, "goes past the cut node's parent"] += 1

        monkeypatch.setattr(sampler_module, "_refute", checked_refute)
        for seed in range(6):
            q, cs = degree_path_instance(random.Random(seed))
            Sampler(q, cs).sample(100, random.Random(seed))
        assert len(climbs) == 5, climbs  # a climb from the cut cannot stop below it


def walk_probabilities(ctx, store):
    """The probability that one walk returns each leaf, by expanding the whole
    trace tree over the child values the sampler draws from: stored blocks
    where the store has them, fresh children_values elsewhere. The result is
    the product of v_child / v_parent along the leaf's path."""
    root = store.values[0]
    probs = {}

    path = []  # the child indices from the root to the current node

    def descend(slot, value, p):
        if ctx.depth == ctx.levels:
            probs[ctx.prefix_codes(path)] = p
            return
        at = store.child[slot] if slot >= 0 else -1
        if at >= 0:
            block = store.values[at : at + ctx.fanout]
        else:
            block = children_values(ctx)
        for d, vd in enumerate(block):
            if vd > 0.0:
                ctx.bind(d)
                path.append(d)
                descend(at + d if at >= 0 else -1, vd, p * vd / value)
                path.pop()
                ctx.unbind()

    if root > 0.0:
        descend(0, root, 1.0)
    return root, probs


class TestExactUniformity:
    """The paper's sampling claim with no RNG: every answer, and nothing else,
    comes out of one walk with probability 1 / up(root)."""

    @staticmethod
    def check(query, constraint_set=None):
        s = Sampler(query, constraint_set)
        answers = nested_loop_join(query, s.order)
        stores = [ValueStore(s.ctx)]
        try:
            s.sample(20, random.Random(1), max_work=100)
        except (EmptyAnswerSetError, WorkBudgetError):
            pass
        stores.append(s.store)  # refutations must not move any answer's mass
        for store in stores:
            root, probs = walk_probabilities(s.ctx, store)
            assert set(probs) == answers
            for p in probs.values():
                assert p == pytest.approx(1.0 / root, rel=1e-9)
            assert s.ctx.depth == 0

    def test_triangle(self, triangle_query):
        self.check(triangle_query)

    def test_answer_free(self):
        self.check(encode_instance(ANSWER_FREE_TABLES, ("x1", "x2", "x3")))

    # Seeds whose instance has a degree constraint and at least three answers.
    @pytest.mark.parametrize("seed", [0, 35, 106, 118, 181, 196])
    def test_pm_random_instances(self, seed):
        q, cs = random_degree_instance(
            random.Random(seed), max_vars=3, max_rels=3, max_tuples=12
        )
        self.check(q, cs)

    def test_pm_with_weighted_degree_terms(self):
        # Seeds fixed before the first run. At least a third of the draws give
        # some degree constraint weight, so the bound's degree terms count in
        # the walks, in both estimator axioms checks and in the store.
        seeds = range(50)
        weighted = 0
        for seed in seeds:
            q, cs = tight_degree_instance(random.Random(seed))
            weights = solve_cover_degree(cs).weights
            weighted += any(w for c, w in zip(cs.constraints, weights) if not c.is_cardinality)
            self.check(q, cs)
            for ctx in (build_pm_context(q, cs), EstimatorContext(q, cs, bits=True)):
                report = verify_estimator(ctx)
                assert report.ok, (seed, report)
        assert weighted >= len(seeds) / 3


class TestPinnedOutput:
    """Seeded runs against answers, stats and refutation counts recorded once.

    Any change to what a seeded run draws, to how it consumes the RNG, or to
    which prefixes it refutes shows up here, also across versions.
    """

    @staticmethod
    def triangle_indices(answers):
        # Each triangle answer as its index into sorted(TRIANGLE_ANSWERS).
        index = {a: str(i) for i, a in enumerate(sorted(TRIANGLE_ANSWERS))}
        return "".join(index[a] for a in answers)

    def test_agm_triangle(self, triangle_query):
        s = Sampler(triangle_query)
        answers, stats = s.sample(200, random.Random(42))
        assert self.triangle_indices(answers) == (
            "00333012323121132102321110222210333301212031013033111221101130"
            "12233300200033122311330221333200121102223322000203332222120000"
            "02220031132332021031312231231001320122332103011333022232023320"
            "33020012220310"
        )
        assert stats.as_dict() == {
            "trials": 355,
            "failures": 155,
            "answers_returned": 200,
            "up_root": 7.999999999999998,
            "final_up_root": 7.999999999999998,
            "mean_trials_per_success": 1.775,
        }
        assert s.store.refuted == 5

    def test_pm_with_a_projected_guard(self):
        q, cs = random_degree_instance(
            random.Random(196), max_vars=3, max_rels=3, max_tuples=12
        )
        # B = {x1, x3} is a strict subset of its guard {x1, x2, x3}.
        assert any(c.B < c.guard for c in cs.constraints)
        s = Sampler(q, cs)
        answers, stats = s.sample(30, random.Random(7))
        assert answers == [
            (0, 2, 2), (4, 4, 1), (2, 0, 1), (2, 0, 1), (1, 4, 3), (4, 3, 1),
            (4, 3, 1), (4, 4, 1), (0, 2, 2), (1, 4, 3), (4, 0, 2), (1, 4, 3),
            (4, 4, 3), (0, 2, 2), (2, 0, 1), (4, 0, 2), (2, 0, 1), (4, 3, 1),
            (4, 4, 3), (0, 2, 2), (4, 4, 1), (1, 0, 4), (1, 0, 4), (1, 3, 1),
            (1, 4, 3), (0, 2, 2), (1, 4, 3), (1, 4, 3), (1, 4, 3), (4, 0, 2),
        ]
        assert stats.as_dict() == {
            "trials": 36,
            "failures": 6,
            "answers_returned": 30,
            "up_root": 12.0,
            "final_up_root": 12.0,
            "mean_trials_per_success": 1.2,
        }
        assert s.store.refuted == 6

    def test_pm_degree_path_with_stretches(self):
        # The CI's FD path and its `sample --estimator pm --seed 1 --count
        # 200` run (`degree_path_instance` over seed 0): degree bounds x2 -> x3
        # .. x4 -> x5 and the FD x5 -> x6, so walks settle stretches, cut
        # across several variables, and 10 of the 17 refutations climb past
        # the walk's cut.
        q, cs = degree_path_instance(random.Random(0))
        s = Sampler(q, cs)
        answers, stats = s.sample(200, random.Random(1))
        assert hashlib.sha256(repr(answers).encode()).hexdigest() == (
            "7960656366e15e3a1caa884480e5b84565d56197270eaedbe6a34104ab632a83"
        )
        assert stats.as_dict() == {
            "trials": 2020,
            "failures": 1820,
            "answers_returned": 200,
            "up_root": 159.99999999999994,
            "final_up_root": 159.99999999999994,
            "mean_trials_per_success": 10.1,
        }
        assert s.store.refuted == 98

    def test_answer_free_triangle(self):
        s = Sampler(encode_instance(ANSWER_FREE_TABLES, ("x1", "x2", "x3")))
        with pytest.raises(EmptyAnswerSetError) as exc:
            s.sample(1, random.Random(3), max_work=1000)
        assert exc.value.stats.as_dict() == {
            "trials": 2,
            "failures": 2,
            "answers_returned": 0,
            "up_root": 2.82842712474619,
            "final_up_root": 0.0,
            "mean_trials_per_success": None,
        }
        assert s.store.refuted == 5

    def test_refuted_root_stays_refuted(self):
        # A later call on a refuted root runs no trial; up_root stays the
        # root's estimate, final_up_root its refuted value.
        s = Sampler(encode_instance(ANSWER_FREE_TABLES, ("x1", "x2", "x3")))
        with pytest.raises(EmptyAnswerSetError):
            s.sample(1, random.Random(3), max_work=1000)
        with pytest.raises(EmptyAnswerSetError) as exc:
            s.sample(1, random.Random(4), max_work=1000)
        assert exc.value.stats.trials == 0
        assert exc.value.stats.up_root == 2.82842712474619
        assert exc.value.stats.final_up_root == 0.0

    def test_work_budget(self, triangle_query):
        s = Sampler(triangle_query)
        with pytest.raises(WorkBudgetError) as exc:
            s.sample(10 ** 6, random.Random(2), max_work=50)
        assert self.triangle_indices(exc.value.answers) == "33130311322000321031022200030"
        assert exc.value.stats.as_dict() == {
            "trials": 50,
            "failures": 21,
            "answers_returned": 29,
            "up_root": 7.999999999999998,
            "final_up_root": 7.999999999999998,
            "mean_trials_per_success": 1.7241379310344827,
        }
        assert s.store.refuted == 5
