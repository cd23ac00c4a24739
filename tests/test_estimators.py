"""Fractional-cover LPs and the answer-count estimators."""
import math
import random
from fractions import Fraction

import pytest

from wcjoin.binary import bin_constraints, bin_query, make_layout
from wcjoin.constraints import (
    ConstraintSet,
    DegreeConstraint,
    cardinality_constraints,
    compatible_order,
    functional_dependency,
)
from wcjoin import estimators
from wcjoin.core import encode_instance, project
from wcjoin.index import bit_width
from wcjoin.estimators import (
    EstimatorContext,
    FractionalCover,
    InfeasibleCoverError,
    build_agm_context,
    build_pm_context,
    check_coverage,
    parse_weights,
    solve_cover_card,
    solve_cover_degree,
    verify_estimator,
)
from wcjoin.oracle import nested_loop_join

from conftest import TRIANGLE_ANSWERS, random_degree_instance, random_query, tight_degree_instance

E1 = frozenset({"x1", "x2"})
E2 = frozenset({"x2", "x3"})
E3 = frozenset({"x1", "x3"})
V3 = frozenset({"x1", "x2", "x3"})
F = Fraction


class TestCoverLP:
    def test_triangle_half_weights(self):
        cover = solve_cover_card([E1, E2, E3], [7, 7, 7], ["x1", "x2", "x3"])
        assert cover.weights == (F(1, 2), F(1, 2), F(1, 2))
        assert cover.bound_power([7, 7, 7]) == (343, 2)  # bound = 7^(3/2)
        assert cover.log2_bound([7, 7, 7]) == pytest.approx(1.5 * math.log2(7))
        assert cover.format_weights() == "1/2 1/2 1/2"

    def test_unbalanced_triangle_prefers_small_edges(self):
        # One huge edge: cover x1 and x2 cheaply, skip the big relation.
        cover = solve_cover_card([E1, E2, E3], [1000, 2, 2], ["x1", "x2", "x3"])
        assert cover.weights == (F(0), F(1), F(1))
        assert cover.bound_power([1000, 2, 2]) == (4, 1)

    def test_path_query(self):
        cover = solve_cover_card([E1, E2], [5, 3], ["x1", "x2", "x3"])
        assert cover.weights == (F(1), F(1))
        assert cover.bound_power([5, 3]) == (15, 1)

    def test_single_edge(self):
        cover = solve_cover_card([E1], [9], ["x1", "x2"])
        assert cover.weights == (F(1),)

    def test_ties_resolved_to_lexicographically_smallest(self):
        # Two identical edges: any split of weight 1 is optimal; (0, 1) wins.
        cover = solve_cover_card([E1, E1], [4, 4], ["x1", "x2"])
        assert cover.weights == (F(0), F(1))

    def test_infeasible(self):
        with pytest.raises(InfeasibleCoverError) as exc:
            solve_cover_card([E1], [4], ["x1", "x2", "x3"])
        assert exc.value.variable == "x3"

    def test_programs_past_the_old_guard(self):
        edges = [frozenset({f"x{i}"}) for i in range(15)]
        cover = solve_cover_card(edges, [2] * 15, [f"x{i}" for i in range(15)])
        assert cover.weights == (F(1),) * 15

    def test_degree_constraints_beat_agm(self):
        # Triangle with both x1 and x2 functionally determined by x3: the
        # optimal bound drops from N^1.5 to N, paying only for x3.
        n = 16
        cs = ConstraintSet(
            V3,
            (E1, E2, E3),
            (
                DegreeConstraint(frozenset(), E1, n, E1),
                DegreeConstraint(frozenset(), E2, n, E2),
                functional_dependency({"x3"}, "x2", E2),
                functional_dependency({"x3"}, "x1", E3),
            ),
        )
        cover = solve_cover_degree(cs)
        bounds = [c.N for c in cs.constraints]
        assert cover.bound_power(bounds) == (n, 1)
        agm = solve_cover_card([E1, E2, E3], [n, n, n], sorted(V3))
        assert cover.log2_bound(bounds) < agm.log2_bound([n, n, n])

    def test_degree_lp_requires_covered_variables(self):
        cs = ConstraintSet(
            V3, (E1, E2, E3), (functional_dependency({"x3"}, "x2", E2),)
        )
        with pytest.raises(InfeasibleCoverError) as exc:
            solve_cover_degree(cs)
        assert exc.value.variable == "x1"  # the first of x1, x3 in sorted order

    def test_check_coverage_and_parse(self):
        sets = [E1, E2]
        assert check_coverage(sets, parse_weights(["1/2", "1/2"]), ["x2"]) is None
        assert check_coverage(sets, (F(1), F(0)), ["x1", "x3"]) == "x3"
        with pytest.raises(Exception):
            check_coverage(sets, (F(-1), F(2)), ["x2"])

    def test_exactness_against_float_rounding(self):
        # Sizes chosen so two vertices differ by a hair in log space; the
        # exact comparison must still pick the true optimum.
        cover = solve_cover_card([E1, E2, E3], [6, 10, 15], ["x1", "x2", "x3"])
        # Half weights give sqrt(900) = 30; edge pair {E1,E2} gives 60, etc.
        assert cover.weights == (F(1, 2), F(1, 2), F(1, 2))
        assert cover.bound_power([6, 10, 15]) == (900, 2)


class TestAgmEstimator:
    def test_triangle_values(self, triangle_query):
        ctx = build_agm_context(triangle_query)
        assert ctx.estimate() == pytest.approx(8.0)  # sqrt(4^3)
        ctx.bind(0)
        assert ctx.estimate() == pytest.approx(2.0)  # sqrt(1*2*2)
        ctx.bind(0)
        ctx.bind(3)
        assert ctx.estimate() == 1.0  # exactly 1 on answers
        for _ in range(3):
            ctx.unbind()
        ctx.bind(3)
        assert ctx.estimate() == 0.0  # x1 = 3 is inconsistent
        ctx.unbind()
        assert ctx.estimate() == pytest.approx(8.0)  # context restored

    def test_one_cursor_per_relation(self, triangle_query):
        # Each cardinality constraint's projection is its guard relation.
        ctx = build_agm_context(triangle_query)
        assert len(ctx.stacks) == 3

    def test_rejects_degree_constraints(self, triangle_query):
        cs = ConstraintSet(
            V3,
            (E1, E2, E3),
            (
                DegreeConstraint(frozenset(), E1, 4, E1),
                functional_dependency({"x2"}, "x3", E2),
            ),
        )
        with pytest.raises(ValueError):
            build_agm_context(triangle_query, cs)

    def test_root_value_is_agm_bound(self):
        rng = random.Random(41)
        for _ in range(40):
            q = random_query(rng)
            if any(r.is_empty() for r in q.relations):
                continue
            cs = cardinality_constraints(q)
            ctx = build_agm_context(q, cs)
            expected = solve_cover_degree(cs).log2_bound(
                [c.N for c in cs.constraints]
            )
            assert math.log2(ctx.estimate()) == pytest.approx(expected, abs=1e-9)
            assert ctx.estimate() >= len(nested_loop_join(q)) - 1e-9

    def test_axioms_hold_exhaustively(self):
        rng = random.Random(43)
        for _ in range(30):
            q = random_query(rng, max_vars=3, max_rels=3, max_tuples=12)
            report = verify_estimator(build_agm_context(q))
            assert report.ok, report
            bq = bin_query(q)
            report = verify_estimator(build_agm_context(bq))
            assert report.ok, report

    def test_undercutting_weights_violate_superadditivity(self, triangle_query):
        # Halving the optimal weights breaks the bound; the checker must see it.
        cs = cardinality_constraints(triangle_query)
        bad = FractionalCover((F(1, 4), F(1, 4), F(1, 4)))
        ctx = build_agm_context(triangle_query, cs, bad)
        report = verify_estimator(ctx)
        assert not report.ok
        assert report.superadditivity_violations


class TestPmEstimator:
    def pm_fixture(self, n=8):
        tables = [
            ("R", ("x1", "x2"), [[str(i), str(i % 2)] for i in range(n)]),
            ("S", ("x2", "x3"), [[str(i % 2), str(i)] for i in range(n)]),
            ("T", ("x1", "x3"), [[str(i), str(i)] for i in range(n)]),
        ]
        q = encode_instance(tables, ("x1", "x2", "x3"))
        cs = ConstraintSet(
            V3,
            (E1, E2, E3),
            (
                DegreeConstraint(frozenset(), E3, n, E3),
                functional_dependency({"x1"}, "x2", E1),
                DegreeConstraint(frozenset({"x3"}), E2, 1, E2),
            ),
        )
        return q, cs

    def test_compatible_order_enforced(self):
        q, cs = self.pm_fixture()
        with pytest.raises(ValueError):
            build_pm_context(q, cs, order=("x2", "x1", "x3"))
        ctx = build_pm_context(q, cs)
        assert ctx.order == compatible_order(cs)

    def test_constraints_on_a_whole_guard_share_its_cursor(self):
        q, cs = self.pm_fixture()
        # Weight 1 everywhere gives every constraint a term.
        ctx = build_pm_context(q, cs, FractionalCover((F(1),) * 3))
        assert len(ctx.stacks) == 3
        # Constraint i's count is read from its guard relation's stack.
        guards = [q.relations[2], q.relations[0], q.relations[1]]  # T, R, S
        assert [frozenset(r.variables) for r in guards] == [c.guard for c in cs.constraints]
        assert len(ctx._terms) == 3
        for (_, _, _, stack), rel in zip(ctx._terms, guards):
            assert stack is ctx.stacks[q.relations.index(rel)]

    def test_projected_guard_keeps_its_own_cursor(self):
        # U has 4 distinct (x1, x2) pairs, each with 2 values of x3: the
        # bound 4 * 2 goes through the projection U|{x1,x2}.
        rows = [[str(i), str(i % 2), str(j)] for i in range(4) for j in range(2)]
        q = encode_instance([("U", ("x1", "x2", "x3"), rows)], ("x1", "x2", "x3"))
        e12 = frozenset({"x1", "x2"})
        cs = ConstraintSet(
            V3,
            (V3,),
            (
                DegreeConstraint(frozenset(), V3, 9, V3),
                DegreeConstraint(frozenset(), e12, 4, V3),
                DegreeConstraint(e12, V3, 2, V3),
            ),
        )
        ctx = build_pm_context(q, cs, FractionalCover((F(1),) * 3))
        assert len(ctx.stacks) == 2  # U and U|{x1,x2}
        stacks = [term[3] for term in ctx._terms]
        assert stacks[0] is stacks[2] is ctx.stacks[0]
        assert stacks[1] is ctx.stacks[1]
        # A proper projection of weight 0 gets no cursor.
        assert len(build_pm_context(q, cs, FractionalCover((F(1), F(0), F(0)))).stacks) == 1
        ctx = build_pm_context(q, cs)
        assert solve_cover_degree(cs).weights == (F(0), F(1), F(1))
        assert ctx.estimate() == pytest.approx(8.0)
        report = verify_estimator(ctx)
        assert report.ok, report

    def test_agm_context_projects_nothing(self, triangle_query, monkeypatch):
        calls = []

        def counting_project(rel, variables):
            calls.append(variables)
            return project(rel, variables)

        monkeypatch.setattr(estimators, "project", counting_project)
        assert build_agm_context(triangle_query).estimate() == pytest.approx(8.0)
        assert calls == []

    def test_bound_and_soundness(self):
        q, cs = self.pm_fixture()
        ctx = build_pm_context(q, cs)
        answers = nested_loop_join(q)
        # The bound is tight here: exactly |ans| up to float rounding.
        assert ctx.estimate() == pytest.approx(len(answers), rel=1e-9)
        report = verify_estimator(ctx)
        assert report.ok, report

    def test_axioms_hold_on_random_degree_instances(self):
        rng = random.Random(53)
        for _ in range(30):
            q, cs = random_degree_instance(
                rng, max_vars=3, max_rels=3, max_tuples=12
            )
            ctx = build_pm_context(q, cs)
            report = verify_estimator(ctx)
            assert report.ok, report
            assert ctx.estimate() >= len(nested_loop_join(q)) - 1e-9

    def test_bit_levels_match_the_bit_encoded_query(self):
        # A degree term turns live once every bit of its A is bound, the level
        # where the bit-encoded query binds A's last bit variable. Weight 1 on
        # every constraint makes each degree term count in the value.
        rng = random.Random(67)
        for _ in range(40):
            q, cs = random_degree_instance(rng, max_vars=3, max_rels=3, max_tuples=10)
            order = compatible_order(cs)
            lay = make_layout(order, q.domain_size)
            cover = FractionalCover((Fraction(1),) * len(cs.constraints))
            ctx = EstimatorContext(q, cs, cover, order, bits=True)
            ref = build_pm_context(bin_query(q, lay), bin_constraints(cs, lay), cover)

            def walk():
                assert ctx.estimate() == ref.estimate()
                if ctx.depth < ctx.levels and ctx.node_consistent():
                    for d in (0, 1):
                        ctx.bind(d)
                        ref.bind(d)
                        walk()
                        ctx.unbind()
                        ref.unbind()

            walk()

    def test_axioms_hold_after_binarisation(self):
        rng = random.Random(59)
        for _ in range(20):
            q, cs = random_degree_instance(
                rng, max_vars=3, max_rels=3, max_tuples=10
            )
            order = compatible_order(cs)
            lay = make_layout(order, q.domain_size)
            bq = bin_query(q, lay)
            bcs = bin_constraints(cs, lay)
            ctx = build_pm_context(bq, bcs, solve_cover_degree(cs))
            report = verify_estimator(ctx)
            assert report.ok, report
            assert ctx.estimate() >= len(nested_loop_join(bq)) - 1e-9


def reference_bound(query, cs, cover, order, bits, prefix) -> tuple[float, int]:
    """The product bound at a node, from its definition and with no cursors.

    Each level of `prefix` narrows its variable to a code interval, MSB first
    at bit levels. The bound is 0 if some relation has no row inside the
    intervals. Otherwise it is the product over the weighted constraints of
    N, until every variable of A is fully bound, and after that of the number
    of distinct B-rows of the guard inside the intervals, each to its weight.
    Also returns how many weighted terms turn live at this very level with a
    count below N: a bound that read N one level too long differs there.
    """
    per_var = bit_width(query.domain_size) if bits else 1
    interval = {}
    for i, v in enumerate(order):
        levels = prefix[i * per_var : (i + 1) * per_var]
        if levels:
            lo = sum(d << (per_var - 1 - k) for k, d in enumerate(levels))
            interval[v] = (lo, lo + (1 << (per_var - len(levels))))

    def inside(variables, row):
        return all(
            interval[v][0] <= x < interval[v][1] for v, x in zip(variables, row) if v in interval
        )

    if any(not any(inside(r.variables, row) for row in r.rows) for r in query.relations):
        return 0.0, 0
    value, below = 1.0, 0
    for c, w in zip(cs.constraints, cover.weights):
        if not w:
            continue
        if not all(a in interval and interval[a][1] - interval[a][0] == 1 for a in c.A):
            value *= c.N ** float(w)
            continue
        guard = next(r for r in query.relations if frozenset(r.variables) == c.guard)
        b_idx = [i for i, v in enumerate(guard.variables) if v in c.B]
        b_vars = [guard.variables[i] for i in b_idx]
        b_rows = {tuple(row[i] for i in b_idx) for row in guard.rows}
        count = sum(inside(b_vars, row) for row in b_rows)
        value *= count ** float(w)
        ready = per_var * (1 + max((order.index(a) for a in c.A), default=-1))
        if c.A and len(prefix) == ready and count < c.N:
            below += 1
    return value, below


class TestReferenceBound:
    """`estimate()` equals the product bound computed from its definition."""

    def check_every_node(self, q, cs, cover=None) -> int:
        """Compare at every node at variable and at bit levels; the `below` total."""
        below = 0
        for bits in (False, True):
            ctx = EstimatorContext(q, cs, cover, bits=bits)
            weights = cover or solve_cover_degree(cs)
            prefix: list[int] = []

            def walk():
                nonlocal below
                value, n = reference_bound(q, cs, weights, ctx.order, bits, prefix)
                assert ctx.estimate() == pytest.approx(value, rel=1e-12, abs=0), prefix
                below += n
                if value and ctx.depth < ctx.levels:
                    for d in range(ctx.fanout):
                        prefix.append(d)
                        ctx.bind(d)
                        walk()
                        ctx.unbind()
                        prefix.pop()

            walk()
        return below

    def test_worked_triangle(self, triangle_query):
        self.check_every_node(triangle_query, cardinality_constraints(triangle_query))
        # x1 = 1 has two x2 partners in R, every other x1 one: below N = 2.
        cs = ConstraintSet(
            V3,
            (E1, E2, E3),
            cardinality_constraints(triangle_query).constraints
            + (DegreeConstraint(frozenset({"x1"}), E1, 2, E1),),
        )
        assert self.check_every_node(triangle_query, cs, FractionalCover((F(1),) * 4)) > 0

    def test_tight_degree_instances(self):
        # Under the optimal cover, some degree terms are weighted and turn
        # live below their N; weight 1 everywhere weights every term.
        rng = random.Random(71)
        below = 0
        for _ in range(40):
            q, cs = tight_degree_instance(rng)
            below += self.check_every_node(q, cs)
            self.check_every_node(q, cs, FractionalCover((F(1),) * len(cs.constraints)))
        assert below > 0


class TestVerifyEstimator:
    """Each axiom check fills its list when the estimator breaks that axiom."""

    def test_positive_value_on_an_inconsistent_node(self, triangle_query):
        ctx = build_agm_context(triangle_query)
        ctx.estimate = ctx.bound  # no consistency test
        report = verify_estimator(ctx)
        assert report.zero_violations
        assert all(value > 0.0 for _, value in report.zero_violations)
        assert not report.answer_violations

    def test_zero_value_on_a_consistent_node(self, triangle_query):
        ctx = build_agm_context(triangle_query)
        ctx.estimate = lambda: 0.0
        report = verify_estimator(ctx)
        # Every consistent node: the root, and the answers among the leaves.
        assert ((), 0.0) in report.zero_violations
        assert ((0, 0, 3), 0.0) in report.zero_violations

    def test_value_other_than_1_on_an_answer(self, triangle_query):
        ctx = build_agm_context(triangle_query)
        bound = ctx.bound
        ctx.bound = lambda: 2.0 * bound()
        report = verify_estimator(ctx)
        assert sorted(prefix for prefix, _ in report.answer_violations) == sorted(
            TRIANGLE_ANSWERS
        )
        assert all(value == 2.0 for _, value in report.answer_violations)
        assert not report.zero_violations and not report.superadditivity_violations


class TestFriedgutInequality:
    def test_product_bound_dominates_answer_count(self):
        # For any feasible weights w: |ans| <= prod |R_j|^{w_j}. Checked on
        # random instances with random feasible weight vectors.
        rng = random.Random(61)
        checked = 0
        while checked < 1000:
            q = random_query(rng, max_vars=3, max_rels=3, max_tuples=15)
            if any(r.is_empty() for r in q.relations):
                continue
            edges = [frozenset(r.variables) for r in q.relations]
            weights = [F(rng.randint(0, 4), rng.randint(1, 4)) for _ in edges]
            if check_coverage(edges, weights, q.order) is not None:
                continue
            log_bound = sum(
                float(w) * math.log(r.size) for w, r in zip(weights, q.relations)
            )
            ans = len(nested_loop_join(q))
            if ans:
                assert math.log(ans) <= log_bound + 1e-9
            checked += 1
