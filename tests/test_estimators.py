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
from wcjoin.core import encode_instance
from wcjoin.estimators import (
    CoverSizeError,
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

from conftest import random_degree_instance, random_query

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

    def test_size_guard(self):
        edges = [frozenset({f"x{i}"}) for i in range(15)]
        with pytest.raises(CoverSizeError):
            solve_cover_card(edges, [2] * 15, [f"x{i}" for i in range(15)])

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
        with pytest.raises(InfeasibleCoverError):
            solve_cover_degree(cs)

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
