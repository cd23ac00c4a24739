"""Degree constraints: validation, dependency graph, compatible orders."""
import dataclasses
import random
from itertools import permutations

import pytest

from wcjoin.constraints import (
    ConstraintSet,
    CyclicConstraintsError,
    DegreeConstraint,
    cardinality_constraints,
    check_compatible,
    compatible_order,
    dependency_graph,
    functional_dependency,
    validate,
)
from wcjoin.core import encode_instance, project
from wcjoin.estimators import solve_cover_degree
from wcjoin.oracle import prefix_counts

from conftest import random_degree_instance, random_query

E1 = frozenset({"x1", "x2"})
E2 = frozenset({"x2", "x3"})
E3 = frozenset({"x1", "x3"})
V3 = frozenset({"x1", "x2", "x3"})


def degree_class(n: int) -> ConstraintSet:
    """Cardinality n on the first edge plus two degree-2 constraints from x3."""
    return ConstraintSet(
        V3,
        (E1, E2, E3),
        (
            DegreeConstraint(frozenset(), E1, n, E1),
            DegreeConstraint(frozenset({"x3"}), E2, 2, E2),
            DegreeConstraint(frozenset({"x3"}), E3, 2, E3),
        ),
    )


class TestDegreeConstraint:
    def test_invariants(self):
        with pytest.raises(ValueError):
            DegreeConstraint(frozenset({"x1"}), frozenset({"x2"}), 1, E1)
        with pytest.raises(ValueError):
            DegreeConstraint(frozenset(), frozenset({"x1"}), 1, frozenset({"x2"}))
        with pytest.raises(ValueError):
            DegreeConstraint(frozenset(), E1, 0, E1)

    def test_functional_dependency_sugar(self):
        c = functional_dependency({"x3"}, "x2", E2)
        assert c == DegreeConstraint(frozenset({"x3"}), E2, 1, E2)
        assert not c.is_cardinality
        assert DegreeConstraint(frozenset(), E1, 4, E1).is_cardinality

    def test_constraint_set_invariants(self):
        with pytest.raises(ValueError):
            ConstraintSet(V3, (E1,), ())  # x3 not covered by any edge
        with pytest.raises(ValueError):
            ConstraintSet(
                frozenset({"x1", "x2"}),
                (E1,),
                (DegreeConstraint(frozenset(), E2, 1, E2),),  # guard not an edge
            )


class TestValidate:
    def test_triangle_constraints(self, triangle_query):
        cs = ConstraintSet(
            V3,
            (E1, E2, E3),
            (
                DegreeConstraint(frozenset(), E1, 4, E1),
                DegreeConstraint(frozenset({"x2"}), E2, 2, E2),
                DegreeConstraint(frozenset({"x1"}), E1, 1, E1),
            ),
        )
        entries = validate(triangle_query, cs)
        assert [e.passed for e in entries] == [True, True, False]
        # x1 = 1 has two x2 partners in R, refuting the functional dependency.
        failed = entries[2]
        assert failed.max_degree == 2
        assert failed.witness == {"x1": 1}

    def test_witness_is_the_first_of_the_worst_degree(self, triangle_query):
        # x2 = 0 and x2 = 1 each have two x1 partners in R. The witness is
        # the first of them in validate's walk over R's x2 values.
        cs = ConstraintSet(V3, (E1, E2, E3), (DegreeConstraint(frozenset({"x2"}), E1, 1, E1),))
        (entry,) = validate(triangle_query, cs)
        assert entry.max_degree == 2
        walk = [{"x2": x2} for (x2,) in project(triangle_query.relations[0], {"x2"}).rows]
        assert len(walk) == 2
        assert entry.witness == walk[0]

    def test_missing_guard_relation(self, triangle_query):
        e4 = frozenset({"x1", "x2", "x3"})
        cs = ConstraintSet(
            V3, (E1, E2, E3, e4), (DegreeConstraint(frozenset(), e4, 1, e4),)
        )
        (entry,) = validate(triangle_query, cs)
        assert not entry.passed
        assert entry.note == "no guard relation"

    def test_validation_matches_direct_degree_computation(self):
        # The instances include proper B on relations of arity 3 or more; the
        # copies with N one below the worst degree produce witnesses.
        rng = random.Random(31)
        proper = witnesses = 0
        for _ in range(200):
            q, cs = random_degree_instance(rng, max_vars=5, max_domain=4, max_tuples=60)
            entries = validate(q, cs)
            lowered = [
                dataclasses.replace(e.constraint, N=max(1, e.max_degree - 1)) for e in entries
            ]
            entries += validate(q, dataclasses.replace(cs, constraints=tuple(lowered)))
            for entry in entries:
                c = entry.constraint
                rel = next(r for r in q.relations if frozenset(r.variables) == c.guard)
                worst, witness = reference_degree(rel, c)
                assert entry.max_degree == worst
                assert entry.passed == (worst <= c.N)
                assert entry.witness == (None if entry.passed else witness)
                assert entry.note == ""
                proper += c.B != c.guard
                witnesses += entry.witness is not None
        assert proper > 40 and witnesses > 300


def reference_degree(rel, c: DegreeConstraint) -> tuple[int, dict[str, int] | None]:
    """Max degree of c on its guard relation, and the first A-row of that degree.

    A plain loop over the rows: the distinct B-rows of each A-row in a dict
    of sets. The A-rows are walked in the order of a frozenset built from the
    rows in `rel.rows` order, as `validate`'s walk over `project(rel, A)` is.
    """
    a_idx = [i for i, v in enumerate(rel.variables) if v in c.A]
    b_idx = [i for i, v in enumerate(rel.variables) if v in c.B]
    b_rows: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for row in rel.rows:
        b_rows.setdefault(tuple(row[i] for i in a_idx), set()).add(tuple(row[i] for i in b_idx))
    worst, witness = 0, None
    for a_row in frozenset(tuple(row[i] for i in a_idx) for row in rel.rows):
        if len(b_rows[a_row]) > worst:
            worst = len(b_rows[a_row])
            witness = {rel.variables[i]: x for i, x in zip(a_idx, a_row)}
    return worst, witness


class TestDependencyGraph:
    def test_degree_class_edges(self):
        g = dependency_graph(degree_class(4))
        assert g == frozenset({("x3", "x1"), ("x3", "x2")})

    def test_cardinality_constraints_give_no_edges(self, triangle_query):
        cs = cardinality_constraints(triangle_query)
        assert dependency_graph(cs) == frozenset()

    def test_opposed_dependencies_are_cyclic(self):
        cs = ConstraintSet(
            frozenset({"x1", "x2"}),
            (E1,),
            (
                functional_dependency({"x1"}, "x2", E1),
                functional_dependency({"x2"}, "x1", E1),
            ),
        )
        with pytest.raises(CyclicConstraintsError) as exc:
            compatible_order(cs)
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1] and set(cycle) == {"x1", "x2"}

    def test_long_cycle_is_found_without_recursion(self):
        # Deeper than Python's default recursion limit.
        n = 1200
        names = [f"x{i}" for i in range(n)]
        edges = tuple(frozenset({names[i], names[(i + 1) % n]}) for i in range(n))
        fds = tuple(
            functional_dependency({names[i]}, names[(i + 1) % n], e) for i, e in enumerate(edges)
        )
        with pytest.raises(CyclicConstraintsError) as exc:
            compatible_order(ConstraintSet(frozenset(names), edges, fds))
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1] and len(cycle) == n + 1
        assert all(succ == f"x{(int(v[1:]) + 1) % n}" for v, succ in zip(cycle, cycle[1:]))

    def test_multi_variable_determinant_is_not_cyclic(self):
        e = frozenset({"a", "b", "c"})
        cs = ConstraintSet(
            e, (e,), (DegreeConstraint(frozenset({"a", "b"}), e, 3, e),)
        )
        assert compatible_order(cs) == ("a", "b", "c")


def random_constraint_set(rng: random.Random, max_vars: int = 6) -> ConstraintSet:
    """Random degree constraints over at most max_vars variables, cyclic or not.

    The names are drawn out of alphabetical order, so that ties are broken by
    name and not by position.
    """
    variables = rng.sample("fcahebgd", rng.randint(1, max_vars))
    edges = {frozenset(rng.sample(variables, rng.randint(1, len(variables)))) for _ in range(3)}
    uncovered = set(variables).difference(*edges)
    if uncovered:
        edges.add(frozenset(uncovered))
    edges = tuple(sorted(edges, key=sorted))
    constraints = []
    for _ in range(rng.randint(0, 8)):
        guard = rng.choice(edges)
        b = rng.sample(sorted(guard), rng.randint(1, len(guard)))
        a = frozenset(b[: rng.randint(0, len(b) - 1)])
        constraints.append(DegreeConstraint(a, frozenset(b), rng.randint(1, 4), guard))
    return ConstraintSet(frozenset(variables), edges, tuple(constraints))


class TestCompatibleOrder:
    def test_is_the_smallest_compatible_order(self):
        # Brute force: permutations of the sorted names come in lexicographic
        # order, so the first compatible one is the smallest.
        rng = random.Random(12)
        cyclic = 0
        for _ in range(400):
            cs = random_constraint_set(rng)
            names = sorted(cs.variables)
            smallest = next((p for p in permutations(names) if check_compatible(cs, p)), None)
            if smallest is None:
                cyclic += 1
                with pytest.raises(CyclicConstraintsError):
                    compatible_order(cs)
            else:
                assert compatible_order(cs) == smallest
        assert 0 < cyclic < 200

    def test_reported_cycle_follows_dependency_edges(self):
        rng = random.Random(13)
        cycles = 0
        while cycles < 100:
            cs = random_constraint_set(rng)
            try:
                compatible_order(cs)
            except CyclicConstraintsError as exc:
                cycle, edges = exc.cycle, dependency_graph(cs)
                assert len(cycle) >= 3 and cycle[0] == cycle[-1], cycle
                assert all((u, v) in edges for u, v in zip(cycle, cycle[1:])), cycle
                cycles += 1

    def test_degree_class_order(self):
        cs = degree_class(4)
        assert compatible_order(cs) == ("x3", "x1", "x2")
        assert check_compatible(cs, ("x3", "x2", "x1"))
        assert not check_compatible(cs, ("x1", "x2", "x3"))
        assert not check_compatible(cs, ("x3", "x1"))
        assert not check_compatible(cs, ("x3", "x1", "x1"))

    def test_no_constraints_sorts_by_name(self, triangle_query):
        cs = cardinality_constraints(triangle_query)
        assert compatible_order(cs) == ("x1", "x2", "x3")

    def test_compatible_order_is_always_compatible(self):
        rng = random.Random(77)
        for _ in range(60):
            _, cs = random_degree_instance(rng)
            assert check_compatible(cs, compatible_order(cs))

    def test_incompatible_order_breaks_prefix_boundedness(self):
        # With x2 and x1 each determined by x3, the answer count is bounded
        # by |S| = n; binding (x1, x2) first visits n^2 consistent prefixes,
        # so the bound only controls prefixes of compatible orders.
        n = 8
        tables = [
            ("R", ("x1", "x2"), [[str(i), str(j)] for i in range(n) for j in range(n)]),
            ("S", ("x2", "x3"), [[str(i), str(i)] for i in range(n)]),
            ("T", ("x1", "x3"), [[str(i), str(i)] for i in range(n)]),
        ]
        q = encode_instance(tables, ("x1", "x2", "x3"))
        cs = ConstraintSet(
            V3,
            (E1, E2, E3),
            (
                DegreeConstraint(frozenset(), E2, n, E2),
                functional_dependency({"x3"}, "x2", E2),
                functional_dependency({"x3"}, "x1", E3),
            ),
        )
        assert all(e.passed for e in validate(q, cs))
        cover = solve_cover_degree(cs)
        p, qden = cover.bound_power([c.N for c in cs.constraints])
        assert (p, qden) == (n, 1)  # the bound is exactly n
        good = compatible_order(cs)
        assert good == ("x3", "x1", "x2")
        assert max(prefix_counts(q, good)) <= n
        bad_counts = prefix_counts(q, ("x1", "x2", "x3"))
        assert bad_counts[1] == n * n  # blows past the bound mid-enumeration


class TestCardinalityConstraints:
    def test_defaults_to_relation_sizes(self, triangle_query):
        cs = cardinality_constraints(triangle_query)
        assert len(cs.constraints) == 3
        assert all(c.is_cardinality and c.N == 4 for c in cs.constraints)
        assert cs.edges == (E1, E2, E3)

    def test_explicit_bounds_override(self, triangle_query):
        cs = cardinality_constraints(triangle_query, {E2: 10})
        by_edge = {c.guard: c.N for c in cs.constraints}
        assert by_edge == {E1: 4, E2: 10, E3: 4}

    def test_empty_relation_gets_bound_one(self):
        q = encode_instance(
            [("R", ("x1",), [["a"]]), ("S", ("x1",), [])], ("x1",)
        )
        cs = cardinality_constraints(q)
        assert [c.N for c in cs.constraints] == [1]

    def test_random_instances_validate(self):
        rng = random.Random(13)
        for _ in range(40):
            q = random_query(rng)
            cs = cardinality_constraints(q)
            assert all(e.passed for e in validate(q, cs))
