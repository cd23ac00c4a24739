"""The bit-level cursor engine against the explicit bit-encoded query, and the
cover LP's simplex against vertex enumeration.

`wcj_binarised` and `Sampler` bind bits over the original relations; the
reference runs the plain engine on `bin_query`'s bit-level copy, whose
search tree is the same node for node. Answers, their order, every counter,
seeded samples and refutation counts must agree exactly.
"""
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcjoin.binary import bin_constraints, bin_query, debin_row, make_layout
from wcjoin.constraints import (
    ConstraintSet,
    DegreeConstraint,
    cardinality_constraints,
    compatible_order,
)
from wcjoin.core import encode_instance
from wcjoin.enumerator import wcj, wcj_binarised
from wcjoin.estimators import (
    InfeasibleCoverError,
    solve_cover_card,
    solve_cover_degree,
)
from wcjoin.sampler import EmptyAnswerSetError, Sampler, WorkBudgetError

from conftest import random_query


@st.composite
def queries(draw, max_vars=4, max_rels=4, max_domain=9, max_rows=16):
    """A random full conjunctive query; every variable occurs in some relation."""
    variables = [f"x{i + 1}" for i in range(draw(st.integers(1, max_vars)))]
    # The domain, row counts and values are uniform over their ranges, from
    # a Random that hypothesis seeds: its own integers favour small values,
    # so a wide domain would hardly ever get many distinct values.
    rng = draw(st.randoms(use_true_random=True))
    d = rng.randint(1, max_domain)
    tables = []
    for j in range(draw(st.integers(1, max_rels))):
        vs = draw(st.lists(st.sampled_from(variables), min_size=1, unique=True))
        rows = [[rng.randrange(d) for _ in vs] for _ in range(rng.randint(0, max_rows))]
        tables.append((f"R{j}", vs, [[str(c) for c in r] for r in rows]))
    missing = [v for v in variables if not any(v in t[1] for t in tables)]
    if missing:
        tables.append(("Rcov", missing, [["0"] * len(missing)]))
    return encode_instance(tables, variables)


@st.composite
def degree_instances(draw):
    """A query plus its cardinality constraints and at most one sound degree constraint."""
    q = draw(queries())
    cs = cardinality_constraints(q)
    wide = [r for r in q.relations if len(r.variables) >= 2]
    if wide and draw(st.booleans()):
        rel = draw(st.sampled_from(wide))
        b = draw(st.lists(st.sampled_from(rel.variables), min_size=2, unique=True))
        b.sort(key=q.order.index)
        a = frozenset(b[: draw(st.integers(1, len(b) - 1))])
        guard = frozenset(rel.variables)
        extra = DegreeConstraint(a, frozenset(b), max(1, rel.size), guard)
        cs = ConstraintSet(cs.variables, cs.edges, cs.constraints + (extra,))
    return q, cs


def reference_join(q, order):
    lay = make_layout(order, q.domain_size)
    out = []
    stats = wcj(bin_query(q, lay), out.append, lay.bin_order)
    return [debin_row(bits, lay) for bits in out], stats


def assert_same_join(q, order):
    out = []
    stats = wcj_binarised(q, out.append, None, order)
    ref_out, ref_stats = reference_join(q, order)
    assert out == ref_out
    assert stats.as_dict() == ref_stats.as_dict()


@given(queries(), st.data())
def test_bit_join_matches_the_bit_encoded_query(q, data):
    assert_same_join(q, data.draw(st.permutations(q.order)))


@settings(max_examples=300)
@given(queries(max_domain=300, max_rows=60), st.data())
def test_bit_join_matches_on_wide_sparse_domains(q, data):
    # Up to 300 values over at most 60 rows per relation: codes are up to 9
    # bits wide (8 or more in about a fifth of the examples) and a range
    # often holds one code long before a variable's last bit, so the bit
    # search seeks past long runs of codes that some relation lacks.
    assert_same_join(q, data.draw(st.permutations(q.order)))


def test_bit_join_matches_on_the_acceptance_generators():
    # The instances of acceptance criteria 02 (500) and 03 (300).
    for seed, count in ((20260824, 500), (30303, 300)):
        rng = random.Random(seed)
        for _ in range(count):
            q = random_query(rng, max_vars=4, max_rels=4, max_domain=6, max_tuples=40)
            assert_same_join(q, q.order)


def outcome(run, decode):
    """What a sampling run returns or raises, with answers decoded to codes."""
    try:
        answers, stats = run()
        return "ok", [decode(a) for a in answers], stats.as_dict()
    except EmptyAnswerSetError as exc:
        return "empty", [], exc.stats.as_dict()
    except WorkBudgetError as exc:
        return "budget", [decode(a) for a in exc.answers], exc.stats.as_dict()


@given(degree_instances(), st.integers(0, 2**32), st.integers(1, 12))
def test_sampler_matches_the_bit_encoded_query(instance, seed, k):
    q, cs = instance
    sampler = Sampler(q, cs)
    got = outcome(lambda: sampler.sample(k, random.Random(seed), max_work=300), tuple)

    order = compatible_order(cs)
    lay = make_layout(order, q.domain_size)
    # At domain size 2 the bit-encoded query's sampler walks the same one-bit levels.
    binned = Sampler(
        bin_query(q, lay), bin_constraints(cs, lay), solve_cover_degree(cs), lay.bin_order
    )
    want = outcome(
        lambda: binned.sample(k, random.Random(seed), max_work=300),
        lambda bits: debin_row(bits, lay),
    )
    assert sampler.order == order
    assert got == want
    assert sampler.store.refuted == binned.store.refuted


def _solve_tight(rows):
    """The w that makes every row [a | b] tight (a.w == b), or None if singular."""
    m = len(rows)
    aug = [list(r) for r in rows]
    for c in range(m):
        p = next((r for r in range(c, m) if aug[r][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(m):
            if r != c:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    return tuple(r[m] for r in aug)


def cover_by_vertex_enumeration(sets, bounds, variables):
    """The cheapest vertex of {w >= 0 : every x covered >= 1}, the smallest
    tuple among equally cheap ones; None if there is no vertex. Costs
    prod N_j^w_j are compared exactly, raised to a common integer power."""
    m = len(sets)
    one, zero = Fraction(1), Fraction(0)
    rows = [[one if x in s else zero for s in sets] + [one] for x in variables]
    rows += [[one if j == k else zero for j in range(m)] + [zero] for k in range(m)]
    best = None
    for picked in combinations(rows, m):
        w = _solve_tight(picked)
        if w is None or any(sum(a * v for a, v in zip(r, w)) < r[m] for r in rows):
            continue
        q = math.lcm(*(v.denominator for v in w)) if w else 1
        cost = math.prod(n ** int(v * q) for n, v in zip(bounds, w))
        if best is None or (cost ** best[1], w) < (best[0] ** q, best[2]):
            best = (cost, q, w)
    return None if best is None else best[2]


@st.composite
def cover_programs(draw):
    """Sets over x1..xn, some repeated, with m + n <= 10; the bounds give zero
    costs (N = 1) and linearly dependent logs (2, 4, 8, 16 and 3, 9, 27).
    Half the programs start from the cycle x1x2, x2x3, ..., xnx1, whose
    optimal covers are often fractional."""
    n = draw(st.integers(1, 5))
    variables = [f"x{i + 1}" for i in range(n)]
    sets = [frozenset({v, variables[i - 1]}) for i, v in enumerate(variables)]
    sets = sets if draw(st.booleans()) else []
    sets += draw(st.lists(st.frozensets(st.sampled_from(variables)), max_size=10 - n - len(sets)))
    if sets:
        sets += draw(st.lists(st.sampled_from(sets), max_size=10 - n - len(sets)))
    bounds = [draw(st.sampled_from([4, 8, 2, 16, 9, 3, 27, 1])) for _ in sets]
    return sets, bounds, draw(st.permutations(variables))


@given(cover_programs())
def test_cover_lp_matches_vertex_enumeration(program):
    sets, bounds, variables = program
    want = cover_by_vertex_enumeration(sets, bounds, sorted(variables))
    if want is None:
        with pytest.raises(InfeasibleCoverError) as exc:
            solve_cover_card(sets, bounds, variables)
        assert exc.value.variable == min(v for v in variables if not any(v in s for s in sets))
    else:
        assert solve_cover_card(sets, bounds, variables).weights == want
