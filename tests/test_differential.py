"""The bit-level cursor engine against the explicit bit-encoded query.

`wcj_binarised` and `Sampler` bind bits over the original relations; the
reference runs the plain engine on `bin_query`'s bit-level copy, whose
search tree is the same node for node. Answers, their order, every counter,
seeded samples and memo sizes must agree exactly.
"""
import random

from hypothesis import given
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
from wcjoin.estimators import EstimatorContext, solve_cover_degree
from wcjoin.sampler import EmptyAnswerSetError, Sampler, WorkBudgetError, sample

from conftest import random_query


@st.composite
def queries(draw, max_vars=4, max_rels=4, max_domain=9, max_rows=16):
    """A random full conjunctive query; every variable occurs in some relation."""
    variables = [f"x{i + 1}" for i in range(draw(st.integers(1, max_vars)))]
    d = draw(st.integers(1, max_domain))
    tables = []
    for j in range(draw(st.integers(1, max_rels))):
        vs = draw(st.lists(st.sampled_from(variables), min_size=1, unique=True))
        rows = draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * len(vs)), max_size=max_rows))
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
    ctx = EstimatorContext(
        bin_query(q, lay), bin_constraints(cs, lay), solve_cover_degree(cs), lay.bin_order
    )
    memo = set()
    want = outcome(
        lambda: sample(ctx, k, random.Random(seed), max_work=300, memo=memo),
        lambda bits: debin_row(bits, lay),
    )
    assert sampler.order == order
    assert got == want
    assert len(sampler.memo) == len(memo)
