"""Shared fixtures: the worked triangle instance and random-instance makers."""
import random
import signal
from collections import Counter

import pytest
from hypothesis import settings

from wcjoin.constraints import (
    ConstraintSet,
    DegreeConstraint,
    cardinality_constraints,
)
from wcjoin.core import Dictionary, JoinQuery, Relation, encode_instance

# Property tests draw the same examples on every run and keep no example
# database, so the suite's verdict never depends on earlier runs.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# Wall-clock limit per test: a fault that loops forever fails its test instead
# of hanging the suite. The slowest test takes about 7 s.
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


TRIANGLE_ORDER = ("x1", "x2", "x3")

# Three binary relations over {0..3} whose join has exactly four answers:
# (0,0,3), (1,0,2), (1,1,0), (1,1,2).
TRIANGLE_TABLES = [
    ("R", ("x1", "x2"), [["0", "0"], ["1", "0"], ["1", "1"], ["2", "1"]]),
    ("S", ("x2", "x3"), [["0", "2"], ["0", "3"], ["1", "0"], ["1", "2"]]),
    ("T", ("x1", "x3"), [["0", "3"], ["1", "0"], ["1", "2"], ["2", "3"]]),
]

TRIANGLE_ANSWERS = {(0, 0, 3), (1, 0, 2), (1, 1, 0), (1, 1, 2)}


@pytest.fixture
def triangle_query() -> JoinQuery:
    return encode_instance(TRIANGLE_TABLES, TRIANGLE_ORDER)


def coded_query(order, tables, domain_size) -> JoinQuery:
    """A query whose codes are given directly: code i stands for the value str(i)."""
    values = tuple(str(i) for i in range(domain_size))
    return JoinQuery(
        tuple(order),
        tuple(Relation(tuple(vs), frozenset(rows)) for vs, rows in tables),
        domain_size,
        Dictionary({v: i for i, v in enumerate(values)}, values),
    )


def random_query(
    rng: random.Random,
    max_vars: int = 4,
    max_rels: int = 4,
    max_domain: int = 6,
    max_tuples: int = 40,
) -> JoinQuery:
    """A random full conjunctive query; every variable occurs in some relation."""
    n = rng.randint(1, max_vars)
    variables = [f"x{i + 1}" for i in range(n)]
    d = rng.randint(1, max_domain)
    tables = []
    covered: set[str] = set()
    for j in range(rng.randint(1, max_rels)):
        vs = rng.sample(variables, rng.randint(1, n))
        rows = {
            tuple(str(rng.randrange(d)) for _ in vs)
            for _ in range(rng.randint(0, max_tuples))
        }
        tables.append((f"R{j}", tuple(vs), [list(r) for r in sorted(rows)]))
        covered.update(vs)
    missing = [v for v in variables if v not in covered]
    if missing:
        rows = {
            tuple(str(rng.randrange(d)) for _ in missing)
            for _ in range(rng.randint(1, 5))
        }
        tables.append(("Rcov", tuple(missing), [list(r) for r in sorted(rows)]))
    return encode_instance(tables, variables)


def random_degree_instance(
    rng: random.Random, **kwargs
) -> tuple[JoinQuery, ConstraintSet]:
    """A random query plus acyclic degree constraints its order is compatible with.

    Starts from per-edge cardinality constraints and adds degree constraints
    whose A-variables all precede their B - A variables in the query order,
    with bounds loose enough to hold on the instance.
    """
    query = random_query(rng, **kwargs)
    base = cardinality_constraints(query)
    pos = {v: i for i, v in enumerate(query.order)}
    extra = []
    for _ in range(rng.randint(0, 2)):
        rel = rng.choice(query.relations)
        if len(rel.variables) < 2:
            continue
        b_vars = sorted(
            rng.sample(rel.variables, rng.randint(2, len(rel.variables))),
            key=pos.__getitem__,
        )
        a = frozenset(b_vars[: rng.randint(1, len(b_vars) - 1)])
        b = frozenset(b_vars)
        guard = frozenset(rel.variables)
        # Loosest sound bound: the guard size itself.
        extra.append(DegreeConstraint(a, b, max(1, rel.size), guard))
    return query, ConstraintSet(
        base.variables, base.edges, base.constraints + tuple(extra)
    )


def tight_degree_instance(rng: random.Random) -> tuple[JoinQuery, ConstraintSet]:
    """A random query of binary relations, each with a degree constraint from
    its earlier variable to its later one, bounded by the data's true maximum degree.

    Two to four variables over at most six values, at most four relations of
    at most 12 rows. The first relations join each variable after x1 to an
    earlier one, so the query is connected; the rest join random pairs, none
    twice. Bounded by
    its guard's size, the loosest sound bound (as in `random_degree_instance`),
    a degree constraint almost never gets weight in the optimal cover; bounded
    by the tightest, it does whenever its earlier variable is covered anyway.
    Every dependency edge runs forward, so the query order stays compatible.
    """
    n = rng.randint(2, 4)
    variables = [f"x{i + 1}" for i in range(n)]
    d = rng.randint(2, 6)
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    pairs += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 5 - n))]
    tables = []
    for j, (u, v) in enumerate(dict.fromkeys(pairs)):
        rows = {(str(rng.randrange(d)), str(rng.randrange(d))) for _ in range(rng.randint(1, 12))}
        tables.append((f"R{j}", (variables[u], variables[v]), [list(r) for r in sorted(rows)]))
    query = encode_instance(tables, variables)
    base = cardinality_constraints(query)
    degree = []
    for rel in query.relations:
        # Rows are distinct, so an earlier value's degree is its number of rows.
        top = max(Counter(row[0] for row in rel.rows).values())
        b = frozenset(rel.variables)
        degree.append(DegreeConstraint(frozenset(rel.variables[:1]), b, top, b))
    return query, ConstraintSet(base.variables, base.edges, base.constraints + tuple(degree))


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    import math

    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den
