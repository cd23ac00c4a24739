"""Trusted brute-force reference machinery for the test suite.

The join oracle enumerates the full assignment grid D^X directly, on purpose
sharing no code path with the engine under test. It is intentionally naive
and guarded against large instances.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Hashable, Iterable, Sequence

from .core import JoinQuery

ORACLE_GRID_LIMIT = 10_000_000


class OracleSizeError(ValueError):
    """Instance too large for exhaustive enumeration."""


class UnknownCategoryError(ValueError):
    """A sample fell outside the expected categories: sampler bug, not statistics."""


def nested_loop_join(query: JoinQuery, order: Sequence[str] | None = None) -> set[tuple[int, ...]]:
    """Exact answer set by testing every assignment in D^X against every relation."""
    order = tuple(order) if order is not None else query.order
    n = len(order)
    domain = query.domain_size
    if domain ** n > ORACLE_GRID_LIMIT:
        raise OracleSizeError(f"|D|^n = {domain}^{n} exceeds the oracle guard")
    pos = {v: i for i, v in enumerate(order)}
    checks = [
        (tuple(pos[v] for v in rel.variables), rel.rows)
        for rel in query.relations
    ]
    answers = set()
    for assignment in product(range(domain), repeat=n):
        if all(tuple(assignment[i] for i in idx) in rows for idx, rows in checks):
            answers.add(assignment)
    return answers


def prefix_counts(query: JoinQuery, order: Sequence[str] | None = None) -> list[int]:
    """|ans(Q restricted to the first i variables)| for i = 1..n."""
    order = tuple(order) if order is not None else query.order
    n = len(order)
    domain = query.domain_size
    counts = []
    for i in range(1, n + 1):
        if domain ** i > ORACLE_GRID_LIMIT:
            raise OracleSizeError(f"|D|^{i} exceeds the oracle guard")
        prefix = set(order[:i])
        pos = {v: j for j, v in enumerate(order[:i])}
        checks = []
        for rel in query.relations:
            keep = [j for j, v in enumerate(rel.variables) if v in prefix]
            idx = tuple(pos[rel.variables[j]] for j in keep)
            rows = {tuple(row[j] for j in keep) for row in rel.rows}
            checks.append((idx, rows))
        count = 0
        for assignment in product(range(domain), repeat=i):
            if all(tuple(assignment[j] for j in idx) in rows for idx, rows in checks):
                count += 1
        counts.append(count)
    return counts


@dataclass(frozen=True)
class UniformityReport:
    observed: dict
    chi_square: float
    degrees_of_freedom: int
    critical_value: float
    passed: bool


def chi_square_uniformity(
    samples: Iterable[Hashable], expected_categories: Iterable[Hashable]
) -> UniformityReport:
    """Pearson goodness-of-fit of the samples against uniform, at significance 0.01."""
    categories = list(expected_categories)
    observed = {c: 0 for c in categories}
    total = 0
    for s in samples:
        if s not in observed:
            raise UnknownCategoryError(f"sample {s!r} is not an expected category")
        observed[s] += 1
        total += 1
    if total < 5 * len(categories):
        raise ValueError("need at least 5 samples per category")
    expected = total / len(categories)
    stat = sum((c - expected) ** 2 / expected for c in observed.values())
    df = len(categories) - 1
    crit = chi2_critical_01(df)
    return UniformityReport(observed, stat, df, crit, stat < crit)


def chi2_critical_01(df: int) -> float:
    """0.01-significance critical value; tabulated up to df 200, Wilson-Hilferty beyond."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if df <= len(_CHI2_CRIT_01):
        return _CHI2_CRIT_01[df - 1]
    z = 2.3263478740408408  # standard normal quantile at 0.99
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * h ** 0.5) ** 3


# Critical values of the chi-square distribution at significance 0.01,
# df = 1..200.
_CHI2_CRIT_01 = (
    6.634897, 9.210340, 11.344867, 13.276704, 15.086272,
    16.811894, 18.475307, 20.090235, 21.665994, 23.209251,
    24.724970, 26.216967, 27.688250, 29.141238, 30.577914,
    31.999927, 33.408664, 34.805306, 36.190869, 37.566235,
    38.932173, 40.289360, 41.638398, 42.979820, 44.314105,
    45.641683, 46.962942, 48.278236, 49.587884, 50.892181,
    52.191395, 53.485772, 54.775540, 56.060909, 57.342073,
    58.619215, 59.892500, 61.162087, 62.428121, 63.690740,
    64.950071, 66.206236, 67.459348, 68.709513, 69.956832,
    71.201400, 72.443307, 73.682639, 74.919474, 76.153891,
    77.385962, 78.615756, 79.843338, 81.068772, 82.292117,
    83.513430, 84.732766, 85.950176, 87.165711, 88.379419,
    89.591344, 90.801532, 92.010024, 93.216860, 94.422079,
    95.625719, 96.827816, 98.028403, 99.227515, 100.425184,
    101.621441, 102.816314, 104.009834, 105.202028, 106.392923,
    107.582545, 108.770919, 109.958069, 111.144019, 112.328793,
    113.512410, 114.694895, 115.876266, 117.056544, 118.235749,
    119.413900, 120.591015, 121.767111, 122.942207, 124.116319,
    125.289463, 126.461656, 127.632913, 128.803249, 129.972679,
    131.141217, 132.308877, 133.475672, 134.641617, 135.806723,
    136.971004, 138.134471, 139.297137, 140.459013, 141.620111,
    142.780442, 143.940016, 145.098844, 146.256938, 147.414305,
    148.570958, 149.726905, 150.882155, 152.036719, 153.190604,
    154.343821, 155.496377, 156.648281, 157.799541, 158.950166,
    160.100163, 161.249540, 162.398305, 163.546466, 164.694028,
    165.841001, 166.987390, 168.133203, 169.278446, 170.423127,
    171.567251, 172.710824, 173.853854, 174.996347, 176.138307,
    177.279742, 178.420656, 179.561057, 180.700949, 181.840337,
    182.979228, 184.117626, 185.255537, 186.392965, 187.529917,
    188.666396, 189.802408, 190.937957, 192.073048, 193.207686,
    194.341876, 195.475620, 196.608925, 197.741794, 198.874232,
    200.006243, 201.137830, 202.268999, 203.399752, 204.530095,
    205.660030, 206.789561, 207.918693, 209.047428, 210.175771,
    211.303725, 212.431294, 213.558481, 214.685289, 215.811722,
    216.937783, 218.063476, 219.188803, 220.313769, 221.438375,
    222.562625, 223.686522, 224.810069, 225.933269, 227.056125,
    228.178639, 229.300816, 230.422656, 231.544164, 232.665341,
    233.786191, 234.906717, 236.026920, 237.146803, 238.266369,
    239.385621, 240.504560, 241.623190, 242.741512, 243.859529,
    244.977244, 246.094658, 247.211775, 248.328596, 249.445123,
)
