"""Seeded benchmark inputs and the reference answers they must produce.

Every instance is built from a `random.Random` so that one seed always gives
the same CSV files and spec. The reference join below is a plain hash join
over the raw string rows; it shares no code with wcjoin, so it can judge the
engine's output.
"""
from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Instance:
    """Raw tables (name, header, rows of strings), the variable order, and spec constraints."""

    tables: tuple
    order: tuple[str, ...]
    constraints: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "join" or "sample"
    make: object  # (rng, smoke) -> Instance
    estimator: str | None = None  # "agm" or "pm" for sample workloads
    session_samples: int = 0  # sample(1) calls served by one Sampler
    smoke_session_samples: int = 0
    # The frozen baseline engine's setup_s, op_ms.p50 and ops_per_s on the
    # machine the benchmark was defined on. They fix the unit in which these
    # metrics are reported (see run.py).
    nominal: tuple[float, float, float] = (1.0, 1.0, 1.0)


def random_binary_relation(rng: random.Random, rows: int, domain: int) -> list[tuple[str, str]]:
    """`rows` distinct uniform pairs over `domain` values, in generation order."""
    pairs: dict[tuple[str, str], None] = {}
    while len(pairs) < rows:
        pairs[(str(rng.randrange(domain)), str(rng.randrange(domain)))] = None
    return list(pairs)


def triangle(rows: int, domain: int, smoke_rows: int, smoke_domain: int):
    """R(x1,x2) ⋈ S(x2,x3) ⋈ T(x1,x3), each relation uniform random."""

    def make(rng: random.Random, smoke: bool) -> Instance:
        m, d = (smoke_rows, smoke_domain) if smoke else (rows, domain)
        tables = tuple(
            (name, header, random_binary_relation(rng, m, d))
            for name, header in (("R", ("x1", "x2")), ("S", ("x2", "x3")), ("T", ("x1", "x3")))
        )
        return Instance(tables, ("x1", "x2", "x3"))

    return make


def regular_successors(rng: random.Random, values: list[str]) -> list[tuple[str, str]]:
    """Edges where 4/5 of the values have 1..4 successors (a quarter each) and
    every value has exactly two predecessors.

    Fixed degree sequences keep the answer count of the chain at exactly
    16 x |R5|, so cost differs between seeds only through the random wiring.
    """
    sources = rng.sample(values, len(values) * 4 // 5)
    degrees = [1 + i % 4 for i in range(len(sources))]
    rng.shuffle(degrees)
    stubs = values * 2
    for _ in range(10_000):
        rng.shuffle(stubs)
        edges, pos = [], 0
        for src, k in zip(sources, degrees):
            edges.extend((src, dst) for dst in stubs[pos:pos + k])
            pos += k
        if len(set(edges)) == len(edges):
            return edges
    raise RuntimeError("no duplicate-free wiring found")


def degree_chain(domain: int, smoke_domain: int):
    """Path R1(x1,x2) ⋈ ... ⋈ R5(x5,x6) with cardinality, degree and FD constraints.

    Spec constraints: one cardinality constraint per relation, degree bound 4
    on x2->x3, x3->x4 and x4->x5, and the functional dependency x5 -> x6:
    9 constraints over 6 variables.
    """

    def make(rng: random.Random, smoke: bool) -> Instance:
        d = smoke_domain if smoke else domain
        values = [str(v) for v in range(d)]
        tables = []
        for i in range(1, 5):
            tables.append((f"R{i}", (f"x{i}", f"x{i + 1}"), regular_successors(rng, values)))
        fd_rows = [(v, rng.choice(values)) for v in rng.sample(values, d * 4 // 5)]
        tables.append(("R5", ("x5", "x6"), fd_rows))
        constraints = [
            {"A": [], "B": list(header), "N": len(rows)} for _, header, rows in tables
        ]
        constraints += [
            {"A": [f"x{i}"], "B": [f"x{i}", f"x{i + 1}"], "N": 4} for i in (2, 3, 4)
        ]
        constraints.append("x5 -> x6")
        return Instance(tuple(tables), tuple(f"x{i}" for i in range(1, 7)), tuple(constraints))

    return make


WORKLOADS = {
    w.name: w
    for w in (
        Workload("join-triangle", "join", triangle(16_000, 4096, 300, 64),
                 nominal=(0.14, 2000.0, 0.5)),
        Workload("sample-triangle", "sample", triangle(1000, 64, 60, 12), "agm", 400, 15,
                 nominal=(0.06, 1.8, 400.0)),
        Workload("degree-chain-join", "join", degree_chain(300, 20),
                 nominal=(0.4, 580.0, 1.7)),
        Workload("degree-chain-sample", "sample", degree_chain(300, 20), "pm", 300, 15,
                 nominal=(3.7, 4.3, 170.0)),
    )
}


def write_inputs(inst: Instance, directory: Path) -> Path:
    """Write one CSV per table plus spec.json (the `wcjoin` CLI input format)."""
    directory.mkdir(parents=True, exist_ok=True)
    relations = {}
    for name, header, rows in inst.tables:
        with open(directory / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        relations[name] = {"path": f"{name}.csv"}
    spec = {"relations": relations, "order": list(inst.order)}
    if inst.constraints:
        spec["constraints"] = list(inst.constraints)
    path = directory / "spec.json"
    path.write_text(json.dumps(spec, indent=1) + "\n")
    return path


def reference_answers(tables, order) -> frozenset[tuple[str, ...]]:
    """Natural join of raw tables by nested hash lookups, as tuples aligned with order.

    Each table is indexed on the variables bound by the tables before it, and
    partial answers are extended depth first, so no intermediate result is
    materialised.
    """
    bound: list[str] = []
    steps = []
    for _, header, rows in tables:
        key_pos = [i for i, v in enumerate(header) if v in bound]
        new_pos = [i for i, v in enumerate(header) if v not in bound]
        index: dict[tuple, set] = {}
        for row in rows:
            index.setdefault(tuple(row[i] for i in key_pos), set()).add(
                tuple(row[i] for i in new_pos)
            )
        steps.append(([header[i] for i in key_pos], [header[i] for i in new_pos], index))
        bound += [header[i] for i in new_pos]
    if sorted(bound) != sorted(order):
        raise ValueError("order must list every table variable exactly once")

    out: set[tuple[str, ...]] = set()
    env: dict[str, str] = {}

    def extend(k: int) -> None:
        if k == len(steps):
            out.add(tuple(env[v] for v in order))
            return
        keys, news, index = steps[k]
        for ext in index.get(tuple(env[v] for v in keys), ()):
            env.update(zip(news, ext))
            extend(k + 1)

    extend(0)
    return frozenset(out)
