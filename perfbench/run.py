#!/usr/bin/env python3
"""wcjoin benchmark: seeded join and sampling workloads driven through the public API.

    python3 perfbench/run.py --workload join-triangle --seed 1 --seconds 20 --trace 0

From the seed the benchmark writes CSV relations and a JSON spec, then drives
wcjoin the way `wcjoin join` and `wcjoin sample` do. A run sets up three
times (from files to a ready engine) and then repeats the workload's
operation for --seconds: one join (`wcj_binarised` plus decoding and CSV
writing) or one `Sampler.sample(1, rng)` call. Every output is checked
against a reference hash join, and the counters of repeated identical work
must agree exactly.

--trace 0 alternates every set-up and operation between the checkout's
engine and a frozen copy of it (`wcjoin_baseline`) and prints end-to-end
metrics; --trace 1 alternates untraced and traced set-ups and operations of
the checkout's engine and prints per-layer self times and counts. The last
line of standard output is one JSON object. `--workload all` runs every
workload in its own process and prints a summary; `--smoke` shrinks every
input so a run takes seconds.
"""
from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import BUCKETS, Tracer
from workloads import WORKLOADS, Workload, reference_answers, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUPS = 3  # set-ups per run and lane; setup_s is their median


def import_engine():
    """Import wcjoin from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wcjoin
        from wcjoin import cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import wcjoin from {src}: {exc}")
    if Path(wcjoin.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: wcjoin was imported from {wcjoin.__file__}, not {src}")
    return wcjoin, cli


def import_baseline():
    import wcjoin_baseline
    from wcjoin_baseline import cli

    return wcjoin_baseline, cli


class CheckError(Exception):
    """An output of the engine disagrees with the reference."""


@dataclass
class Lane:
    """One way of running the workload: which engine, and whether it is traced."""

    name: str  # "current", "baseline" or "traced"
    wc: object  # the engine package
    cli: object  # its cli module
    traced: bool = False
    engine: object = None  # the latest set-up's result
    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    sessions: list = field(default_factory=list)  # (up_over_out, memo_entries) per session


@dataclass
class Engine:
    query: object
    constraint_set: object
    order: tuple
    cover: object = None


@dataclass
class Results:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    fingerprints: list = field(default_factory=list)  # one per join, or per sampling session

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(what)


class Bench:
    def __init__(self, lanes, tracer, wl: Workload, seed: int, smoke: bool, spec_path: Path,
                 reference, ref_order):
        self.lanes, self.tracer = lanes, tracer
        self.wl, self.seed, self.smoke, self.spec_path = wl, seed, smoke, spec_path
        self.reference, self.ref_order = reference, ref_order
        self.res = Results()
        self.pairs: list[dict] = []  # {lane name: seconds} of operations run back to back

    def timed(self, lane: Lane, phase: str, fn):
        """Run fn as one set-up or operation; returns (result, seconds), or (None, None) on error.

        Errors of the frozen baseline are the benchmark's own and propagate.
        """
        if lane.name == "baseline":
            start = perf_counter()
            result = fn()
            return result, perf_counter() - start
        self.res.attempted += 1
        span = self.tracer.root(phase) if lane.traced else nullcontext()
        start = perf_counter()
        try:
            with span:
                result = fn()
        except Exception as exc:  # any engine failure, RecursionError included, counts
            self.res.fail(f"{phase}: {type(exc).__name__}: {exc}")
            return None, None
        return result, perf_counter() - start

    # -- what the CLI does --------------------------------------------------

    def setup(self, lane: Lane) -> Engine:
        wc = lane.wc
        spec = lane.cli.load_spec(self.spec_path)
        query, cs = spec.query, spec.constraint_set
        if cs is not None:
            if not all(entry.passed for entry in wc.validate(query, cs)):
                raise CheckError("a declared constraint does not hold on the data")
            order = wc.compatible_order(cs)
        else:
            order = spec.order or query.order
        if self.wl.kind == "join":
            return Engine(query, cs, order)
        if self.wl.estimator == "agm":
            cs = wc.cardinality_constraints(query)
        cover = wc.solve_cover_degree(cs)
        wc.Sampler(query, cs, cover, order)  # the ready engine; sessions build fresh ones
        return Engine(query, cs, order, cover)

    def join(self, lane: Lane, out_path: Path):
        e = lane.engine
        answers: list = []
        stats = lane.wc.wcj_binarised(e.query, answers.append, e.constraint_set, e.order)
        lane.cli._write_answers(str(out_path), e.order, e.query, answers)
        return stats

    # -- checks ---------------------------------------------------------------

    def reordered(self, row, order) -> tuple:
        values = dict(zip(order, row))
        return tuple(values[v] for v in self.ref_order)

    def check_join(self, order, out_path: Path, stats) -> tuple:
        data = out_path.read_bytes()
        rows = list(csv.reader(data.decode("utf-8").splitlines()))
        header, body = rows[0], [tuple(r) for r in rows[1:]]
        if header != list(order):
            raise CheckError(f"answer header {header} != order {list(order)}")
        found = {self.reordered(r, header) for r in body}
        if len(found) != len(body) or found != self.reference:
            raise CheckError(
                f"{len(body)} answer rows ({len(found)} distinct) != {len(self.reference)} reference answers"
            )
        return (
            getattr(stats, "recursive_calls", None),
            tuple(getattr(stats, "per_depth_calls", ())),
            len(body),
            hashlib.sha256(data).hexdigest(),
        )

    # -- the measured loop ----------------------------------------------------

    def run(self, seconds: float) -> None:
        """Set-ups, then operations, alternating between the two lanes in ABBA order.

        Both lanes see the same machine: when other tenants of a shared host
        slow it down, they slow both, and the ratio between lanes stays put.
        """
        first, second = self.lanes
        self.set_up(first)
        if first.engine is None:
            return
        # A warm-up operation, checked but not timed.
        self.operate([first])
        first.op_s.clear()
        self.pairs.clear()
        order = [second, first]
        # A join workload sets both lanes up afresh every round: set-up is cheap
        # next to a join, and fresh inputs re-draw where in memory each lane's
        # data lies, which otherwise favours one lane for a whole run.
        fresh = self.wl.kind == "join"
        for _ in range(1 if fresh else 2 * (1 if self.smoke else SETUPS) - 1):
            self.set_up(order[0])
            order.reverse()
        if second.engine is None:
            return
        start, rounds = perf_counter(), 0
        while rounds < (SETUPS if fresh else 2) or perf_counter() - start < seconds:
            if fresh:
                for lane in order:
                    self.set_up(lane)
            self.operate(order)
            order.reverse()
            rounds += 1

    def set_up(self, lane: Lane) -> None:
        # Start every set-up, join and sampling session from a collected heap,
        # as a fresh `wcjoin` process would, so garbage left by the previous
        # one adds nothing to its time.
        gc.collect()
        with self.tracer.installed() if lane.traced else nullcontext():
            engine, elapsed = self.timed(lane, "setup", lambda: self.setup(lane))
        if engine is not None:
            lane.engine = engine
            lane.setup_s.append(elapsed)

    def operate(self, lanes) -> None:
        """One join per lane, or one sampling session per lane with their calls interleaved."""
        if self.wl.kind == "join":
            pair = {}
            for lane in lanes:
                gc.collect()
                pair[lane.name] = self.join_once(lane)
            self.add_pair(pair)
            return
        gc.collect()
        sessions = [SampleSession(self, lane) for lane in lanes]
        k = self.wl.smoke_session_samples if self.smoke else self.wl.session_samples
        for i in range(k):
            self.add_pair({s.lane.name: s.step() for s in (sessions if i % 2 else sessions[::-1])})
        for session in sessions:
            session.finish()

    def add_pair(self, pair: dict) -> None:
        if None not in pair.values():
            self.pairs.append(pair)

    def join_once(self, lane: Lane) -> float | None:
        """One join; its time if it succeeded and its output is right."""
        out_path = self.spec_path.parent / f"answers-{lane.name}.csv"
        with self.tracer.installed() if lane.traced else nullcontext():
            stats, elapsed = self.timed(lane, "op", lambda: self.join(lane, out_path))
        if stats is None:
            return None
        try:
            fingerprint = self.check_join(lane.engine.order, out_path, stats)
        except (CheckError, OSError, IndexError) as exc:
            if lane.name == "baseline":
                raise
            self.res.fail(f"join output: {exc}")
            return None
        if lane.name != "baseline":
            self.res.fingerprints.append(fingerprint)
        lane.op_s.append(elapsed)
        return elapsed


class SampleSession:
    """A fresh Sampler of one lane serving sample(1) calls from random.Random(seed).

    Calling sample(1) k times consumes the RNG exactly like sample(k), so
    every session repeats the same walks and must give the same counters.
    """

    def __init__(self, bench: Bench, lane: Lane):
        e = lane.engine
        self.bench, self.lane = bench, lane
        self.sampler = lane.wc.Sampler(e.query, e.constraint_set, e.cover, e.order)
        self.rng = random.Random(bench.seed)
        self.decode = e.query.dictionary.decode
        self.digest = hashlib.sha256()
        self.trials = self.failures = 0
        self.up_root = None

    def step(self) -> float | None:
        """One sample(1) call; its time if it succeeded and returned an answer."""
        bench, lane = self.bench, self.lane
        with bench.tracer.installed() if lane.traced else nullcontext():
            out, elapsed = bench.timed(lane, "op", lambda: self.sampler.sample(1, self.rng))
        if out is None:
            return None
        rows, stats = out
        row = tuple(self.decode(c) for c in rows[0])
        if bench.reordered(row, self.sampler.order) not in bench.reference:
            if lane.name == "baseline":
                raise CheckError(f"baseline sample {row} is not an answer")
            bench.res.fail(f"sample {row} is not an answer")
            return None
        self.digest.update(repr(row).encode())
        self.trials += stats.trials
        self.failures += stats.failures
        if self.up_root is None:
            self.up_root = stats.up_root
        lane.op_s.append(elapsed)
        return elapsed

    def finish(self) -> None:
        memo = len(getattr(self.sampler, "memo", ()))
        if self.lane.name != "baseline":
            self.bench.res.fingerprints.append(
                (self.trials, self.failures, memo, self.up_root, self.digest.hexdigest()))
        if self.up_root is not None:
            self.lane.sessions.append((self.up_root / len(self.bench.reference), memo))


def peak_rss_child(name: str, seed: int, smoke: bool, spec_path: Path) -> float:
    """Set up and run one operation of the checkout's engine; the process's peak RSS in MB.

    Runs in a process of its own, which holds only what a `wcjoin` process
    would: no generated tables, no reference answers, no baseline engine.
    """
    wc, cli = import_engine()
    wl = WORKLOADS[name]
    lane = Lane("current", wc, cli)
    bench = Bench((lane,), Tracer(), wl, seed, smoke, spec_path, None, None)
    e = lane.engine = bench.setup(lane)
    if wl.kind == "join":
        bench.join(lane, spec_path.parent / "answers-rss.csv")
    else:
        k = wl.smoke_session_samples if smoke else wl.session_samples
        wc.Sampler(e.query, e.constraint_set, e.cover, e.order).sample(k, random.Random(seed))
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@contextmanager
def peak_rss_probe(name: str, seed: int, smoke: bool):
    """A child process for peak_rss_child, started now; it waits for a spec path on stdin.

    Linux starts a new process's ru_maxrss at its parent's peak RSS, so the
    child must be started while this process is small: before it builds the
    inputs, the reference and the engines.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", "0", "--peak-rss-child"] + (["--smoke"] if smoke else [])
    with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            yield proc
        finally:
            if proc.poll() is None:
                proc.kill()


def measure_peak_rss(proc, spec_path: Path, res: Results) -> float:
    """The probe's peak RSS on spec_path; a failure there counts as a failed operation."""
    res.attempted += 1
    try:
        out, err = proc.communicate(f"{spec_path}\n", timeout=170)
    except subprocess.TimeoutExpired:
        res.fail("peak memory run: timed out")
        return 0.0
    if proc.returncode != 0:
        res.fail(f"peak memory run: {err.strip().splitlines()[-1:]}")
        return 0.0
    return float(out.split()[-1])


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def engine_digest() -> str:
    """A hash of the engine's sources, so that only runs of the same code compare counters."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted((src / "wcjoin").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(wl_name: str, seed: int, smoke: bool, res: Results) -> bool:
    """Counters must repeat exactly within the run and across runs of the same code and seed."""
    if not res.fingerprints:
        return False
    first = res.fingerprints[0]
    ok = True
    for fp in res.fingerprints[1:]:
        if fp != first:
            res.fail(f"counters differ between repeats: {fp} != {first}")
            ok = False
    name = f"{wl_name}{'-smoke' if smoke else ''}-{seed}-{engine_digest()}.json"
    path = WORK_DIR / "fingerprints" / name
    record = json.dumps(first)
    if path.exists():
        if path.read_text() != record:
            res.fail(f"counters differ from an earlier run with seed {seed}")
            ok = False
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(record)
    return ok


def timings(lane: Lane) -> dict:
    """The lane's raw set-up and operation timings, as the end-to-end metrics."""
    ops = lane.op_s
    return {
        "setup_s": statistics.median(lane.setup_s),
        "op_ms.p50": statistics.median(ops) * 1e3,
        "ops_per_s": len(ops) / sum(ops),
    }


def end_to_end(nominal, current: Lane, baseline: Lane, pairs, peak_rss_mb: float) -> dict:
    """End-to-end metrics of the current engine, timings in the baseline's nominal units.

    Each timing is nominal x (current / baseline), the ratio taken over this
    run: set-up medians; the median of per-pair ratios of operations run back
    to back; total times of those pairs. When other tenants slow the host
    down they slow both operations of a pair, so the ratios keep steady.
    """
    cur, base = current.name, baseline.name
    setup_nom, p50_nom, rate_nom = nominal
    ratios = [p[cur] / p[base] for p in pairs]
    return {
        "setup_s": (setup_nom * statistics.median(current.setup_s)
                    / statistics.median(baseline.setup_s), "s"),
        "op_ms.p50": (p50_nom * statistics.median(ratios), "ms"),
        "ops_per_s": (rate_nom * sum(p[base] for p in pairs) / sum(p[cur] for p in pairs), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer(tr: Tracer, untraced: Lane, traced: Lane) -> dict:
    """Per-layer self times and counts, per traced set-up plus per traced operation."""
    t, c = tr.self_time, tr.count
    trials = c("sampler.trials")
    recursive = c("enumerator.recursive_calls")
    traced_total = {p: sum(t(b, (p,)) for b in BUCKETS) for p in ("setup", "op")}
    untraced_total = {"setup": mean(untraced.setup_s), "op": mean(untraced.op_s)}
    return {
        "cli.parse_s": (t("cli.parse"), "s"),
        "cli.write_s": (t("cli.write"), "s"),
        "core.encode_s": (t("core.encode"), "s"),
        "core.rows_encoded": (c("core.rows_encoded"), "count"),
        "constraints.validate_s": (t("constraints.validate"), "s"),
        "constraints.order_s": (t("constraints.order"), "s"),
        "estimators.cover_s": (t("estimators.cover"), "s"),
        "estimators.cover_lp_size": (c("estimators.cover_lp_size"), "count"),
        "binary.bin_query_s": (t("binary.bin_query"), "s"),
        "binary.bin_query_calls": (c("binary.bin_query"), "count"),
        "binary.debin_s": (t("binary.debin"), "s"),
        "binary.debin_calls": (c("binary.debin_row"), "count"),
        "index.build_s": (t("index.build"), "s"),
        "index.build_calls": (c("index.build"), "count"),
        "index.rows_indexed": (c("index.rows_indexed"), "count"),
        "enumerator.search_s": (t("enumerator.search"), "s"),
        "enumerator.recursive_calls": (recursive, "count"),
        "enumerator.consistent_calls": (c("enumerator.consistent_calls"), "count"),
        "enumerator.answers": (c("enumerator.answers"), "count"),
        "enumerator.consistent_ratio": (
            c("enumerator.consistent_calls") / recursive if recursive else 0.0, "ratio"),
        "estimators.context_build_s": (t("estimators.context_build"), "s"),
        "estimators.bind_calls": (c("estimators.EstimatorContext.bind"), "count"),
        "estimators.cursor_s": (t("estimators.cursor"), "s"),
        "estimators.estimate_calls": (c("estimators.EstimatorContext.estimate"), "count"),
        "estimators.estimate_s": (t("estimators.estimate"), "s"),
        "estimators.estimates_per_trial": (
            c("estimators.EstimatorContext.estimate") / trials if trials else 0.0, "ratio"),
        "sampler.init_s": (t("sampler.init"), "s"),
        "sampler.walk_s": (t("sampler.walk"), "s"),
        "sampler.trials": (trials, "count"),
        "sampler.failures": (c("sampler.failures"), "count"),
        "sampler.acceptance": (c("sampler.answers") / trials if trials else 0.0, "ratio"),
        "sampler.up_over_out": (mean([s[0] for s in traced.sessions]), "ratio"),
        "sampler.memo_entries": (mean([s[1] for s in traced.sessions]), "count"),
        "bench.glue_s": (t("bench.glue"), "s"),
        # Self times add up to the traced time; minus the untraced time of the
        # same phase in this run, that is the tracing overhead.
        "trace.self_sum_s": (traced_total["setup"] + traced_total["op"], "s"),
        "trace.untraced_setup_s": (untraced_total["setup"], "s"),
        "trace.untraced_op_s": (untraced_total["op"], "s"),
        "trace.overhead_setup_s": (traced_total["setup"] - untraced_total["setup"], "s"),
        "trace.overhead_op_s": (traced_total["op"] - untraced_total["op"], "s"),
        "trace.absent_wrappers": (len(tr.absent), "count"),
    }


def describe(lane: Lane) -> str:
    raw = ", ".join(f"{k} {v:.6g}" for k, v in timings(lane).items())
    return f"{lane.name} lane, raw: {raw} ({len(lane.setup_s)} set-ups, {len(lane.op_s)} operations)"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    wc, cli = import_engine()
    wl = WORKLOADS[name]
    run_dir = WORK_DIR / f"run-{name}-{seed}-{os.getpid()}"
    with nullcontext() if trace else peak_rss_probe(name, seed, smoke) as probe:
        current = Lane("current", wc, cli)
        other = Lane("traced", wc, cli, traced=True) if trace else Lane("baseline", *import_baseline())
        tracer = Tracer()
        try:
            inst = wl.make(random.Random(f"{name}/{seed}"), smoke)
            spec_path = write_inputs(inst, run_dir)
            reference = reference_answers(inst.tables, inst.order)
            bench = Bench((current, other), tracer, wl, seed, smoke, spec_path, reference, inst.order)
            bench.run(seconds)
            if not trace:
                peak_rss_mb = measure_peak_rss(probe, spec_path, bench.res)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    res = bench.res
    if not (current.op_s and other.op_s and bench.pairs):
        raise SystemExit(f"perfbench: {name}: no set-up or operation succeeded: {res.problems}")
    deterministic = check_determinism(name, seed, smoke, res)

    unit = "join" if wl.kind == "join" else "sample"
    print(f"workload {name} seed {seed}: machine nproc={os.cpu_count()} "
          f"python={sys.version.split()[0]}")
    print(describe(current))
    print(describe(other))
    if trace:
        metrics = per_layer(tracer, current, other)
        tracer.write(WORK_DIR / "traces" / f"{name}-{seed}.json")
        if tracer.absent:
            print("trace: absent wrappers: " + ", ".join(tracer.absent))
    else:
        # Smoke inputs are far from the nominal sizes; their times are reported raw.
        nominal = timings(other).values() if smoke else wl.nominal
        metrics = end_to_end(nominal, current, other, bench.pairs, peak_rss_mb)
    for metric, (value, unit_name) in metrics.items():
        print(f"{metric} = {value:.6g} {unit_name}")
    if not trace:
        # The same numbers under the names the join / sample operations go by.
        p50, rate = metrics["op_ms.p50"][0], metrics["ops_per_s"][0]
        p99 = percentile(sorted(current.op_s), 0.99) * p50 / statistics.median(current.op_s)
        n_ops = len(current.op_s)
        if wl.kind == "join":
            print(f"join_s.p50 = {p50 / 1e3:.6g} s (n={n_ops} joins)")
        else:
            print(f"sample_ms.p50 = {p50:.6g} ms (n={n_ops} samples)")
            print(f"sample_ms.p99 = {p99:.6g} ms (n={n_ops} samples)")
            print(f"samples_per_s = {rate:.6g} 1/s")
    print(f"error_rate = {res.failed / res.attempted:.6g} ratio "
          f"({res.failed} of {res.attempted} {unit}s, set-ups and memory runs)")
    for problem in res.problems:
        print(f"problem: {problem}")
    return {
        "correct": res.failed == 0 and deterministic,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, as a single-workload run has it."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; finishes in seconds")
    parser.add_argument("--peak-rss-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.peak_rss_child:
        spec = sys.stdin.readline().strip()
        if not spec:  # the parent ended without asking for a measurement
            return 1
        print(peak_rss_child(args.workload, args.seed, args.smoke, Path(spec)))
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
