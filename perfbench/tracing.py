"""Span tracing of wcjoin's layers from outside the package.

Public functions and methods are wrapped by module attribute for the length
of a traced block and restored afterwards. A target that no longer exists, or
that now resolves to a function already wrapped under another name, is listed
in `Tracer.absent` instead of raising, so the benchmark keeps running across
refactors of the engine.

Every traced setup or operation is a root span. Coarse calls record a span
each (name, start, end, parent, op id); hot calls (cursor moves, estimates,
row decoding) only add their duration and count to their parent span. A
span's self time is its duration minus the time covered by its children.
"""
from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _enumerator_counts(counts, args, result):
    # Only the outermost enumerator call reports: wcj_binarised returns the
    # stats of the wcj search it runs.
    counts["enumerator.recursive_calls"] += result.recursive_calls
    counts["enumerator.consistent_calls"] += result.consistent_calls
    counts["enumerator.answers"] += result.answers_emitted


def _sampler_counts(counts, args, result):
    stats = result[1]
    counts["sampler.trials"] += stats.trials
    counts["sampler.failures"] += stats.failures
    counts["sampler.answers"] += stats.answers_returned


def _encode_counts(counts, args, result):
    counts["core.rows_encoded"] += sum(len(rows) for _, _, rows in args[0])


def _build_counts(counts, args, result):
    counts["index.rows_indexed"] += len(result)


def _cover_counts(counts, args, result):
    cs = args[0]
    counts["estimators.cover_lp_size"] += len(cs.constraints) + len(cs.variables)


# (self-time bucket, module, attribute path, hot, count hook)
TARGETS = (
    ("cli.parse", "cli", "load_spec", False, None),
    ("cli.write", "cli", "_write_answers", False, None),
    ("core.encode", "core", "encode_instance", False, _encode_counts),
    ("constraints.validate", "constraints", "validate", False, None),
    ("constraints.order", "constraints", "compatible_order", False, None),
    ("constraints.order", "constraints", "check_compatible", False, None),
    ("estimators.cover", "estimators", "solve_cover_degree", False, _cover_counts),
    ("estimators.context_build", "estimators", "EstimatorContext.__init__", False, None),
    ("estimators.cursor", "estimators", "EstimatorContext.bind", True, None),
    ("estimators.cursor", "estimators", "EstimatorContext.unbind", True, None),
    ("estimators.estimate", "estimators", "EstimatorContext.estimate", True, None),
    ("binary.bin_query", "binary", "bin_query", False, None),
    ("binary.debin", "binary", "debin_row", True, None),
    ("index.build", "index", "build", False, _build_counts),
    ("enumerator.search", "enumerator", "wcj_binarised", False, _enumerator_counts),
    ("enumerator.search", "enumerator", "wcj", False, _enumerator_counts),
    ("sampler.init", "sampler", "Sampler.__init__", False, None),
    ("sampler.walk", "sampler", "Sampler.sample", False, _sampler_counts),
)

PACKAGE = "wcjoin"  # the traced package
GLUE = "bench.glue"  # self time of the root spans: the benchmark's own code
BUCKETS = tuple(dict.fromkeys([t[0] for t in TARGETS] + [GLUE]))


class Tracer:
    """Collects spans and per-phase self times and counts; phases are 'setup' and 'op'."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id, {hot name: [calls, s]})
        self.stack: list[list] = []  # open frames: [name, start, child_s, id, hot aggregates]
        self.self_s = defaultdict(lambda: defaultdict(float))  # phase -> bucket -> seconds
        self.counts = defaultdict(lambda: defaultdict(float))  # phase -> name -> count
        self.roots = defaultdict(int)  # phase -> traced root spans
        self.absent: list[str] = []
        self._patched: list[tuple] = []
        self._phase_self = self._phase_counts = None
        self._op_id = 0
        self._ids = 0

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    # -- wrapping ---------------------------------------------------------

    def _resolve(self, module: str, path: str):
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            return None, None
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return None, None
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        return (owner, fn) if callable(fn) else (None, None)

    def install(self) -> None:
        """Wrap every target; targets that cannot be resolved are recorded as absent."""
        seen: dict[int, str] = {}
        absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for bucket, module, path, hot, hook in self.targets:
            label = f"{module}.{path}"
            owner, fn = self._resolve(module, path)
            if fn is None:
                absent.append(label)
                continue
            if id(fn) in seen:
                absent.append(f"{label} (same function as {seen[id(fn)]})")
                continue
            seen[id(fn)] = label
            wrapper = self._hot(fn, bucket, label) if hot else self._coarse(fn, bucket, label, hook)
            if isinstance(owner, type):
                self._patched.append((owner, path.rsplit(".", 1)[1], fn))
                setattr(owner, path.rsplit(".", 1)[1], wrapper)
                continue
            # Patch every module binding of the function: callers in other
            # modules look it up under names they imported.
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, name, fn))
                        setattr(mod, name, wrapper)
        self.absent = absent

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _coarse(self, fn, bucket, label, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not stack:
                return fn(*args, **kwargs)
            start = perf_counter()
            frame = [bucket, start, 0.0, tracer._new_id(), {}]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stack[-1][2] += duration
                tracer._phase_self[bucket] += duration - frame[2]
                tracer._phase_counts[label] += 1
                tracer.spans.append(
                    (frame[3], label, start, end, stack[-1][3], tracer._op_id, frame[4])
                )
            if hook is not None and not any(f[0] == bucket for f in stack):
                hook(tracer._phase_counts, args, result)
            return result

        return wrapper

    def _hot(self, fn, bucket, label):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not stack:
                return fn(*args, **kwargs)
            start = perf_counter()
            result = fn(*args, **kwargs)
            duration = perf_counter() - start
            parent = stack[-1]
            parent[2] += duration
            agg = parent[4].get(label)
            if agg is None:
                parent[4][label] = [1, duration]
            else:
                agg[0] += 1
                agg[1] += duration
            tracer._phase_self[bucket] += duration
            tracer._phase_counts[label] += 1
            return result

        return wrapper

    # -- root spans -------------------------------------------------------

    @contextmanager
    def root(self, phase: str):
        """One traced setup or operation; every wrapped call inside counts toward `phase`."""
        self._phase_self = self.self_s[phase]
        self._phase_counts = self.counts[phase]
        start = perf_counter()
        frame = [GLUE, start, 0.0, self._new_id(), {}]
        self.stack.append(frame)
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.clear()
            self._phase_self[GLUE] += (end - start) - frame[2]
            self.roots[phase] += 1
            self.spans.append((frame[3], f"bench.{phase}", start, end, None, self._op_id, frame[4]))
            self._op_id += 1

    # -- results ----------------------------------------------------------

    def count(self, name: str) -> float:
        """A count (or call count, by target label) per traced setup plus per traced operation."""
        return sum(self.counts[p][name] / n for p, n in self.roots.items() if n)

    def self_time(self, bucket: str, phases=("setup", "op")) -> float:
        """Self time per traced setup plus per traced operation."""
        return sum(self.self_s[p][bucket] / self.roots[p] for p in phases if self.roots[p])

    def write(self, path: Path) -> None:
        """Dump the spans (hot calls aggregated into their parents) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "op", "hot")
        doc = {
            "absent": self.absent,
            "roots": dict(self.roots),
            "spans": [dict(zip(fields, s)) for s in sorted(self.spans)],
        }
        path.write_text(json.dumps(doc) + "\n")
