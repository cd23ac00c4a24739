#!/usr/bin/env python3
"""Mutation check: every listed fault must make the test suite fail.

    python tools/mutants.py                      # every mutant
    python tools/mutants.py --only v1-dropped    # a subset, by name
    python tools/mutants.py --list               # names only

Each mutant is one exact replacement (name, file under src/wcjoin/, old,
new). It is applied to a temporary copy of src/, tests/ and pyproject.toml,
and the copy's tests run with `python -m pytest -x -q`: first
tests/test_sampler.py alone, then the whole suite. The mutant is killed
when either run fails. The sampler's own tests kill a broken sampler in
seconds, where the whole suite would first meet an unbounded sampling test
that hangs until the per-test time limit (tests/conftest.py) ends it.

The tool exits 1 if an `old` string does not occur exactly once in its file,
so a refactor that moves mutated code has to update this list; if the
unmutated copy does not pass; or if any mutant survives. It is not part of
the tier-1 suite: a full run takes several minutes.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
RUN_TIMEOUT_S = 900  # per mutant; the tests' own limit normally ends a hang first

# (name, file, old, new)
MUTANTS = (
    # Cursors: the sampler's midpoint split.
    ("split-mid-high", "index.py",
     "        m = a + self._width[level]\n",
     "        m = a + self._width[level] + 1\n"),
    ("split-mid-low", "index.py",
     "        m = a + self._width[level]\n",
     "        m = a + self._width[level] - 1\n"),
    ("sibling-keeps-child0-hi", "index.py",
     "            st[-1] = (st[-1][1], st[-2][1])",
     "            st[-1] = (st[-1][1], st[-1][1])"),
    # The sampler's in-place moves: back to child 0, and to the root.
    ("unsibling-takes-parent-hi", "index.py",
     "            st[-1] = (st[-2][0], st[-1][0])",
     "            st[-1] = (st[-2][1], st[-1][0])"),
    # The walk's rebind: one code interval per variable of a cached prefix.
    ("bind-prefix-interval-one-short", "index.py",
     "            c = a + width[end - 1]\n",
     "            c = a + width[end - 1] - 1\n"),
    ("bind-prefix-start-unset", "index.py",
     "        self._start[depth - 1] = a\n",
     ""),
    ("reset-keeps-depth", "index.py",
     "            del st[1:]\n        self.depth = 0\n",
     "            del st[1:]\n"),
    # The sampler's two-way draw and its refutation climb.
    ("v1-dropped", "sampler.py",
     "            elif r < v0 + values[at + 1]:",
     "            elif r < v0:"),
    ("refute-stops-after-one-slot", "sampler.py",
     "            if values[at] or values[at + 1]:",
     "            if True:"),
    ("root-finite-check-dropped", "sampler.py",
     "        if not math.isfinite(self.up_root):",
     "        if False:"),
    ("coverage-check-dropped", "sampler.py",
     "            if uncovered is not None:",
     "            if False:"),
    # The bit search's seeks over the smallest column of each variable.
    ("count-from-depth-0", "enumerator.py",
     "            shared = k - (prev ^ a).bit_length()\n",
     "            shared = 0\n"),
    ("seek-past-the-L-block", "enumerator.py",
     "            shift = k - span - 1 if span < k else 0\n",
     "            shift = k - span if span < k else 0\n"),
    ("one-neighbour-only", "enumerator.py",
     "                    if q > lo:\n                        miss = min(miss, (col[q - 1] ^ a).bit_length())\n",
     ""),
    ("a+1-bisect-dropped", "enumerator.py",
     "st.append((q, bisect_left(col, a + 1, q, st[-1][1])))",
     "st.append((q, st[-1][1]))"),
    # Answers and counts stay right; only the bisect bound sees the extra scans.
    ("no-seek", "enumerator.py",
     "            if span < k:\n                pos = nxt\n",
     "            if span < k:\n                pos += 1\n"),
    # The statistics both searches derive from the consistent nodes per depth.
    ("derivation-shifted-a-level", "enumerator.py",
     "        per_depth = [1] + [fanout * c for c in consistent[:-1]]",
     "        per_depth = [1] + [fanout * c for c in consistent[1:]]"),
    # The estimator: a term turns live once every bit of its A is bound.
    ("ready-without-bit-factor", "estimators.py",
     "            ready = self.per_var * (1 + max((pos[a] for a in c.A), default=-1))",
     "            ready = 1 + max((pos[a] for a in c.A), default=-1)"),
    ("ready-off-by-one", "estimators.py",
     "            if depth < ready:",
     "            if depth <= ready:"),
    # Only a constraint of weight 0 gets no term and no cursor.
    ("weight-filter-drops-weight-1", "estimators.py",
     "            if w:\n",
     "            if w not in (0, 1):\n"),
    # Only a constraint whose B is its whole guard reads the guard's cursor.
    ("whole-guard-for-projections", "estimators.py",
     "                key = (c.guard, c.B)",
     "                key = (c.guard, c.guard)"),
    # The axiom check: exactly 1 on answers.
    ("verify-answer-check-dropped", "estimators.py",
     "            if abs(value - 1.0) > rel_tol:",
     "            if False:"),
    # validate counts distinct B-rows and reports the first A-row of the worst degree.
    ("validate-b-rows-not-distinct", "constraints.py",
     "set(rows_at(rel.rows, b_idx))",
     "list(rows_at(rel.rows, b_idx))"),
    ("validate-last-witness", "constraints.py",
     "            a_row = next(r for r in a_rel.rows if degrees[r] == worst)",
     "            *_, a_row = (r for r in a_rel.rows if degrees[r] == worst)"),
    # The order rule.
    ("topological-edge-reversed", "constraints.py",
     "        ts.add(v, u)",
     "        ts.add(u, v)"),
    ("name-heap-replaced-by-fifo", "constraints.py",
     "            heapq.heappush(ready, v)\n        v = heapq.heappop(ready)",
     "            ready.append(v)\n        v = ready.pop(0)"),
    ("permutation-check-dropped", "constraints.py",
     "    if sorted(order) != sorted(query.order):",
     "    if False:"),
    # The front end.
    ("pm-validation-dropped", "cli.py",
     "        if broken is not None:",
     "        if False:"),
    # load_spec streams each relation's rows into the encoder and closes
    # every file it opened.
    ("rows-materialised", "cli.py",
     "            tables.append((name, header, _CsvRows(name, reader)))",
     "            tables.append((name, header, list(_CsvRows(name, reader))))"),
    ("relation-file-left-open", "cli.py",
     "                fh = files.enter_context(\n"
     "                    open(path.parent / entry[\"path\"], newline=\"\", encoding=\"utf-8-sig\")\n"
     "                )\n",
     "                fh = open(path.parent / entry[\"path\"], newline=\"\", encoding=\"utf-8-sig\")\n"),
    # The default guard is the first relation variable set holding B.
    ("guard-last-edge", "cli.py",
     "    for e in edges:\n        if b <= e:",
     "    for e in reversed(edges):\n        if b <= e:"),
)


def check_sites(mutants) -> list[str]:
    """Problems with the list: an `old` string missing from its file, or ambiguous."""
    problems = []
    for name, file, old, _ in mutants:
        found = (ROOT / "src" / "wcjoin" / file).read_text(encoding="utf-8").count(old)
        if found != 1:
            problems.append(f"{name}: `old` occurs {found} times in src/wcjoin/{file}, not once")
    return problems


def run_tests(copy: Path) -> tuple[bool, float, str]:
    """Run the copy's sampler tests, then all its tests; (passed, seconds, last line of output).

    pytest collects `tests/test_sampler.py tests` in directory order, so the
    sampler file gets a run of its own.
    """
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    for paths in (["tests/test_sampler.py"], []):
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *paths],
                cwd=copy, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return False, time.perf_counter() - start, f"no result within {RUN_TIMEOUT_S} s"
        lines = proc.stdout.strip().splitlines()
        last = lines[-1] if lines else ""
        if proc.returncode:
            return False, time.perf_counter() - start, last
    return True, time.perf_counter() - start, last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run these mutants only")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args(argv)
    names = [m[0] for m in MUTANTS]
    if args.list:
        print("\n".join(names))
        return 0
    unknown = sorted(set(args.only or ()) - set(names))
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    mutants = [m for m in MUTANTS if not args.only or m[0] in args.only]
    problems = check_sites(mutants)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="wcjoin-mutants-") as tmp:
        copy = Path(tmp)
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, copy / item, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / item)
        passed, seconds, last = run_tests(copy)
        print(f"unmutated  {'passed' if passed else 'FAILED'}  {seconds:6.1f} s  {last}")
        if not passed:
            print("the tests fail without any mutant; nothing to check", file=sys.stderr)
            return 1
        survived = []
        started = time.perf_counter()
        for name, file, old, new in mutants:
            target = copy / "src" / "wcjoin" / file
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(old, new), encoding="utf-8")
            try:
                passed, seconds, last = run_tests(copy)
            finally:
                target.write_text(original, encoding="utf-8")
            if passed:
                survived.append(name)
            print(f"{name:32s} {'SURVIVED' if passed else 'killed'}  {seconds:6.1f} s  {last}",
                  flush=True)
        elapsed = time.perf_counter() - started
    print(f"killed {len(mutants) - len(survived)}, survived {len(survived)}, "
          f"{elapsed:.0f} s for {len(mutants)} mutants")
    if survived:
        print(f"survivors: {', '.join(survived)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
