#!/usr/bin/env python3
"""Mutation check: every listed fault must make the test suite fail.

    python tools/mutants.py                      # every mutant
    python tools/mutants.py --only v1-dropped    # a subset, by name
    python tools/mutants.py --list               # names, and a check of every site

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
the tier-1 suite: a full run takes several minutes. `--list` runs no tests
and checks only the sites, in well under a second.
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
    # Cursors: bind's child interval, the node's read off the first range
    # with rows, child d's the d-th half of it.
    ("bind-reads-an-empty-range", "index.py",
     "                if lo < hi:\n",
     "                if True:\n"),
    ("bind-node-interval-keeps-the-level-bit", "index.py",
     "                    a = col[lo] & -2 * w\n",
     "                    a = col[lo] & -w\n"),
    ("bind-child-1-interval-a-code-late", "index.py",
     "        a += d * w\n",
     "        a += d * (w + 1)\n"),
    # build: each group's tails sorted, and each column's run lengths, by
    # which the bit search ends a leaf's rows: a first column's its groups,
    # a middle column's the rows sharing its prefix.
    ("group-tails-unsorted", "index.py",
     "        deque(map(list.sort, groups.values()), 0)\n",
     ""),
    ("one-row-groups-in-row-order", "index.py",
     "list(map(tail_of.__getitem__, keys))",
     "list(tail_of.values())"),
    ("first-column-run-one-row-short", "index.py",
     "accumulate(sizes, initial=0), sizes)",
     "accumulate(sizes, initial=0), [n - 1 for n in sizes])"),
    ("middle-column-runs-of-the-first-column", "index.py",
     "        runs.append(array(\"I\", map(Counter(prefixes).__getitem__, prefixes)))\n",
     "        runs.append(runs[0])\n"),
    # The one narrowing loop of bind and bind_prefix: two bisects per column.
    ("narrow-lower-bisect-dropped", "index.py",
     "            lo = bisect_left(col, a, lo, hi)\n",
     ""),
    # The walk's rebind: one code interval per entry of a cut plan, read off
    # the prefix's bits. The frontier variable holds only its leading bits,
    # padded to a code interval of width w; a full variable ends `shift`
    # bits above the prefix's end.
    ("bind-prefix-interval-one-short", "index.py",
     "                narrow(pairs, a, a + w)\n",
     "                narrow(pairs, a, a + w - 1)\n"),
    ("frontier-pad-off-by-one", "index.py",
     "1 << (k - bits), pairs))",
     "1 << (k - bits) + (bits < k), pairs))"),
    ("full-variable-shift-off-by-one-level", "index.py",
     "plan.append((depth - u * k - bits,",
     "plan.append((depth - u * k - bits + (bits == k),"),
    ("reset-keeps-depth", "index.py",
     "            del st[1:]\n        self.depth = 0\n",
     "            del st[1:]\n"),
    # The one code reader: only the variables a prefix binds fully.
    ("prefix-codes-counts-a-partial-variable", "index.py",
     "        n = len(prefix) // k\n",
     "        n = -(-len(prefix) // k)\n"),
    # The sampler's two-way draw and its refutation climb: through the
    # blocks the walk appended, then the cut node's slot and its parent's
    # block, and from the root once it goes past that parent.
    ("v1-dropped", "sampler.py",
     "            if r < value + v1:\n",
     "            if r < value:\n"),
    ("refute-stops-after-one-slot", "sampler.py",
     "\n        if values[at] or values[at + 1]:",
     "\n        if True:"),
    ("refute-block-offset-off-by-one", "sampler.py",
     "        at = first + 2 * (depth - cut)",
     "        at = first + 2 * (depth - cut - 1)"),
    ("refute-cut-node-slot-kept", "sampler.py",
     "    values[cut_slot] = 0.0\n",
     ""),
    ("refute-cut-parent-block-at-the-cut-slot", "sampler.py",
     "    at = cut_slot - prefix[depth - 1]",
     "    at = cut_slot"),
    ("refute-cut-parent-check-skipped", "sampler.py",
     "    if values[at] or values[at + 1]:\n        return\n    depth -= 1\n",
     "    depth -= 1\n"),
    ("refute-never-climbs-past-the-cut-parent", "sampler.py",
     "    slots = [0]  # the slots of the nodes down to the cut node's parent",
     "    return\n    slots = [0]  # the slots of the nodes down to the cut node's parent"),
    ("refute-root-walk-stops-after-one-slot", "sampler.py",
     "            if values[at] or values[at + 1]:",
     "            if True:"),
    ("root-finite-check-dropped", "sampler.py",
     "        if not math.isfinite(self.up_root):",
     "        if False:"),
    ("coverage-check-dropped", "sampler.py",
     "            if uncovered is not None:",
     "            if False:"),
    # The walk below its cut: the cut itself, the stacks it leaves out (here
    # also those that terms read down to the frontier variable's end), its
    # cost (every stack cut, which only the per-cut bisect count sees), and
    # the overflow report.
    ("cut-one-level-short", "sampler.py",
     "    ctx.bind_prefix(prefix, ctx.frontier_cuts[level])\n",
     "    ctx.bind_prefix(prefix[:-1], ctx.frontier_cuts[level - 1])\n"),
    ("walk-cuts-every-stack", "sampler.py",
     "    ctx.bind_prefix(prefix, ctx.frontier_cuts[level])\n",
     "    ctx.bind_prefix(prefix)\n"),
    ("cut-drops-a-stack-a-later-term-reads", "estimators.py",
     "if end >= level}",
     "if end >= (level // self.per_var + 1) * self.per_var}"),
    ("overflow-escapes-as-overflow-error", "sampler.py",
     "        children_values(ctx)  # raises",
     "        pass  # raises"),
    # The expansion below the cut: its midpoint, bounds and term plan, and
    # the drawn child's rows.
    ("frontier-mid-high", "sampler.py",
     "            m = col[lo] & -w | w\n",
     "            m = (col[lo] & -w | w) + 1\n"),
    ("unnarrowed-term-to-child-0-only", "sampler.py",
     "                        t0 += x\n                        t1 += x\n",
     "                        t0 += x\n"),
    ("dead-child-bounded", "sampler.py",
     "\n                v1 = exp(t1) if live1 else 0.0\n",
     "\n                v1 = exp(t1)\n"),
    ("frontier-v1-dropped", "sampler.py",
     "\n            elif r < v0 + v1:",
     "\n            elif r < v0:"),
    ("child-1-keeps-child-0-rows", "sampler.py",
     "                    st[-1] = (st[-1][1], st[-2][1])\n",
     "                    st[-1] = (st[-1][0], st[-1][1])\n"),
    ("child-1-keeps-child-0-hi", "sampler.py",
     "                    st[-1] = (st[-1][1], st[-2][1])\n",
     "                    st[-1] = (st[-1][1], st[-1][1])\n"),
    # The two-column kernel: both live flags need both columns, and child 0
    # is pushed with its own range of the second column.
    ("kernel-live-flag-joined-with-or", "sampler.py",
     "                live0 = lo < mid and lo1 < mid1\n",
     "                live0 = lo < mid or lo1 < mid1\n"),
    ("kernel-child-0-pushes-the-whole-range", "sampler.py",
     "                st1.append((lo1, mid1))\n",
     "                st1.append((lo1, hi1))\n"),
    # The stretches: a's side dies where a column stops holding its prefix,
    # a stretch ends where the plan does, and one that stops mid-variable
    # pushes the rows of the prefix it settled. A plan's value table is read
    # at each child's own count, and a plan whose bound reads another
    # stack's live count gets none.
    ("stretch-dies-a-level-late", "sampler.py",
     "                    dead = level + w.bit_length() - miss\n",
     "                    dead = level + w.bit_length() - miss + 1\n"),
    ("stretch-runs-past-a-plan-change", "estimators.py",
     "            if shapes[level] == shapes[level + 1]:\n",
     "            if plans[level][1] > 1:\n"),
    ("mid-variable-stretch-pushes-the-full-code", "sampler.py",
     "                    p = a & -low  #",
     "                    p, low = a, 1  #"),
    ("value-table-child-0-reads-child-1-rows", "sampler.py",
     "                v0 = table[n0[j]] if live0 else 0.0\n",
     "                v0 = table[n1[j]] if live0 else 0.0\n"),
    ("stretch-ignores-another-live-count", "estimators.py",
     "            live = {j for j, table, _ in terms if table is not None}",
     "            live = {j for j, table, _ in terms if j >= 0}"),
    # A stretch's seek reads the nearest codes on both sides of a.
    ("seek-one-neighbour-only", "index.py",
     "    if miss and q > lo:\n",
     "    if False:\n"),
    ("plan-drops-terms-a-level-early", "estimators.py",
     "                elif level < last.get(id(stack), self.levels):\n",
     "                elif level < last.get(id(stack), self.levels) - 1:\n"),
    # The bit search's seeks over the smallest column of each variable.
    ("count-from-depth-0", "enumerator.py",
     "            d = (prev ^ a).bit_length()\n",
     "            d = k\n"),
    ("seek-past-the-L-block", "enumerator.py",
     "L(a).\n                pos = bisect_left(col_s, ((a >> (miss - 1)) + 1) << (miss - 1),",
     "L(a).\n                pos = bisect_left(col_s, ((a >> miss) + 1) << miss,"),
    ("one-neighbour-only", "enumerator.py",
     "                    if m and q > lo:\n                        m = min(m, (col[q - 1] ^ a).bit_length())\n",
     ""),
    # A leaf's rows in each column end its run length after its first row.
    ("leaf-run-dropped", "enumerator.py",
     "st.append((q, q + run[q]))",
     "st.append((q, hi))"),
    # The two-column kernel: both neighbours of a miss, and the other
    # column's rows of a leaf pushed directly.
    ("two-column-one-neighbour-only", "enumerator.py",
     "                if miss and q > olo:\n",
     "                if False:\n"),
    ("two-column-leaf-run-dropped", "enumerator.py",
     "ost.append((q, q + orun[q]))",
     "ost.append((q, ohi))"),
    # The last variable's leaves: each answer is emitted under the codes of
    # its own descent and recorded in a recorded visit, and the scan goes on
    # at the next code.
    ("leaf-head-stale", "enumerator.py",
     "        if j == last:\n            head = tuple(codes)\n",
     "        if j == last and not head:\n            head = tuple(codes)\n"),
    ("leaf-seek-skips-the-next-code", "enumerator.py",
     "pos += run_s[pos]\n",
     "pos += run_s[pos] + 1\n"),
    ("leaf-not-recorded", "enumerator.py",
     "                if dif is not diff:\n                    dif.append(a)\n",
     ""),
    # A settled last variable: each of its columns reads its rows of the
    # parent's leaf from the source its node entry noted (the other
    # column's run, that column's seek, or the stack's fixed range), and
    # its scan keeps the two-column kernel's rules: both neighbours, the
    # last variable's depths, the first column on a tie (only the kernel's
    # bisect count sees that), and the head of the leaf's own prefix.
    ("settle-other-column-read-as-the-scanned", "enumerator.py",
     "                elif src0 == 2:\n                    lo0 = q\n                    hi0 = q + orun[q]\n",
     "                elif src0 == 2:\n                    lo0, hi0 = pos, nxt\n"),
    ("settle-seek-read-as-the-fixed-range", "enumerator.py",
     "                        src0 = col, run, lo, hi\n",
     "                        src0 = 0\n"),
    ("settle-fixed-range-of-the-other-stack", "enumerator.py",
     "                lo1, hi1 = lst1[-1]\n",
     "                lo1, hi1 = lst0[-1]\n"),
    ("settle-one-neighbour-only", "enumerator.py",
     "                    if miss and q > xlo:\n",
     "                    if False:\n"),
    ("settle-counts-a-depth-early", "enumerator.py",
     "                        diff[levels + 1 - d] += 1\n",
     "                        diff[levels - d] += 1\n"),
    ("settle-tie-scans-the-second-column", "enumerator.py",
     "                if hi1 - lo1 < hi0 - lo0:\n",
     "                if hi1 - lo1 <= hi0 - lo0:\n"),
    ("settle-head-kept-across-leaves", "enumerator.py",
     "                head = None\n",
     ""),
    # Answers, counts and the aggregate bisect bound stay right; only the
    # per-code cost of the scan sees a second seek of each code.
    ("generic-scan-seeks-each-code-twice", "enumerator.py",
     "                    q = bisect_left(col, a, lo, hi)\n",
     "                    q = bisect_left(col, a, lo, hi)\n                    q = bisect_left(col, a, lo, hi)\n"),
    # Answers and counts stay right; only the bisect bound sees the extra scans.
    ("no-seek", "enumerator.py",
     "            if miss:\n                # Seek past the codes sharing a's prefix one bit longer than L(a).\n"
     "                pos = bisect_left(col_s, ((a >> (miss - 1)) + 1) << (miss - 1), pos + 1, end)\n",
     "            if miss:\n                pos += 1\n"),
    # The subtree cache: a hit is counted, replays every answer, and is keyed
    # by every stack the subtree reads; extra visits run down every link
    # and weight the entry's counts.
    ("hit-not-counted", "enumerator.py",
     "                hit[0] += 1\n",
     "                hit[0] += 0\n"),
    ("replay-drops-last-variable-codes", "enumerator.py",
     "            for leaf in child[skip:]:\n",
     "            for leaf in child[skip:-1]:\n"),
    ("key-without-one-stack", "enumerator.py",
     "tuple([st[-1][0] for st in ks])",
     "tuple([st[-1][0] for st in ks[1:]])"),
    ("link-adds-one-not-the-parent-extra", "enumerator.py",
     "                    child[0] += m\n",
     "                    child[0] += 1\n"),
    ("epilogue-weight-ignores-extra", "enumerator.py",
     "        weights = [1 + m for m in next(columns, ())]\n",
     "        weights = [1 for m in next(columns, ())]\n"),
    ("every-variable-uncached", "enumerator.py",
     "        keys.append(stacks if len(earlier) < i else None)\n",
     "        keys.append(None)\n"),
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
    # The public constructors check every row and code (killed by
    # test_core's TestPublicConstructorsCheckRows); encode_instance, which
    # builds its values without those checks, checks coverage itself
    # (test_core's test_uncovered_variable_rejected).
    ("relation-arity-check-dropped", "core.py",
     "            if len(row) != width:\n",
     "            if False:\n"),
    ("query-domain-check-dropped", "core.py",
     "                    if not 0 <= code < self.domain_size:\n",
     "                    if False:\n"),
    ("encode-coverage-check-dropped", "core.py",
     "    if missing:\n        raise EncodingError(",
     "    if False:\n        raise EncodingError("),
    # The front end.
    ("pm-validation-dropped", "cli.py",
     "        if broken is not None:",
     "        if False:"),
    ("guard-check-dropped", "cli.py",
     "            if guard not in edges:\n",
     "            if False:\n"),
    # A named output that fails while it is written is one error line.
    ("write-error-clause-dropped", "cli.py",
     "    try:\n        with open(path, \"w\", newline=\"\", encoding=\"utf-8\") as fh:\n"
     "            return emit(fh)\n    except OSError as exc:\n"
     "        raise SpecError(f\"cannot write {path}: {exc.strerror or exc}\") from exc\n",
     "    with open(path, \"w\", newline=\"\", encoding=\"utf-8\") as fh:\n"
     "        return emit(fh)\n"),
    # load_spec streams each relation's rows into the encoder and closes
    # every file it opened.
    ("rows-materialised", "cli.py",
     "            tables.append((name, header, _CsvRows(reader)))",
     "            tables.append((name, header, list(_CsvRows(reader))))"),
    # A read error while the rows are encoded names the relation being read
    # (the late faults of test_cli's test_malformed_specs_exit_2).
    ("read-error-clause-dropped", "cli.py",
     "        except (OSError, UnicodeDecodeError, csv.Error) as exc:\n"
     "            name = next(name for name, _, rows in reversed(tables) if rows.begun)\n"
     "            raise SpecError(f\"cannot read relation {name!r}: {exc}\") from exc\n",
     ""),
    ("relation-file-left-open", "cli.py",
     "                fh = files.enter_context(\n"
     "                    open(path.parent / entry[\"path\"], newline=\"\", encoding=\"utf-8-sig\")\n"
     "                )\n",
     "                fh = open(path.parent / entry[\"path\"], newline=\"\", encoding=\"utf-8-sig\")\n"),
    # Two outputs naming one file: a hard link has its own real path.
    ("same-file-by-real-path-only", "cli.py",
     "            os.path.exists(first) and os.path.exists(second) and os.path.samefile(first, second)\n",
     "            False\n"),
    # The answer writer joins fields itself only where csv.writer would quote
    # none, and `join` writes the chunk its sink holds when the search ends.
    # A chunk's one gather is regrouped by the order's width, its last line
    # ends in a newline, and a chunk of one field stays one field (a bare
    # str from itemgetter would be split into its characters).
    ("plain-check-misses-quote", "cli.py",
     "_QUOTED = re.compile('[,\"\\r\\n\\0]')",
     "_QUOTED = re.compile('[,\\r\\n\\0]')"),
    ("last-chunk-dropped", "cli.py",
     "        write(chunk)\n        return stats\n",
     "        return stats\n"),
    ("writer-regroups-by-the-wrong-width", "cli.py",
     "        return zip(*[iter(fields)] * width)\n",
     "        return zip(*[iter(fields)] * (width - 1))\n"),
    ("writer-last-newline-dropped", "cli.py",
     "        lines.append(\"\")  # the last row's newline\n",
     ""),
    ("one-field-chunk-split-into-characters", "cli.py",
     "if len(codes) > 1 else",
     "if codes else"),
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
    parser.add_argument(
        "--list", action="store_true", help="print the mutant names, check their sites and exit"
    )
    args = parser.parse_args(argv)
    names = [m[0] for m in MUTANTS]
    if args.list:
        print("\n".join(names))
    unknown = sorted(set(args.only or ()) - set(names))
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    mutants = [m for m in MUTANTS if not args.only or m[0] in args.only]
    problems = check_sites(mutants)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    if args.list:
        return 0

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
