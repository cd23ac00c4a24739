"""Batch command line front end.

Subcommands: join, sample, cover, validate. Inputs are CSV relations plus a
JSON query spec:

    {
      "relations": {"R": {"path": "R.csv"}, ...},        # CSV header = variables
      "order": ["x1", "x2", "x3"],                        # optional
      "constraints": [                                    # optional
        {"A": [], "B": ["x1", "x2"], "N": 4},             # guard optional
        "x3 -> x1"                                        # functional dependency
      ],
      "weights": ["1/2", "1/2", "1/2"]                    # optional exact cover
    }

Relation paths are resolved relative to the spec file. `join` writes its
answers as the search finds them, a chunk at a time, and holds no answer
list; its `wall_time_s` covers the search with decoding and writing. Every
answer output goes through one writer, which joins plain fields itself and
leaves values csv.writer would quote to csv.writer. Exit codes: 0 ok,
1 stdout closed by its reader, 2 parse/validation failure, 3 constraint
incompatibility or infeasible LP, 4 empty answer set (sample), 5 work budget
exhausted (sample).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import random
import re
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from operator import itemgetter
from pathlib import Path

from .constraints import (
    ConstraintSet,
    CyclicConstraintsError,
    DegreeConstraint,
    IncompatibleOrderError,
    cardinality_constraints,
    compatible_order,
    functional_dependency,
    resolve_order,
    validate,
)
from .core import JoinQuery, encode_instance
from .enumerator import wcj, wcj_binarised
from .estimators import (
    CoverError,
    FractionalCover,
    InfeasibleCoverError,
    parse_weights,
    solve_cover_degree,
)
from .sampler import EmptyAnswerSetError, Sampler, WorkBudgetError

EXIT_OK = 0
EXIT_CLOSED_OUTPUT = 1
EXIT_PARSE = 2
EXIT_INCOMPATIBLE = 3
EXIT_EMPTY = 4
EXIT_BUDGET = 5


class SpecError(ValueError):
    pass


@dataclass
class LoadedSpec:
    query: JoinQuery
    constraint_set: ConstraintSet | None
    weights: tuple[Fraction, ...] | None
    order: tuple[str, ...] | None  # explicit order from the spec file


def _names(value, what: str) -> list[str]:
    """A JSON list of strings, or SpecError naming `what`."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SpecError(f"{what} must be a list of variable names")
    return value


def _parse_fd(text: str) -> tuple[frozenset[str], str]:
    if "->" not in text:
        raise SpecError(f"malformed functional dependency {text!r}")
    left, right = text.split("->", 1)
    source = frozenset(v.strip() for v in left.split(",") if v.strip())
    target = right.strip()
    if not source or not target:
        raise SpecError(f"malformed functional dependency {text!r}")
    return source, target


def _pick_guard(edges: tuple[frozenset[str], ...], b: frozenset[str], what: str) -> frozenset[str]:
    for e in edges:
        if b <= e:
            return e
    raise SpecError(f"no relation can guard {what}")


class _CsvRows:
    """A relation's CSV rows after its header, read once, as the encoder consumes them.

    Iterating returns `filter(None, reader)`, which passes each row on in C.
    A blank line is skipped, as `csv.DictReader` does: `csv.reader` reads it
    as [], while a one-column "" reads as ['']. `begun` tells `load_spec`
    which relation the encoder was reading when a read error hit. `len()` is
    the number of lines read past the header: once the encoder is done, the
    row count, plus any blank lines and the extra lines of fields that hold
    a line break.
    """

    def __init__(self, reader):
        self._reader = reader
        self.begun = False

    def __iter__(self):
        self.begun = True
        return filter(None, self._reader)

    def __len__(self) -> int:
        return self._reader.line_num - 1


def load_spec(path: str | Path) -> LoadedSpec:
    """Parse a spec file and encode its relations into a query.

    Every relation file is opened and its header read before encoding starts,
    since the default order and the `variables` check need all headers. The
    rows are then read once, as `encode_instance` consumes them, and never
    held as strings. A leading UTF-8 byte-order mark in the spec or a CSV file
    is ignored.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    if not isinstance(doc, dict) or "relations" not in doc:
        raise SpecError("spec must be a JSON object with a 'relations' field")

    if not isinstance(doc["relations"], dict):
        raise SpecError("'relations' must be an object mapping names to relation entries")
    with ExitStack() as files:
        tables = []
        for name, entry in doc["relations"].items():
            if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
                raise SpecError(f"relation {name!r}: entry must be an object with a 'path' string")
            try:
                fh = files.enter_context(
                    open(path.parent / entry["path"], newline="", encoding="utf-8-sig")
                )
                reader = csv.reader(fh)
                header = next(reader, None)
            except (OSError, UnicodeDecodeError, csv.Error) as exc:
                raise SpecError(f"cannot read relation {name!r}: {exc}") from exc
            if header is None:
                raise SpecError(f"relation {name!r}: missing CSV header")
            declared = entry.get("variables")
            if declared is not None and _names(declared, f"relation {name!r}: 'variables'") != header:
                raise SpecError(f"relation {name!r}: header does not match declared variables")
            tables.append((name, header, _CsvRows(reader)))

        order = doc.get("order")
        if order is None:
            order = list(dict.fromkeys(v for _, header, _ in tables for v in header))
        try:
            query = encode_instance(tables, _names(order, "'order'"))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            name = next(name for name, _, rows in reversed(tables) if rows.begun)
            raise SpecError(f"cannot read relation {name!r}: {exc}") from exc
        except ValueError as exc:
            raise SpecError(str(exc)) from exc

    constraint_set = None
    raw_constraints = doc.get("constraints")
    if raw_constraints is not None and not isinstance(raw_constraints, list):
        raise SpecError("'constraints' must be a list")
    if raw_constraints:
        edges = cardinality_constraints(query).edges
        parsed = []
        for entry in raw_constraints:
            fd = entry.get("fd", entry) if isinstance(entry, dict) else entry
            if isinstance(fd, str):  # "A -> y", bare or as {"fd": "A -> y"}
                source, target = _parse_fd(fd)
                guard = _pick_guard(edges, source | {target}, fd)
                parsed.append(functional_dependency(source, target, guard))
                continue
            if not isinstance(entry, dict) or "fd" in entry or not {"A", "B", "N"} <= entry.keys():
                raise SpecError(f"malformed constraint {entry!r}")
            what = f"constraint {entry!r}"
            a = frozenset(_names(entry["A"], f"{what}: 'A'"))
            b = frozenset(_names(entry["B"], f"{what}: 'B'"))
            n = entry["N"]
            if type(n) is not int:  # also refuses true/false, which are ints in Python
                raise SpecError(f"{what}: 'N' must be an integer")
            if "guard" in entry:
                guard = frozenset(_names(entry["guard"], f"{what}: 'guard'"))
            else:
                guard = _pick_guard(edges, b, what)
            if guard not in edges:
                raise SpecError(f"guard {sorted(guard)} is not a relation variable set")
            try:
                parsed.append(DegreeConstraint(a, b, n, guard))
            except ValueError as exc:
                raise SpecError(str(exc)) from exc
        constraint_set = ConstraintSet(frozenset(query.order), edges, tuple(parsed))

    weights = None
    if doc.get("weights") is not None:
        if not isinstance(doc["weights"], list):
            raise SpecError("'weights' must be a list")
        try:
            weights = parse_weights(doc["weights"])
            for w in weights:
                float(w)  # a weight past a float's range overflows here, not in the estimator
        except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise SpecError(f"malformed weights: {exc}") from exc

    explicit = tuple(doc["order"]) if doc.get("order") else None
    return LoadedSpec(query, constraint_set, weights, explicit)


def _check_writable(*paths) -> None:
    """Before any work, refuse a named output open(path, "w") would fail on, or two
    outputs naming one file (the second would overwrite the first), creating no file."""
    named = [path for path in paths if path]
    for path in named:
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            reason = "Is a directory"
        elif not os.path.isdir(folder):
            reason = "No such file or directory"
        elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
            reason = "Permission denied"
        else:
            continue
        raise SpecError(f"cannot write {path}: {reason}")
    for first, second in combinations(named, 2):
        if os.path.realpath(first) == os.path.realpath(second) or (
            os.path.exists(first) and os.path.exists(second) and os.path.samefile(first, second)
        ):
            raise SpecError(f"cannot write {second}: same file as {first}")


def _emit(path, emit):
    """emit(fh) into a named file, else stdout, and return its result.

    Failing to open or write a named file is a SpecError (exit 2); a
    BrokenPipeError on stdout is main's exit 1.
    """
    if not path:
        return emit(sys.stdout)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            return emit(fh)
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc.strerror or exc}") from exc


# Values holding a character csv.writer may quote or treat apart (NUL, \r)
# are left to csv.writer. Answers are written _CHUNK rows at a time.
_QUOTED = re.compile('[,"\r\n\0]')
_CHUNK = 1024


def _answer_writer(fh, order, values):
    """Write `order` as the CSV header; return write(rows), which writes a list
    of code rows decoded through `values`, byte for byte as csv.writer would.

    A list of rows is decoded by one C-level gather over its codes, in row
    order, and `zip(*[fields] * width)` regroups the fields into rows. Where
    no value needs quoting and every row has at least two fields (a lone
    empty field is written as ""), a row is its fields joined by commas, one
    write in all; otherwise csv.writer writes the regrouped rows.
    """
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(order)
    width = len(order)

    def decoded(rows):
        codes = tuple(chain.from_iterable(rows))
        # itemgetter returns a lone item bare, and takes no call without one.
        fields = itemgetter(*codes)(values) if len(codes) > 1 else [values[c] for c in codes]
        return zip(*[iter(fields)] * width)

    if width < 2 or _QUOTED.search("".join(values)):
        return lambda rows: writer.writerows(decoded(rows))

    def write(rows):
        lines = list(map(",".join, decoded(rows)))
        lines.append("")  # the last row's newline
        fh.write("\n".join(lines))

    return write


def _write_answers(out_path, order, query, rows) -> None:
    def emit(fh):
        write = _answer_writer(fh, order, query.dictionary.backward)
        for at in range(0, len(rows), _CHUNK):
            write(rows[at : at + _CHUNK])

    _emit(out_path, emit)


def _write_stats(path, payload: dict) -> None:
    if path:
        _emit(path, lambda fh: fh.write(json.dumps(payload, indent=2) + "\n"))


def _order(flag: str | None, spec: LoadedSpec) -> tuple[str, ...]:
    """`resolve_order` on the spec's constraints, given --order, else the spec's order."""
    order = tuple(v.strip() for v in (flag or "").split(",") if v.strip()) or spec.order
    try:
        return resolve_order(spec.query, spec.constraint_set, order)
    except (IncompatibleOrderError, CyclicConstraintsError):
        raise
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def cmd_join(args) -> int:
    _check_writable(args.output, args.stats_out)
    spec = load_spec(args.spec)
    query = spec.query
    started = time.perf_counter()
    order = _order(args.order, spec)
    search = wcj if args.no_binarise else wcj_binarised

    def emit(fh):
        # Answers are written as the search finds them, a chunk at a time.
        write = _answer_writer(fh, order, query.dictionary.backward)
        chunk = []

        def sink(row):
            chunk.append(row)
            if len(chunk) == _CHUNK:
                write(chunk)
                chunk.clear()

        stats = search(query, sink, order=order)
        write(chunk)
        return stats

    stats = _emit(args.output, emit)
    elapsed = time.perf_counter() - started
    payload = stats.as_dict()
    payload["wall_time_s"] = elapsed
    payload["order"] = list(order)
    payload["binarised"] = not args.no_binarise
    _write_stats(args.stats_out, payload)
    return EXIT_OK


def _sample_cover(spec: LoadedSpec, estimator: str):
    """Constraint set + the spec's cover (None without weights), which `Sampler` checks."""
    query = spec.query
    if estimator == "agm":
        declared = () if spec.constraint_set is None else spec.constraint_set.constraints
        bounds = {}
        for c in declared:
            if c.is_cardinality and c.B == c.guard:
                bounds.setdefault(c.guard, c.N)
        cs = cardinality_constraints(query, bounds)
        # The spec's weights are listed for its own constraints.
        if spec.weights is not None and declared and declared != cs.constraints:
            raise SpecError(
                "the spec's weights are for its constraints, not the AGM estimator's one "
                "cardinality constraint per relation; use --estimator pm"
            )
    else:
        if spec.constraint_set is None:
            raise SpecError("the pm estimator requires degree constraints")
        cs = spec.constraint_set
        # The pm bound reads a constraint's static N until its A is bound; on data
        # that breaks it, a child can outweigh its parent and skew the samples.
        broken = next((e for e in validate(query, cs) if not e.passed), None)
        if broken is not None:
            witness = {v: query.dictionary.decode(c) for v, c in broken.witness.items()}
            raise SpecError(f"constraint {broken.constraint.describe()} fails at {witness}")
    return cs, None if spec.weights is None else FractionalCover(spec.weights)


def cmd_sample(args) -> int:
    for flag, value in (("--count", args.count), ("--max-work", args.max_work)):
        if value is not None and value < 1:
            raise SpecError(f"{flag} must be at least 1, got {value}")
    try:
        seed = args.seed if args.seed is not None else int(os.environ.get("SEED", "0"))
    except ValueError as exc:
        raise SpecError(f"SEED must be an integer, got {os.environ['SEED']!r}") from exc
    _check_writable(args.output, args.stats_out)
    spec = load_spec(args.spec)
    order = _order(args.order, spec)
    cs, cover = _sample_cover(spec, args.estimator)
    sampler = Sampler(spec.query, cs, cover, order)
    rng = random.Random(seed)
    try:
        answers, stats = sampler.sample(args.count, rng, max_work=args.max_work)
    except EmptyAnswerSetError as exc:
        print("answer set empty", file=sys.stderr)
        _write_stats(args.stats_out, {**exc.stats.as_dict(), "seed": seed})
        return EXIT_EMPTY
    except WorkBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_stats(args.stats_out, {**exc.stats.as_dict(), "seed": seed})
        return EXIT_BUDGET
    _write_answers(args.output, sampler.order, spec.query, answers)
    _write_stats(args.stats_out, {**stats.as_dict(), "seed": seed, "order": list(sampler.order)})
    return EXIT_OK


def cmd_cover(args) -> int:
    spec = load_spec(args.spec)
    cs = spec.constraint_set
    if cs is None:
        cs = cardinality_constraints(spec.query)
    cover = solve_cover_degree(cs)
    bounds = [c.N for c in cs.constraints]
    for c, w in zip(cs.constraints, cover.weights):
        print(f"{c.describe()}  weight {w}")
    print(f"weights: {cover.format_weights()}")
    print(f"log2 bound: {cover.log2_bound(bounds):.6f}")
    return EXIT_OK


def cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    query, cs = spec.query, spec.constraint_set
    if cs is None:
        print("no constraints declared")
        return EXIT_OK
    for entry in validate(query, cs):
        status = "pass" if entry.passed else "FAIL"
        detail = f"max degree {entry.max_degree}" if entry.max_degree is not None else entry.note
        line = f"{status}  {entry.constraint.describe()}  {detail}"
        if entry.witness is not None:
            decoded = {v: query.dictionary.decode(c) for v, c in entry.witness.items()}
            line += f"  witness {decoded}"
        print(line)
    try:
        order = compatible_order(cs)
        print(f"acyclic: yes; compatible order: {','.join(order)}")
    except CyclicConstraintsError as exc:
        print(f"acyclic: no; cycle: {' -> '.join(exc.cycle)}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a SpecError (exit 2, one error line)."""

    def error(self, message):
        raise SpecError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wcjoin", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_join = sub.add_parser("join", help="enumerate all answers")
    p_join.add_argument("spec")
    p_join.add_argument("--order", help="comma-separated variable order")
    p_join.add_argument("--no-binarise", action="store_true",
                        help="run the plain domain-value search instead")
    p_join.add_argument("--output", help="answers CSV path (default stdout)")
    p_join.add_argument("--stats-out", help="write run statistics JSON here")
    p_join.set_defaults(func=cmd_join)

    p_sample = sub.add_parser("sample", help="uniformly sample answers")
    p_sample.add_argument("spec")
    p_sample.add_argument("--count", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=None,
                          help="RNG seed (default: SEED env var, else 0)")
    p_sample.add_argument("--estimator", choices=("agm", "pm"), default="agm")
    p_sample.add_argument("--max-work", type=int, default=None,
                          help="abort after this many trials")
    p_sample.add_argument("--order", help="comma-separated variable order")
    p_sample.add_argument("--output", help="answers CSV path (default stdout)")
    p_sample.add_argument("--stats-out", help="write run statistics JSON here")
    p_sample.set_defaults(func=cmd_sample)

    p_cover = sub.add_parser("cover", help="solve the fractional cover LP")
    p_cover.add_argument("spec")
    p_cover.set_defaults(func=cmd_cover)

    p_validate = sub.add_parser("validate", help="check constraints against the data")
    p_validate.add_argument("spec")
    p_validate.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    # The one place a failure becomes an exit code. The first matching clause
    # wins, so an InfeasibleCoverError (a CoverError) exits 3.
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (`wcjoin join spec | head -1`). With stdout on
        # devnull, the flush at exit stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_OUTPUT
    except (CyclicConstraintsError, IncompatibleOrderError, InfeasibleCoverError) as exc:
        code = EXIT_INCOMPATIBLE
        print(f"error: {exc}", file=sys.stderr)
    except (SpecError, CoverError) as exc:
        code = EXIT_PARSE
        print(f"error: {exc}", file=sys.stderr)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
