"""Batch command line front end.

Subcommands: join, sample, cover, validate (plus a hidden oracle command for
debugging). Inputs are CSV relations plus a JSON query spec:

    {
      "relations": {"R": {"path": "R.csv"}, ...},        # CSV header = variables
      "order": ["x1", "x2", "x3"],                        # optional
      "constraints": [                                    # optional
        {"A": [], "B": ["x1", "x2"], "N": 4},             # guard optional
        "x3 -> x1"                                        # functional dependency
      ],
      "weights": ["1/2", "1/2", "1/2"]                    # optional exact cover
    }

Relation paths are resolved relative to the spec file. Exit codes: 0 ok,
2 parse/validation failure, 3 constraint incompatibility or infeasible LP,
4 empty answer set (sample), 5 work budget exhausted (sample).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .constraints import (
    ConstraintSet,
    CyclicConstraintsError,
    DegreeConstraint,
    cardinality_constraints,
    check_compatible,
    compatible_order,
    functional_dependency,
    validate,
)
from .core import JoinQuery, encode_instance
from .enumerator import IncompatibleOrderError, resolve_order, wcj, wcj_binarised
from .estimators import (
    CoverError,
    FractionalCover,
    InfeasibleCoverError,
    check_coverage,
    parse_weights,
    solve_cover_degree,
)
from .oracle import nested_loop_join
from .sampler import EmptyAnswerSetError, Sampler, WorkBudgetError

EXIT_OK = 0
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


def _parse_fd(text: str) -> tuple[frozenset[str], str]:
    if "->" not in text:
        raise SpecError(f"malformed functional dependency {text!r}")
    left, right = text.split("->", 1)
    source = frozenset(v.strip() for v in left.split(",") if v.strip())
    target = right.strip()
    if not source or not target:
        raise SpecError(f"malformed functional dependency {text!r}")
    return source, target


def _pick_guard(edges: list[frozenset[str]], b: frozenset[str], what: str) -> frozenset[str]:
    for e in edges:
        if b <= e:
            return e
    raise SpecError(f"no relation can guard {what}")


def load_spec(path: str | Path) -> LoadedSpec:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    if not isinstance(doc, dict) or "relations" not in doc:
        raise SpecError("spec must be a JSON object with a 'relations' field")

    if not isinstance(doc["relations"], dict):
        raise SpecError("'relations' must be an object mapping names to relation entries")
    tables = []
    for name, entry in doc["relations"].items():
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise SpecError(f"relation {name!r}: entry must be an object with a 'path' string")
        csv_path = path.parent / entry["path"]
        try:
            with open(csv_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            raise SpecError(f"cannot read relation {name!r}: {exc}") from exc
        if not rows:
            raise SpecError(f"relation {name!r}: missing CSV header")
        header, data = rows[0], rows[1:]
        declared = entry.get("variables")
        if declared is not None and list(declared) != header:
            raise SpecError(f"relation {name!r}: header does not match declared variables")
        tables.append((name, header, data))

    order = doc.get("order")
    if order is None:
        seen: list[str] = []
        for _, header, _ in tables:
            for v in header:
                if v not in seen:
                    seen.append(v)
        order = seen
    try:
        query = encode_instance(tables, order)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc

    constraint_set = None
    raw_constraints = doc.get("constraints")
    if raw_constraints:
        edges = []
        for rel in query.relations:
            e = frozenset(rel.variables)
            if e not in edges:
                edges.append(e)
        parsed = []
        for entry in raw_constraints:
            if isinstance(entry, str):
                source, target = _parse_fd(entry)
                guard = _pick_guard(edges, source | {target}, entry)
                parsed.append(functional_dependency(source, target, guard))
                continue
            if isinstance(entry, dict) and "fd" in entry:
                source, target = _parse_fd(entry["fd"])
                guard = _pick_guard(edges, source | {target}, entry["fd"])
                parsed.append(functional_dependency(source, target, guard))
                continue
            try:
                a = frozenset(entry["A"])
                b = frozenset(entry["B"])
                n = int(entry["N"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SpecError(f"malformed constraint {entry!r}") from exc
            guard = frozenset(entry["guard"]) if "guard" in entry else _pick_guard(
                edges, b, f"constraint {entry!r}"
            )
            if guard not in edges:
                raise SpecError(f"guard {sorted(guard)} is not a relation variable set")
            try:
                parsed.append(DegreeConstraint(a, b, n, guard))
            except ValueError as exc:
                raise SpecError(str(exc)) from exc
        try:
            constraint_set = ConstraintSet(frozenset(query.order), tuple(edges), tuple(parsed))
        except ValueError as exc:
            raise SpecError(str(exc)) from exc

    weights = None
    if doc.get("weights") is not None:
        try:
            weights = parse_weights(doc["weights"])
        except (ValueError, TypeError) as exc:
            raise SpecError(f"malformed weights: {exc}") from exc

    explicit = tuple(doc["order"]) if doc.get("order") else None
    return LoadedSpec(query, constraint_set, weights, explicit)


def _decode_row(query: JoinQuery, row: tuple[int, ...]) -> list[str]:
    return [query.dictionary.decode(c) for c in row]


def _write_answers(out_path, order, query, rows) -> None:
    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(order)
        for row in rows:
            writer.writerow(_decode_row(query, row))

    if out_path:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            emit(fh)
    else:
        emit(sys.stdout)


def _write_stats(path, payload: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _explicit_order(flag: str | None, spec: LoadedSpec) -> tuple[str, ...] | None:
    """The --order flag, else the spec's order; it must permute the query variables."""
    order = tuple(v.strip() for v in (flag or "").split(",") if v.strip()) or spec.order
    if order is not None and sorted(order) != sorted(set(spec.query.order)):
        raise SpecError(f"order {','.join(order)} is not a permutation of the query variables")
    return order


def cmd_join(args) -> int:
    spec = load_spec(args.spec)
    order = _explicit_order(args.order, spec)
    query, cs = spec.query, spec.constraint_set
    started = time.perf_counter()
    answers: list[tuple[int, ...]] = []
    try:
        effective = resolve_order(query, cs, order)
        if args.no_binarise:
            stats = wcj(query, answers.append, effective)
        else:
            stats = wcj_binarised(query, answers.append, cs, effective)
    except (CyclicConstraintsError, IncompatibleOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    elapsed = time.perf_counter() - started
    _write_answers(args.output, effective, query, answers)
    payload = stats.as_dict()
    payload["wall_time_s"] = elapsed
    payload["order"] = list(effective)
    payload["binarised"] = not args.no_binarise
    _write_stats(args.stats_out, payload)
    return EXIT_OK


def _sample_cover(spec: LoadedSpec, estimator: str):
    """Constraint set + cover for the requested estimator. May raise CoverError."""
    query = spec.query
    if estimator == "agm":
        bounds = {}
        if spec.constraint_set is not None:
            for c in spec.constraint_set.constraints:
                if c.is_cardinality and c.B == c.guard:
                    bounds.setdefault(c.guard, c.N)
        cs = cardinality_constraints(query, bounds)
    else:
        if spec.constraint_set is None:
            raise SpecError("the pm estimator requires degree constraints")
        cs = spec.constraint_set
    if spec.weights is not None:
        if len(spec.weights) != len(cs.constraints):
            raise SpecError("weights must match the effective constraint list")
        uncovered = check_coverage(
            [c.B - c.A for c in cs.constraints], spec.weights, sorted(cs.variables)
        )
        if uncovered is not None:
            raise SpecError(f"supplied weights do not cover variable {uncovered!r}")
        return cs, FractionalCover(spec.weights)
    return cs, solve_cover_degree(cs)


def cmd_sample(args) -> int:
    if args.count < 1:
        raise SpecError(f"--count must be at least 1, got {args.count}")
    spec = load_spec(args.spec)
    order = _explicit_order(args.order, spec)
    try:
        cs, cover = _sample_cover(spec, args.estimator)
    except InfeasibleCoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    try:
        sampler = Sampler(spec.query, cs, cover, order)
    except (CyclicConstraintsError, IncompatibleOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("SEED", "0"))
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
    try:
        cover = solve_cover_degree(cs)
    except InfeasibleCoverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
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


def cmd_oracle(args) -> int:
    spec = load_spec(args.spec)
    query = spec.query
    answers = sorted(nested_loop_join(query))
    _write_answers(args.output, query.order, query, answers)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wcjoin", description=__doc__.split("\n")[0])
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

    p_oracle = sub.add_parser("oracle")  # debugging aid, brute force
    p_oracle.add_argument("spec")
    p_oracle.add_argument("--output")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (SpecError, CoverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
