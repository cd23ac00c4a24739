"""Command line front end: spec parsing, outputs, exit codes, determinism."""
import csv
import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import wcjoin
from wcjoin.cli import (
    EXIT_BUDGET,
    EXIT_CLOSED_OUTPUT,
    EXIT_EMPTY,
    EXIT_INCOMPATIBLE,
    EXIT_OK,
    EXIT_PARSE,
    load_spec,
    main,
)

from conftest import TRIANGLE_ANSWERS, TRIANGLE_TABLES


def write_instance(tmp_path, tables=TRIANGLE_TABLES, extra=None):
    spec = {"relations": {}}
    for name, header, rows in tables:
        p = tmp_path / f"{name}.csv"
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        spec["relations"][name] = {"path": f"{name}.csv"}
    if extra:
        spec.update(extra)
    spec_path = tmp_path / "query.json"
    spec_path.write_text(json.dumps(spec))
    return str(spec_path)


def read_answer_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0]), {tuple(r) for r in rows[1:]}


FD_CONSTRAINTS = [
    {"A": [], "B": ["x2", "x3"], "N": 4},
    "x3 -> x1",
    {"fd": "x3 -> x2"},
]


class TestLoadSpec:
    def test_order_defaults_to_first_appearance(self, tmp_path):
        spec = load_spec(write_instance(tmp_path))
        assert spec.query.order == ("x1", "x2", "x3")
        assert spec.order is None

    def test_declared_variables_must_match_header(self, tmp_path):
        path = write_instance(tmp_path)
        doc = json.loads(Path(path).read_text())
        doc["relations"]["R"]["variables"] = ["x2", "x1"]
        (tmp_path / "query.json").write_text(json.dumps(doc))
        with pytest.raises(Exception):
            load_spec(path)

    def test_fd_sugar_and_guard_inference(self, tmp_path):
        spec = load_spec(
            write_instance(tmp_path, extra={"constraints": FD_CONSTRAINTS})
        )
        cs = spec.constraint_set
        assert len(cs.constraints) == 3
        fd = cs.constraints[1]
        assert fd.A == frozenset({"x3"})
        assert fd.B == frozenset({"x1", "x3"})
        assert fd.N == 1
        assert fd.guard == frozenset({"x1", "x3"})

    def test_default_guard_is_the_first_relation_holding_b(self, tmp_path):
        # R(x1,x2), S(x2,x3), T(x1,x3): T also holds x1 and x3, but R and S
        # come first.
        constraints = [{"A": [], "B": ["x1"], "N": 3}, {"A": [], "B": ["x3"], "N": 3}, "x3 -> x1"]
        cs = load_spec(write_instance(tmp_path, extra={"constraints": constraints})).constraint_set
        assert [c.guard for c in cs.constraints] == [
            frozenset({"x1", "x2"}),
            frozenset({"x2", "x3"}),
            frozenset({"x1", "x3"}),
        ]

    def test_rows_are_not_held_while_encoding(self, tmp_path):
        # Two 20 000-row relations over 5 000 values. Parsed into lists of
        # strings, a relation's rows take about twice the memory of the query
        # encoded from them, so holding them would triple the peak.
        rng = random.Random(0)
        relations = {}
        for name, header in (("R", "x1,x2"), ("S", "x2,x3")):
            lines = [f"{rng.randrange(5000)},{rng.randrange(5000)}" for _ in range(20_000)]
            (tmp_path / f"{name}.csv").write_text("\n".join([header, *lines]) + "\n")
            relations[name] = {"path": f"{name}.csv"}
        (tmp_path / "query.json").write_text(json.dumps({"relations": relations}))
        tracemalloc.start()
        try:
            spec = load_spec(tmp_path / "query.json")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(rel.size > 19_900 for rel in spec.query.relations)
        assert peak <= 2 * kept, (peak, kept)

    # A file left open warns when it is collected; here that fails the test.
    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_malformed_specs_exit_2(self, tmp_path, capsys, monkeypatch):
        def exits_2(argv):
            assert main(argv) == EXIT_PARSE
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), err
            return err[0]

        def every_command_exits_2(spec):
            for command in ("join", "sample", "cover", "validate"):
                exits_2([command, spec])

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        exits_2(["join", str(bad)])
        path = write_instance(tmp_path, extra={"constraints": ["x9 oops"]})
        exits_2(["join", path])
        path = write_instance(
            tmp_path, extra={"constraints": [{"A": [], "B": ["x1", "x2", "x3"], "N": 1}]}
        )
        exits_2(["join", path])  # nothing can guard B
        path = write_instance(tmp_path)
        doc = json.loads(Path(path).read_text())
        for relations in (
            {**doc["relations"], "R": {"file": "R.csv"}},  # no path
            {**doc["relations"], "R": "R.csv"},  # not an object
            list(doc["relations"].values()),  # relations not an object
        ):
            bad.write_text(json.dumps({"relations": relations}))
            exits_2(["join", str(bad)])
        for order in ("x1,x2", "x1,x2,x9", "x1,x2,x3,x1"):
            exits_2(["join", path, "--order", order])
            exits_2(["sample", path, "--order", order])
        exits_2(["sample", path, "--count", "0"])
        exits_2(["sample", path, "--count", "-3"])
        card = {"A": [], "B": ["x1", "x2"], "N": 4}
        for extra in (
            {"order": 5},
            {"order": ["x1", 2, "x3"]},
            {"constraints": 5},
            {"constraints": [{"fd": 5}]},
            {"constraints": [5]},
            {"constraints": [{**card, "guard": 5}]},
            {"constraints": [{**card, "A": "x1"}]},
            {"constraints": [{**card, "B": 5}]},
            {"constraints": [{**card, "N": 2.5}]},
            {"constraints": [{**card, "N": True}]},
            {"constraints": [{**card, "N": "4"}]},
            {"weights": "111"},
            {"weights": ["1/0"]},
            {"weights": [float("inf"), 1, 1]},  # JSON Infinity
            {"order": ["x1", "x2", "x3", "x1"]},
            {"order": ["x1", "x2", "x3", "x9"]},  # x9 is in no relation
            {"order": ["x1", "x2", "x3", "x9"], "constraints": [card]},
            {"constraints": [{**card, "fd": 5}]},
        ):
            bad.write_text(json.dumps({**doc, **extra}))
            every_command_exits_2(str(bad))
        relations = {**doc["relations"], "R": {"path": "R.csv", "variables": 5}}
        bad.write_text(json.dumps({"relations": relations}))
        exits_2(["join", str(bad)])
        # Bytes that are not UTF-8, in the spec and in a CSV file; a CSV field
        # past the csv module's size limit; a CSV row short of the header.
        bad.write_bytes(json.dumps(doc).encode()[:-1] + b', "note": "\xff"}')
        every_command_exits_2(str(bad))
        for name, data in (
            ("latin1.csv", b"x1,x2\n\xff,1\n"),
            ("wide.csv", b"x1,x2\n" + b"a" * 200_000 + b",1\n"),
            ("ragged.csv", b"x1,x2\n0,0\n1\n"),
        ):
            (tmp_path / name).write_bytes(data)
            bad.write_text(json.dumps({"relations": {**doc["relations"], "R": {"path": name}}}))
            every_command_exits_2(str(bad))
        # The same faults in T after 12 000 good rows (past 64 KB), so they
        # surface while the rows are encoded, after R and S.
        good = b"x1,x3\n" + b"".join(b"%d,%d\n" % (i, i % 89) for i in range(12_000))
        for name, fault in (
            ("late-latin1.csv", b"\xff,1\n"),
            ("late-wide.csv", b"a" * 200_000 + b",1\n"),
            ("late-ragged.csv", b"1\n"),
        ):
            (tmp_path / name).write_bytes(good + fault)
            bad.write_text(json.dumps({"relations": {**doc["relations"], "T": {"path": name}}}))
            for command in ("join", "sample", "cover", "validate"):
                assert "'T'" in exits_2([command, str(bad)])
        gc.collect()
        exits_2(["sample", path, "--max-work", "0"])
        # Command lines that argparse itself rejects.
        exits_2(["sample", path, "--count", "abc"])
        exits_2(["join", path, "--bogus"])
        exits_2(["nosuch"])
        # The weights cover the triangle, but the bound e^(3000 ln 4) overflows a float.
        bad.write_text(json.dumps({**doc, "weights": ["1000", "1000", "1000"]}))
        exits_2(["sample", str(bad)])
        monkeypatch.setenv("SEED", "abc")
        exits_2(["sample", path])


class TestJoin:
    def test_triangle_to_csv(self, tmp_path):
        spec = write_instance(tmp_path)
        out = tmp_path / "ans.csv"
        stats = tmp_path / "stats.json"
        code = main(
            ["join", spec, "--output", str(out), "--stats-out", str(stats)]
        )
        assert code == EXIT_OK
        header, rows = read_answer_csv(out)
        assert header == ("x1", "x2", "x3")
        assert rows == {tuple(str(c) for c in a) for a in TRIANGLE_ANSWERS}
        payload = json.loads(stats.read_text())
        assert payload["answers_emitted"] == 4
        assert payload["binarised"] is True
        assert payload["order"] == ["x1", "x2", "x3"]

    def test_plain_and_binarised_agree(self, tmp_path):
        spec = write_instance(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["join", spec, "--output", str(a)]) == EXIT_OK
        assert main(["join", spec, "--no-binarise", "--output", str(b)]) == EXIT_OK
        assert read_answer_csv(a) == read_answer_csv(b)

    def test_round_trip_through_csv(self, tmp_path):
        # Feed the answers back in as a relation; joining it alone returns it.
        spec = write_instance(tmp_path)
        out = tmp_path / "ans.csv"
        main(["join", spec, "--output", str(out)])
        spec2 = {"relations": {"A": {"path": "ans.csv"}}}
        (tmp_path / "query2.json").write_text(json.dumps(spec2))
        out2 = tmp_path / "ans2.csv"
        assert main(["join", str(tmp_path / "query2.json"), "--output", str(out2)]) == EXIT_OK
        assert read_answer_csv(out2)[1] == read_answer_csv(out)[1]

    def test_empty_answer_set_writes_header_only(self, tmp_path):
        tables = [t for t in TRIANGLE_TABLES if t[0] != "T"] + [
            ("T", ("x1", "x3"), [])
        ]
        spec = write_instance(tmp_path, tables)
        out = tmp_path / "ans.csv"
        assert main(["join", spec, "--output", str(out)]) == EXIT_OK
        header, rows = read_answer_csv(out)
        assert header == ("x1", "x2", "x3") and rows == set()

    def test_incompatible_order_exits_3(self, tmp_path, capsys):
        spec = write_instance(tmp_path, extra={"constraints": FD_CONSTRAINTS})
        code = main(["join", spec, "--order", "x1,x2,x3"])
        assert code == EXIT_INCOMPATIBLE
        assert "error:" in capsys.readouterr().err

    def test_constraints_pick_the_compatible_order(self, tmp_path):
        spec = write_instance(tmp_path, extra={"constraints": FD_CONSTRAINTS})
        out = tmp_path / "ans.csv"
        assert main(["join", spec, "--output", str(out)]) == EXIT_OK
        header, rows = read_answer_csv(out)
        assert header == ("x3", "x1", "x2")
        assert {(a, b, c) for c, a, b in rows} == {
            tuple(str(v) for v in t) for t in TRIANGLE_ANSWERS
        }

    def test_cyclic_constraints_exit_3(self, tmp_path):
        spec = write_instance(
            tmp_path, extra={"constraints": ["x1 -> x2", "x2 -> x1"]}
        )
        assert main(["join", spec]) == EXIT_INCOMPATIBLE


    def test_byte_order_mark_is_ignored(self, tmp_path):
        # Spreadsheet tools often start a UTF-8 file with the mark U+FEFF.
        spec = write_instance(tmp_path)
        plain, out = tmp_path / "plain.csv", tmp_path / "out.csv"
        assert main(["join", spec, "--output", str(plain)]) == EXIT_OK
        r_csv, spec_path = tmp_path / "R.csv", Path(spec)
        original = {p: p.read_bytes() for p in (r_csv, spec_path)}
        bom = b"\xef\xbb\xbf"
        for path, data in (
            (r_csv, bom + original[r_csv]),
            (r_csv, bom + original[r_csv].replace(b"x1,x2", b'"x1","x2"', 1)),
            (spec_path, bom + original[spec_path]),
        ):
            path.write_bytes(data)
            assert main(["join", spec, "--output", str(out)]) == EXIT_OK
            assert out.read_bytes() == plain.read_bytes()
            path.write_bytes(original[path])


class TestSample:
    def test_sampling_is_deterministic_per_seed(self, tmp_path):
        spec = write_instance(tmp_path)
        outs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            code = main(
                ["sample", spec, "--count", "25", "--seed", "42", "--output", str(out)]
            )
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        other = tmp_path / "s3.csv"
        main(["sample", spec, "--count", "25", "--seed", "43", "--output", str(other)])
        assert other.read_bytes() != outs[0]

    def test_seed_env_default(self, tmp_path, monkeypatch):
        spec = write_instance(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SEED", "7")
        main(["sample", spec, "--count", "10", "--output", str(a)])
        main(["sample", spec, "--count", "10", "--seed", "7", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_samples_are_answers(self, tmp_path):
        spec = write_instance(tmp_path)
        out = tmp_path / "s.csv"
        stats = tmp_path / "st.json"
        code = main(
            ["sample", spec, "--count", "50", "--seed", "1",
             "--output", str(out), "--stats-out", str(stats)]
        )
        assert code == EXIT_OK
        header, rows = read_answer_csv(out)
        raw_answers = {tuple(str(c) for c in a) for a in TRIANGLE_ANSWERS}
        assert header == ("x1", "x2", "x3")
        assert set(rows) <= raw_answers
        payload = json.loads(stats.read_text())
        assert payload["answers_returned"] == 50
        assert payload["seed"] == 1

    def test_empty_answer_set_exits_4(self, tmp_path, capsys):
        tables = [t for t in TRIANGLE_TABLES if t[0] != "T"] + [
            ("T", ("x1", "x3"), [])
        ]
        spec = write_instance(tmp_path, tables)
        stats = tmp_path / "st.json"
        code = main(["sample", spec, "--count", "1", "--stats-out", str(stats)])
        assert code == EXIT_EMPTY
        assert "answer set empty" in capsys.readouterr().err
        assert json.loads(stats.read_text())["final_up_root"] == 0.0

    def test_budget_exhaustion_exits_5(self, tmp_path):
        spec = write_instance(tmp_path)
        code = main(
            ["sample", spec, "--count", "1000000", "--max-work", "20", "--seed", "3"]
        )
        assert code == EXIT_BUDGET

    def test_pm_estimator_needs_constraints(self, tmp_path, capsys):
        spec = write_instance(tmp_path)
        assert main(["sample", spec, "--estimator", "pm"]) == EXIT_PARSE
        # The triangle breaks FD_CONSTRAINTS (x3 -> x1 fails at x3=3).
        spec = write_instance(tmp_path, extra={"constraints": FD_CONSTRAINTS})
        capsys.readouterr()
        assert main(["sample", spec, "--estimator", "pm", "--seed", "5"]) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "{'x3': '3'}" in err[0], err
        # Constraints the triangle satisfies, with the same dependency edges.
        holding = [
            {"A": [], "B": ["x2", "x3"], "N": 4},
            {"A": ["x3"], "B": ["x1", "x3"], "N": 2},
            {"A": ["x3"], "B": ["x2", "x3"], "N": 2},
        ]
        spec = write_instance(tmp_path, extra={"constraints": holding})
        out = tmp_path / "pm.csv"
        code = main(
            ["sample", spec, "--estimator", "pm", "--count", "30",
             "--seed", "5", "--output", str(out)]
        )
        assert code == EXIT_OK
        header, rows = read_answer_csv(out)
        assert header == ("x3", "x1", "x2")
        assert {(a, b, c) for c, a, b in rows} <= {
            tuple(str(v) for v in t) for t in TRIANGLE_ANSWERS
        }

    def test_pm_refuses_data_that_breaks_a_constraint(self, tmp_path, capsys):
        # x1 = 0 has three x2 values; the pm bound would never draw (1, 0).
        tables = [("R", ("x1", "x2"), [["0", "0"], ["0", "1"], ["0", "2"], ["1", "0"]])]
        constraints = [{"A": [], "B": ["x1"], "N": 2}, "x1 -> x2"]
        spec = write_instance(tmp_path, tables, extra={"constraints": constraints})
        args = ["sample", spec, "--count", "20", "--seed", "1", "--max-work", "1000"]
        assert main(args + ["--estimator", "pm"]) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "({x1}, {x1,x2}, 1)" in err[0] and "{'x1': '0'}" in err[0]
        assert main(args + ["--estimator", "agm"]) == EXIT_OK

    @pytest.mark.parametrize(
        "tables, weights, args",
        [
            # Each weight is finite, but the root's log sum overflows to inf.
            (
                [
                    (name, ("x1", v), [["0", "0"], ["1", "0"]])
                    for name, v in (("R", "x2"), ("S", "x3"), ("T", "x4"))
                ],
                [1e308, 1e308, 1e308],
                ["--max-work", "100"],
            ),
            # A weight past a float's range.
            (TRIANGLE_TABLES, ["1e400", "1", "1"], []),
        ],
    )
    def test_bound_past_a_float_exits_2(self, tmp_path, capsys, tables, weights, args):
        spec = write_instance(tmp_path, tables, extra={"weights": weights})
        assert main(["sample", spec, "--seed", "1"] + args) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and len(err[0]) < 120, err

    def test_user_weights_are_coverage_checked(self, tmp_path, capsys):
        spec = write_instance(tmp_path, extra={"weights": ["1/2", "1/2", "0"]})
        assert main(["sample", spec, "--count", "1"]) == EXIT_PARSE
        assert "cover" in capsys.readouterr().err
        spec = write_instance(tmp_path, extra={"weights": ["1/2", "1/2", "1/2"]})
        assert main(["sample", spec, "--count", "5", "--seed", "0"]) == EXIT_OK

    def test_one_weight_per_constraint(self, tmp_path, capsys):
        spec = write_instance(tmp_path, extra={"weights": ["1", "1"]})
        assert main(["sample", spec, "--count", "1"]) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "one weight per constraint" in err[0], err

    @pytest.mark.parametrize(
        "tables, constraints, weights, pm_up_root",
        [
            # Cardinality constraints listed as [T, R, S]; the AGM list is [R, S, T].
            (
                [
                    ("R", ("x1", "x2"), [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]),
                    ("S", ("x2", "x3"), [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"],
                                         ["0", "2"], ["1", "2"], ["2", "0"]]),
                    ("T", ("x1", "x3"), [["0", "0"], ["1", "2"]]),
                ],
                [{"A": [], "B": ["x1", "x3"], "N": 2}, {"A": [], "B": ["x1", "x2"], "N": 4},
                 {"A": [], "B": ["x2", "x3"], "N": 7}],
                ["1", "1", "0"],
                8.0,  # |T| * |R|
            ),
            # A degree constraint: three weights, two AGM constraints.
            (
                [
                    ("R", ("x1", "x2"), [["0", "0"], ["1", "0"], ["1", "1"], ["2", "1"]]),
                    ("S", ("x2", "x3"), [["0", "2"], ["0", "3"], ["1", "0"], ["1", "2"],
                                         ["1", "3"]]),
                ],
                [{"A": [], "B": ["x1", "x2"], "N": 4}, {"A": [], "B": ["x2", "x3"], "N": 5},
                 {"A": ["x2"], "B": ["x2", "x3"], "N": 3}],
                ["1", "0", "1"],
                12.0,  # |R| * 3
            ),
        ],
    )
    def test_agm_refuses_weights_listed_for_other_constraints(
        self, tmp_path, capsys, tables, constraints, weights, pm_up_root
    ):
        spec = write_instance(tmp_path, tables,
                              extra={"constraints": constraints, "weights": weights})
        stats = tmp_path / "st.json"
        args = ["sample", spec, "--count", "5", "--seed", "1", "--stats-out", str(stats)]
        assert main(args + ["--estimator", "pm"]) == EXIT_OK
        assert json.loads(stats.read_text())["up_root"] == pytest.approx(pm_up_root)
        capsys.readouterr()
        assert main(args) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--estimator pm" in err[0], err

    def test_agm_reads_declared_cardinality_bounds(self, tmp_path):
        # R declared at 10^6 rows: the cover moves to S and T, 4 * 4 = 16.
        stats = tmp_path / "st.json"
        out = tmp_path / "s.csv"
        raw_answers = {tuple(str(c) for c in a) for a in TRIANGLE_ANSWERS}
        # A spec listing the AGM constraints, in relation order, keeps its weights:
        # [1, 0, 1] gives |R| * |T| = 16, not the optimal cover's 8.
        own = [{"A": [], "B": list(header), "N": 4} for _, header, _ in TRIANGLE_TABLES]
        for extra, up_root in (
            ({"constraints": [{"A": [], "B": ["x1", "x2"], "N": 1000000}]}, 16.0),
            ({"constraints": None}, 8.0),
            ({"constraints": own, "weights": ["1", "0", "1"]}, 16.0),
        ):
            spec = write_instance(tmp_path, extra=extra)
            args = ["sample", spec, "--estimator", "agm", "--count", "30", "--seed", "2",
                    "--output", str(out), "--stats-out", str(stats)]
            assert main(args) == EXIT_OK
            assert json.loads(stats.read_text())["up_root"] == pytest.approx(up_root)
            assert read_answer_csv(out)[1] <= raw_answers

    def test_overflowing_bound_exits_2_with_a_short_line(self, tmp_path, capsys):
        spec = write_instance(tmp_path, extra={"weights": [1e300, 1, 1]})
        assert main(["sample", spec, "--count", "1"]) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and len(err[0]) < 120, err

    def test_agm_order_must_respect_the_spec_constraints(self, tmp_path, capsys):
        spec = write_instance(tmp_path, extra={"constraints": FD_CONSTRAINTS})
        code = main(["sample", spec, "--estimator", "agm", "--order", "x1,x2,x3"])
        assert code == EXIT_INCOMPATIBLE
        assert "error:" in capsys.readouterr().err


def test_closed_output_pipe_exits_1_silently(tmp_path):
    # 90 000 answers, about 0.7 MB, far more than a pipe's 64 KiB buffer:
    # the writer is still writing when the reader closes its end.
    for name, var in (("R", "x1"), ("S", "x2")):
        (tmp_path / f"{name}.csv").write_text(var + "\n" + "".join(f"{i}\n" for i in range(300)))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"relations": {"R": {"path": "R.csv"}, "S": {"path": "S.csv"}}}))
    path = [str(Path(wcjoin.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "wcjoin.cli", "join", str(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"x1,x2\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_CLOSED_OUTPUT
    assert err == b""


class TestCoverAndValidate:
    def test_cover_output(self, tmp_path, capsys):
        spec = write_instance(tmp_path)
        assert main(["cover", spec]) == EXIT_OK
        out = capsys.readouterr().out
        assert "weights: 1/2 1/2 1/2" in out
        assert "log2 bound: 3.000000" in out

    def test_infeasible_cover_exits_3(self, tmp_path):
        spec = write_instance(
            tmp_path, extra={"constraints": [{"A": [], "B": ["x1", "x2"], "N": 4}]}
        )
        assert main(["cover", spec]) == EXIT_INCOMPATIBLE

    def test_validate_reports_failures_with_witness(self, tmp_path, capsys):
        spec = write_instance(
            tmp_path,
            extra={"constraints": [{"A": [], "B": ["x1", "x2"], "N": 4}, "x1 -> x2"]},
        )
        assert main(["validate", spec]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pass  ({}, {x1,x2}, 4)" in out
        assert "FAIL  ({x1}, {x1,x2}, 1)" in out
        assert "witness {'x1': '1'}" in out
        assert "acyclic: yes" in out

    def test_validate_reports_cycles(self, tmp_path, capsys):
        spec = write_instance(
            tmp_path, extra={"constraints": ["x1 -> x2", "x2 -> x1"]}
        )
        assert main(["validate", spec]) == EXIT_OK
        assert "acyclic: no; cycle:" in capsys.readouterr().out

    def test_no_constraints(self, tmp_path, capsys):
        spec = write_instance(tmp_path)
        assert main(["validate", spec]) == EXIT_OK
        assert "no constraints" in capsys.readouterr().out
