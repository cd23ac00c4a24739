"""Command line front end: spec parsing, outputs, exit codes, determinism."""
import csv
import json

import pytest

from wcjoin.cli import (
    EXIT_BUDGET,
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
        doc = json.loads(open(path).read())
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

    def test_malformed_specs_exit_2(self, tmp_path, capsys):
        def exits_2(argv):
            assert main(argv) == EXIT_PARSE
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:"), err

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
        doc = json.loads(open(path).read())
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
        spec = write_instance(tmp_path, extra={"constraints": FD_CONSTRAINTS})
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

    def test_user_weights_are_coverage_checked(self, tmp_path, capsys):
        spec = write_instance(tmp_path, extra={"weights": ["1/2", "1/2", "0"]})
        assert main(["sample", spec, "--count", "1"]) == EXIT_PARSE
        assert "cover" in capsys.readouterr().err
        spec = write_instance(tmp_path, extra={"weights": ["1/2", "1/2", "1/2"]})
        assert main(["sample", spec, "--count", "5", "--seed", "0"]) == EXIT_OK


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


class TestOracleCommand:
    def test_matches_join(self, tmp_path):
        spec = write_instance(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["oracle", spec, "--output", str(a)]) == EXIT_OK
        assert main(["join", spec, "--output", str(b)]) == EXIT_OK
        assert read_answer_csv(a) == read_answer_csv(b)
