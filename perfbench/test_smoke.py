"""Smoke test of the benchmark itself: tiny inputs, reference check on.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import TARGETS, Tracer
from workloads import WORKLOADS, reference_answers

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(name):
    for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(name, seed=3, seconds=0.2, trace=trace, smoke=True)
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] >= 2
        assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[listed]]
        for metric in BENCHMARK[listed]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    # Both runs used seed 3, so the second compared its counters with the first.
    assert result["metrics"]["trace.absent_wrappers"]["value"] == 0


def test_differing_counters_are_flagged():
    res = run.Results(fingerprints=[(10, (1, 2)), (11, (1, 2))])
    assert not run.check_determinism("unit-test", 0, True, res)
    assert res.failed == 1


def test_counters_are_compared_only_between_runs_of_the_same_engine_code(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    monkeypatch.setattr(run, "engine_digest", lambda: "code-a")
    assert run.check_determinism("w", 0, False, run.Results(fingerprints=[(10,)]))
    monkeypatch.setattr(run, "engine_digest", lambda: "code-b")
    assert run.check_determinism("w", 0, False, run.Results(fingerprints=[(9,)]))
    res = run.Results(fingerprints=[(8,)])
    assert not run.check_determinism("w", 0, False, res)
    assert res.problems == ["counters differ from an earlier run with seed 0"]


def test_missing_wrapped_name_is_reported_absent():
    run.import_engine()
    from wcjoin import cli

    original = cli.load_spec
    gone = ("cli.gone", "cli", "no_such_function", False, None)
    tracer = Tracer(targets=TARGETS + (gone,))
    with tracer.installed():
        assert cli.load_spec is not original
    assert cli.load_spec is original
    assert tracer.absent == ["cli.no_such_function"]


def test_reference_join_on_worked_triangle():
    tables = [
        ("R", ("x1", "x2"), [("0", "0"), ("1", "0"), ("1", "1"), ("2", "1")]),
        ("S", ("x2", "x3"), [("0", "2"), ("0", "3"), ("1", "0"), ("1", "2")]),
        ("T", ("x1", "x3"), [("0", "3"), ("1", "0"), ("1", "2"), ("2", "3")]),
    ]
    assert reference_answers(tables, ("x1", "x2", "x3")) == {
        ("0", "0", "3"), ("1", "0", "2"), ("1", "1", "0"), ("1", "1", "2"),
    }


def test_without_the_engine_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "join-triangle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
