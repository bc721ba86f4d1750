"""Self-test of the benchmark at smoke size.

Run from the repository root:

    python3 -m pytest -q bench/test_selftest.py

Each workload runs for a fraction of a second with one set-up sample.  The
tests check the result line against BENCHMARK.json, that a wrong reference
is counted as failed ops instead of crashing the run, that the traced run
reports every per-layer metric, that a missing traced name is an error, and
that the benchmark refuses a directory without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("bench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result, lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_prints_the_end_to_end_metrics(workload):
    result, report = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in report), name
    assert any(line.startswith("meta ") for line in report)
    if workload == "zero_build":
        assert any("known defect" in line for line in report)


def test_wrong_reference_is_counted_not_fatal():
    result, report = _result(
        _run("--workload", "dist_table", "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke",
             "--inject-wrong-reference"))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["pass_ratio"]["value"] == 0.0
    assert any("FAILING" in line for line in report)


def test_traced_run_reports_every_layer_metric():
    result, _ = _result(_run("--workload", "dist_table", "--seed", "3", "--seconds", "0.2", "--trace", "1", "--smoke"))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["distribution.quantile_ms"]["value"] > 0
    # the stated accounting margin: layer self times cover >= 95% of traced op time
    assert 0.95 <= result["metrics"]["trace.attributed_ratio"]["value"] <= 1.0


def test_missing_traced_name_fails_loudly(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import tracing

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("xidist.harness", "no_such_name", None),))
    with pytest.raises(tracing.TraceSymbolError, match="xidist.harness.no_such_name"):
        tracing.Tracer()


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
