"""Tests of the benchmark itself, at the tiny --quick bounds.

Run from the root of the checkout: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run
from tracer import COMMANDS, LAYER_METRICS, SUITES, layer_metrics
from workloads import WORKLOADS, structure_commands

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc, (json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None)


def _quick(workload, trace=0):
    return _bench("--quick", "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace))


def test_benchmark_json_names_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER_METRICS)
    units = dict(run.END_TO_END)
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"])
    empty = layer_metrics({"spans": {}, "counts": {}, "distinct": {}}, 0.0)
    assert all(m["unit"] == empty[m["name"]]["unit"] for m in spec["per_layer"])


def test_layer_names_follow_the_suite_registry_and_the_commands(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    from finitetop.suites import REGISTRY

    assert SUITES == tuple(entry.suite for entry in REGISTRY.values())
    ops = {c["op"] for c in structure_commands(random.Random(0), "full")}
    assert ops == set(COMMANDS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct_and_reports_end_to_end_metrics(workload):
    proc, out = _quick(workload)
    assert proc.returncode == 0, proc.stderr
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_the_reference_and_reports_layers(workload):
    proc, out = _quick(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    assert out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == list(LAYER_METRICS)
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    if workload == "check-default":
        assert metrics["lifting.adjunction_check.calls"] > 0
        assert metrics["pstop.lemmas_s"] > 0
        assert 0 < metrics["lifting.pushout_product.distinct_frac"] <= 1
    if workload == "structures":
        assert metrics["cmd.coproduct-refused_s"] > 0
        assert metrics["serialize.bytes_out"] > 0
        assert metrics["lifting.adjunction_check.calls"] == 0


@pytest.mark.parametrize("field, value", [("sha256", "0" * 64), ("cases", 1)])
def test_a_wrong_reference_fails(tmp_path, monkeypatch, capsys, field, value):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    reference["quick"]["check-frames4"]["5"][1][field] = value
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", str(path))
    monkeypatch.chdir(ROOT)
    argv = ["--quick", "--workload", "check-frames4", "--seed", "5", "--seconds", "1"]
    assert run.main(argv) == 0
    stdout = capsys.readouterr().out
    out = json.loads(stdout.splitlines()[-1])
    assert not out["correct"]
    assert 0 < out["failed"] < out["attempted"]
    assert "FAILED suite.galois-laws" in stdout


def test_a_hung_pass_counts_as_failed_and_the_run_goes_on(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(run.PASS_LIMIT_S, "check-default", 0.5)
    assert run.main(["--workload", "check-default", "--seed", "0", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    out = json.loads(lines[-1])
    assert not out["correct"] and out["failed"] == out["attempted"] == 19
    assert any("timed out" in line for line in lines)


def test_the_calibration_loop_gives_a_rate_and_stops():
    calibrator = run.Calibrator(max(os.sched_getaffinity(0)))
    try:
        before = calibrator.reading()
        sum(range(10**6))
        after = calibrator.reading()
        assert after[0] > before[0] and after[1] > before[1]
        assert calibrator.scale(before, after) > 0
    finally:
        calibrator.close()
    assert calibrator.proc.returncode is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = _bench("--workload", "structures", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_inputs_depend_only_on_the_seed_and_keep_their_sizes():
    full = [structure_commands(random.Random(s), "full") for s in (1, 1, 2)]
    assert full[0] == full[1] and full[0] != full[2]
    sizes = [[(c["op"], c["exit"], c["points"]) for c in cmds] for cmds in full]
    assert sizes[0] == sizes[2]
    assert [p for _, _, p in sizes[0]] == [625, 216, 15, 81, 256, 924, 729, None, 14]
