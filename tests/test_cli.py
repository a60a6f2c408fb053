"""The command line exit contract: 0 ok, 1 a negative check, 2 unusable input."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finitetop
from finitetop import suites
from finitetop.cli import run
from finitetop.lifting import PreMap, Preorder
from finitetop.serialize import structure_data


def _error(capsys):
    return json.loads(capsys.readouterr().err)["error"]


def test_an_ok_check_exits_0(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["check", "frames", "--max-frame-size", "2", "--json-out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert [r["citation"] for r in reports] == list(suites.GROUPS["frames"])
    assert all(r["ok"] and r["cases"] > 0 for r in reports)
    assert json.loads(capsys.readouterr().out) == reports


@pytest.mark.parametrize(
    "argv, option",
    [
        (["check", "frames", "--max-frame-size", "-1"], "max_frame_size"),
        (["check", "frames", "--max-frame-size", "0"], "max_frame_size"),
        (["check", "pstop-lemmas", "--max-points", "0"], "max_points"),
        (["check", "lifting", "--max-points", "-2"], "max_points"),
        (["pstop", "check", "--max-points", "0"], "max_points"),
        (["check", "lifting", "--jobs", "0"], "jobs"),
        (["pstop", "check", "--jobs", "-3"], "jobs"),
    ],
)
def test_empty_corpus_bounds_exit_2(argv, option, capsys):
    assert run(argv) == 2
    error = _error(capsys)
    assert error["kind"] == "input"
    assert option in error["message"]


@pytest.mark.parametrize(
    "argv", [["check", "all", "--steps", "-1"], ["pstop", "check", "--steps", "4"]]
)
def test_suite_commands_take_no_steps_option(argv, capsys):
    assert run(argv) == 2
    assert _error(capsys)["kind"] == "usage"


def _factorize_argv(tmp_path):
    """Factorize the cell map against itself; `--steps` comes last, unset."""
    cell = PreMap(Preorder((), ()), Preorder(("p",), (1,)), ())
    (tmp_path / "map.json").write_text(json.dumps(structure_data(cell)))
    (tmp_path / "gens.json").write_text(json.dumps([structure_data(cell)]))
    argv = ["lift", "factorize", "--map", str(tmp_path / "map.json")]
    return argv + ["--gens", str(tmp_path / "gens.json"), "--steps"]


def test_factorize_rejects_negative_steps(tmp_path, capsys):
    argv = _factorize_argv(tmp_path)
    assert run(argv + ["0"]) == 0
    capsys.readouterr()
    assert run(argv + ["-1"]) == 2
    error = _error(capsys)
    assert error["kind"] == "input"
    assert "steps" in error["message"]


@pytest.mark.parametrize(
    "steps, digest",
    [
        ("0", "e6529515cb07f6c03e0bb173a14bf2786ddfc53c85f64283cffad9aebdfebd96"),
        ("2", "f6dccf5dadb9f5223282239d05f2200d1be1e42ce01de80238dfa4090bd40606"),
    ],
)
def test_factorize_output_bytes_are_pinned(steps, digest, tmp_path, capsys):
    assert run(_factorize_argv(tmp_path) + [steps]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_python_dash_m_runs_a_check():
    src = str(Path(finitetop.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-m", "finitetop", "check", "frames", "--max-frame-size", "2"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    reports = json.loads(done.stdout)
    assert [r["citation"] for r in reports] == list(suites.GROUPS["frames"])


def test_unknown_target_and_unreadable_input_exit_2(tmp_path, capsys):
    assert run(["check", "no-such-suite"]) == 2
    assert _error(capsys)["kind"] == "input"
    assert run(["validate", "--input", str(tmp_path / "missing.json")]) == 2
    assert _error(capsys)["kind"] == "input"


def test_a_failed_check_exits_1_with_its_witness(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(suites, "frame_isomorphism", lambda a, b: None)
    out = tmp_path / "report.json"
    code = run(
        ["check", "FrameCoproduct", "--max-frame-size", "2", "--json-out", str(out)]
    )
    assert code == 1
    (report,) = json.loads(out.read_text())
    assert report["ok"] is False
    assert report["failures"]
    assert all(f.startswith("two (x) ") and " is not " in f for f in report["failures"])
    assert "FAIL FrameCoproduct" in capsys.readouterr().err


def _m3():
    middles = ("a", "b", "c")
    return ["0", *middles, "1"], [["0", m] for m in middles] + [[m, "1"] for m in middles]


def _n5():
    return ["0", "a", "b", "c", "1"], [["0", "a"], ["a", "b"], ["b", "1"], ["0", "c"], ["c", "1"]]


@pytest.mark.parametrize(
    "frame, message",
    [
        (_m3(), "distributivity fails on ('a', 'b', 'c')"),
        (_n5(), "distributivity fails on ('b', 'a', 'c')"),
        ((["x", "y"], []), "no least upper bound for 'x', 'y'"),
    ],
)
def test_pt_rejects_a_lattice_that_is_not_a_frame(frame, message, tmp_path, capsys):
    points, leq = frame
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({"kind": "frame", "points": points, "leq": leq}))
    assert run(["pt", "--frame", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"kind": "input", "message": message}}
