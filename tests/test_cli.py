"""The command line exit contract: 0 ok, 1 a negative check, 2 unusable input."""

import json

import pytest

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


def test_factorize_rejects_negative_steps(tmp_path, capsys):
    cell = PreMap(Preorder((), ()), Preorder(("p",), (1,)), ())
    (tmp_path / "map.json").write_text(json.dumps(structure_data(cell)))
    (tmp_path / "gens.json").write_text(json.dumps([structure_data(cell)]))
    argv = ["lift", "factorize", "--map", str(tmp_path / "map.json")]
    argv += ["--gens", str(tmp_path / "gens.json"), "--steps"]
    assert run(argv + ["0"]) == 0
    capsys.readouterr()
    assert run(argv + ["-1"]) == 2
    error = _error(capsys)
    assert error["kind"] == "input"
    assert "steps" in error["message"]


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
