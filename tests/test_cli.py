"""The command line exit contract: 0 ok, 1 a negative check, 2 unusable input."""

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finitetop
from finitetop import cli, pstop, serialize, suites
from finitetop.cli import run
from finitetop.colimits import coproduct
from finitetop.lifting import PreMap, Preorder, identity_arrow
from finitetop.serialize import load_structure, structure_data
from finitetop.spatial import omega

from conftest import discrete_space, stdlib_canonical_json


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
    (tmp_path / "map.json").write_text(json.dumps(structure_data(cell), default=list))
    (tmp_path / "gens.json").write_text(json.dumps([structure_data(cell)], default=list))
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


def test_a_trace_with_an_unknown_verdict_exits_2(tmp_path, capsys):
    """A parsed factorization trace is COMPLETE or PARTIAL, nothing else."""
    assert run(_factorize_argv(tmp_path) + ["2"]) == 0
    trace = json.loads(capsys.readouterr().out)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    assert run(["validate", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == trace
    path.write_text(json.dumps(dict(trace, verdict="BOGUS")))
    assert run(["validate", "--input", str(path)]) == 2
    error = _error(capsys)
    assert error["kind"] == "input"
    assert "BOGUS" in error["message"]


@pytest.mark.parametrize("generator", ["not-an-index", -1, True, 0.0, None])
def test_a_trace_with_a_non_index_generator_exits_2(generator, tmp_path, capsys):
    """A problem's generator indexes the generator list: a non-negative int only."""
    assert run(_factorize_argv(tmp_path) + ["2"]) == 0
    trace = json.loads(capsys.readouterr().out)
    trace["stages"][0]["problems"][0]["generator"] = generator
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    assert run(["validate", "--input", str(path)]) == 2
    error = _error(capsys)
    assert error["kind"] == "input"
    assert repr(generator) in error["message"]


@pytest.mark.parametrize("kind", ["poset", "frame", "preorder"])
@pytest.mark.parametrize("entry", [["a"], ["a", "b", "c"], "ab"], ids=["one", "three", "string"])
def test_a_relation_entry_that_is_not_a_pair_exits_2(kind, entry, tmp_path, capsys):
    """The message names the file, the kind and the entry."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": kind, "points": ["a", "b"], "leq": [entry]}))
    assert run(["validate", "--input", str(path)]) == 2
    assert _error(capsys) == {
        "kind": "input",
        "message": f"{path}: malformed {kind} data: relation entry {entry!r} is not a pair of labels",
    }


def test_importing_the_cli_loads_no_process_pool():
    """Only `--jobs` above 1 uses the pool, so a start does not import multiprocessing."""
    src = str(Path(finitetop.__file__).parent.parent)
    code = "import sys, finitetop.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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


def test_a_failed_pstop_lemma_exits_1_with_string_witnesses(monkeypatch, capsys):
    """With every point map passed off as continuous, the restriction lemma
    fails, and its witnesses are strings in a canonical JSON report."""

    def every_map(xi, zeta):
        return itertools.product(range(zeta.n), repeat=xi.n)

    monkeypatch.setattr(pstop, "iter_continuous_ps_maps", every_map)
    assert run(["check", "SubspaceRestiction", "--max-points", "2"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["cases"] == 220
    assert len(report["failures"]) == 7
    assert all(isinstance(f, str) for f in report["failures"])


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
    assert json.loads(captured.err) == {"error": {"kind": "input", "message": f"{path}: {message}"}}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"kind": "poset", "points": ["a"], "leq": [["a", "z"]]}, "relation mentions unknown label 'z'"),
        ({"kind": "poset", "points": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]}, "cycle through 'a' and 'b'"),
        ({"kind": "poset", "points": ["a", "a"], "leq": []}, "duplicate labels: ['a']"),
        ({"kind": "frame", "points": ["a", "b"], "leq": []}, "no least upper bound for 'a', 'b'"),
    ],
    ids=["unknown-label", "two-cycle", "duplicate-labels", "not-a-lattice"],
)
def test_a_refused_structure_names_its_file(data, message, tmp_path, capsys):
    """Errors the validating constructors raise while loading get the path, as parse errors do."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    assert run(["validate", "--input", str(path)]) == 2
    assert _error(capsys) == {"kind": "input", "message": f"{path}: {message}"}


POSET = {"kind": "poset", "points": ["b", "1", "a", "0"], "leq": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}
CHAIN2 = {"kind": "poset", "points": ["lo", "hi"], "leq": [["lo", "hi"]]}
SPACE = {"kind": "space", "points": ["c", "a", "b"], "opens": [[], ["b"], ["a", "b"], ["b", "c"], ["a", "b", "c"]]}
SIERPINSKI = {"kind": "space", "points": ["x", "y"], "opens": [[], ["y"], ["x", "y"]]}
PREORDER = {"kind": "preorder", "points": ["r", "p", "q"], "leq": [["p", "q"], ["q", "p"], ["q", "r"]]}
CHAIN2_PRE = {"kind": "preorder", "points": ["s", "t"], "leq": [["s", "t"]]}
FRAME = {"kind": "frame", "points": ["0", "a", "b", "c", "1"],
         "leq": [["0", "a"], ["0", "b"], ["a", "c"], ["b", "c"], ["c", "1"]]}
CHAIN3 = {"kind": "frame", "points": ["0", "m", "1"], "leq": [["0", "m"], ["m", "1"]]}
INPUTS = {
    "poset": POSET,
    "space": SPACE,
    "preorder": PREORDER,
    "monotone-map": {"kind": "monotone-map", "source": POSET, "target": CHAIN2,
                     "mapping": {"0": "lo", "a": "lo", "b": "hi", "1": "hi"}},
    "space-map": {"kind": "space-map", "source": SIERPINSKI, "target": SPACE,
                  "mapping": {"x": "a", "y": "b"}},
    "premap": {"kind": "premap", "source": CHAIN2_PRE, "target": PREORDER,
               "mapping": {"s": "p", "t": "r"}},
    "frame": FRAME,
    "frame-hom": {"kind": "frame-hom", "source": FRAME, "target": FRAME,
                  "mapping": {x: x for x in FRAME["points"]}},
    "chain-hom": {"kind": "frame-hom", "source": CHAIN3, "target": FRAME,
                  "mapping": {"0": "0", "m": "a", "1": "1"}},
    "pstop": {"kind": "pstop", "points": ["1", "2", "3"],
              "limits": {"1": ["1", "2"], "2": ["2"], "3": ["1", "3"]}},
    "pstop-line": {"kind": "pstop", "points": ["1", "2", "3"],
                   "limits": {"1": ["1", "2"], "2": ["2", "3"], "3": ["3"]}},
    "pstop-pair": {"kind": "pstop", "points": ["1", "2"],
                   "limits": {"1": ["1"], "2": ["1", "2"]}},
}


def _write_inputs(tmp_path):
    paths = {}
    for kind, data in INPUTS.items():
        paths[kind] = str(tmp_path / f"{kind}.json")
        Path(paths[kind]).write_text(json.dumps(data))
    cell = PreMap(Preorder((), ()), Preorder(("p",), (1,)), ())
    paths["gens"] = str(tmp_path / "gens.json")
    Path(paths["gens"]).write_text(json.dumps([structure_data(cell)], default=list))
    return paths


@pytest.mark.parametrize(
    "words, digest",
    [
        (["validate", "--input", "poset"], "6f7a3af97339ee35e2eb434978323cd8f3561a759883c5dad171cfba4f3bace7"),
        (["validate", "--input", "space"], "8226abb39359099fbe042b090bd90ea5e723413d3dc25d779ae3b871e3970652"),
        (["validate", "--input", "preorder"], "f1894177a9b2435567f99cf2e6285a4aac400104621b64d62990997d1ee51877"),
        (["validate", "--input", "monotone-map"], "9cc046b39fc7d6a3d216e96aa1e65d809ab7b6d1b610645c6e05cf677e70b197"),
        (["validate", "--input", "space-map"], "0afb451d25b80f5c799773c5757874afa774d81fc785b78f3bbba87be5ac25c5"),
        (["validate", "--input", "premap"], "98ee9a5a2ab7fb67328c56de3392156d9cfc1b44a10a45afd462f78e90e88f3f"),
        (["omega", "--space", "space"], "bd7eafa6633504c8e52c93e869652f9775b9a5b6e89a78cee70a9773ae9e4b44"),
        (["pt", "--frame", "frame"], "c0d81227a4ccb837d0b1aca3dbcba5d4da3c9a18ed1967ac5fe1081432d4eab9"),
        (["downsets", "--poset", "poset"], "cebe58db447a4df67571913b37426bf2bae7f03803ad18926e6a8d47ea908432"),
        (["pstop", "tau", "--input", "pstop"], "dc0bf2ec067f31c7f4616f6de9ef5862022a16b92ae16707a59a64a907eacff2"),
        (["lift", "factorize", "--map", "space-map", "--gens", "gens"], "0d309be4a5ef663fdb0e118de0c6e75bc3285877d736e7391f7a74c39144a2bd"),
        (["pstop", "meet", "--left", "pstop", "--right", "pstop-line"], "aa777114d50a9360645043527487a5d65004c438874f2e144198d3533f306e95"),
        (["pstop", "join", "--left", "pstop", "--right", "pstop-line"], "315b929138ac32e46acdaa20a4c761e53076fbaaab4896c1901f95c1fae0d907"),
        (["copair", "--left", "chain-hom", "--right", "frame-hom"], "56358685da70ec177efb8249c69884761eaa7464bd914fed0c9925fa3ed8d3fd"),
        (["pushout-loc", "--left", "chain-hom", "--right", "frame-hom"], "a85f751b54acc7e48dd71517685ad0f09e6569c42664ca2a8107b3162056b0f9"),
    ],
)
def test_structure_output_bytes_are_pinned(words, digest, tmp_path, capsys):
    paths = _write_inputs(tmp_path)
    argv = [paths[w] if words[k - 1].startswith("--") else w for k, w in enumerate(words)]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pstop_join_refuses_carriers_of_different_sizes(tmp_path, capsys):
    paths = _write_inputs(tmp_path)
    assert run(["pstop", "join", "--left", paths["pstop-pair"], "--right", paths["pstop"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "input"



# Each command that loads a typed structure, the flags it loads, a file of
# the right kind, a well-formed file of another kind, and the kind it names.
# `validate` takes every kind, so it refuses none.
WRONG_KINDS = [
    ("downsets", ("--poset",), "poset", "space", "poset"),
    ("omega", ("--space",), "space", "poset", "space"),
    ("pt", ("--frame",), "frame", "poset", "frame"),
    ("coproduct", ("--left", "--right"), "frame", "frame-hom", "frame"),
    ("copair", ("--left", "--right"), "frame-hom", "frame", "frame-hom"),
    ("pushout-loc", ("--left", "--right"), "frame-hom", "frame", "frame-hom"),
    ("pstop tau", ("--input",), "pstop", "space", "pstop"),
    ("pstop meet", ("--left", "--right"), "pstop", "space", "pstop"),
    ("pstop join", ("--left", "--right"), "pstop", "space", "pstop"),
    ("lift check", ("--square",), None, "frame", "lifting-square"),
]


@pytest.mark.parametrize(
    "command, flags, good, wrong, kind, refused",
    [
        pytest.param(*row, flag, id=f"{row[0]} {flag}")
        for row in WRONG_KINDS
        for flag in row[1]
    ],
)
def test_a_structure_of_another_kind_is_refused_by_name(
    command, flags, good, wrong, kind, refused, tmp_path, capsys
):
    """A well-formed file of the wrong kind on one flag, the right kind on the others."""
    paths = _write_inputs(tmp_path)
    argv = command.split()
    for flag in flags:
        argv += [flag, paths[wrong] if flag == refused else paths[good]]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "kind": "input",
        "message": f"{paths[wrong]}: expected a {kind}",
    }


CHAIN7 = {"kind": "frame", "points": [f"c{k}" for k in range(7)],
          "leq": [[f"c{k}", f"c{k + 1}"] for k in range(6)]}


@pytest.mark.parametrize(
    "frame, digest",
    [
        (INPUTS["frame"], "a5b95f748ae96b29c74878630797fd79d80dd655acb0df9c870ab58e17c2fee3"),
        # the coproduct of two 7-chains: 924 elements
        (CHAIN7, "4addba159e3941fd19db2dbd7499a1389652b0dd801803add0d5e33b6c5337d9"),
    ],
    ids=["frame", "chain7"],
)
def test_coproduct_output_bytes_are_pinned(frame, digest, tmp_path, capsys):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(frame))
    assert run(["coproduct", "--left", str(path), "--right", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_coproduct_prints_the_stdlib_text_of_its_structure(tmp_path, capsys):
    chain5 = {"kind": "frame", "points": [f"c{k}" for k in range(5)],
              "leq": [[f"c{k}", f"c{k + 1}"] for k in range(4)]}
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(chain5))
    assert run(["coproduct", "--left", str(path), "--right", str(path)]) == 0
    frame = load_structure(str(path))
    expected = stdlib_canonical_json(structure_data(coproduct(frame, frame)))
    assert capsys.readouterr().out == expected


def test_omega_prints_the_stdlib_text_across_list_blocks(monkeypatch, tmp_path, capsys):
    space = discrete_space("abcd")
    path = tmp_path / "space.json"
    path.write_text(json.dumps(structure_data(space), default=list))
    data = structure_data(omega(space))
    # 16 points: 3 list blocks of 7 items; the 65 leq pairs are written by row
    assert len(data["leq"]) == 65
    monkeypatch.setattr(serialize, "_BLOCK_ITEMS", 7)
    out = tmp_path / "omega.json"
    assert run(["omega", "--space", str(path), "--json-out", str(out)]) == 0
    assert capsys.readouterr().out == stdlib_canonical_json(data)
    assert out.read_text(encoding="utf-8") == stdlib_canonical_json(data)


def test_check_frames_prints_the_stdlib_text_of_its_reports(tmp_path, capsys):
    out = tmp_path / "reports.json"
    assert run(["check", "frames", "--json-out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    # the reports carry only str, int, bool and lists, so the text's own
    # data is the report data
    assert text == stdlib_canonical_json(json.loads(text))
    assert capsys.readouterr().out == text


def test_factorize_refuses_a_monotone_map_of_posets(tmp_path, capsys):
    paths = _write_inputs(tmp_path)
    argv = ["lift", "factorize", "--map", paths["monotone-map"], "--gens", paths["gens"]]
    assert run(argv) == 2
    assert _error(capsys) == {
        "kind": "input",
        "message": f"{paths['monotone-map']}: expected a premap or space map",
    }


EMPTY = Preorder((), ())
POINT = Preorder(("p",), (1,))
PAIR = Preorder(("x", "y"), (1, 2))


def _square_argv(tmp_path, left, right, top, bottom):
    """`lift check` on a square written side by side, commuting or not."""
    sides = {"left": left, "right": right, "top": top, "bottom": bottom}
    data = {"kind": "lifting-square", **{k: structure_data(m) for k, m in sides.items()}}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(data, default=list))
    return ["lift", "check", "--square", str(path)]


CELL_MAP = PreMap(EMPTY, POINT, ())

# sha256 of `lift check` stdout: the cell against the fold of a discrete pair
# has two fillers, and the cell against itself has none.


@pytest.mark.parametrize(
    "sides, code, digest",
    [
        (
            (CELL_MAP, PreMap(PAIR, POINT, (0, 0)), PreMap(EMPTY, PAIR, ()), identity_arrow(POINT)),
            0,
            "b201b6299100a762192046211fbaa55d72f973cd2d7dbcbcf78a907026e24d51",
        ),
        (
            (CELL_MAP, CELL_MAP, identity_arrow(EMPTY), identity_arrow(POINT)),
            1,
            "f3c2feef756ce2b37a3413431b1e97c6bc605e06b20989488345d11ba125d5fc",
        ),
    ],
    ids=["two-fillers", "no-filler"],
)
def test_lift_check_output_bytes_are_pinned(sides, code, digest, tmp_path, capsys):
    assert run(_square_argv(tmp_path, *sides)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    report = json.loads(out)
    assert report["lifts"] is (code == 0) and report["count"] == len(report["fillers"])


def test_lift_check_refuses_a_square_that_does_not_commute(tmp_path, capsys):
    ident = identity_arrow(PAIR)
    argv = _square_argv(tmp_path, ident, ident, PreMap(PAIR, PAIR, (1, 0)), ident)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "input"


# Every command path with its help, the root with the description, in the
# order the parser lists them; then every option as (command, option
# strings, dest, required, default, type, metavar, help).  The subcommand
# choosers are the options with empty strings and no metavar.
COMMAND_TREE = [
    ('', 'Command line entry point: parse structures, compute, verify, report.'),
    ('validate', 'parse a structure and emit its canonical form'),
    ('downsets', 'the frame of downsets of a poset'),
    ('omega', 'the frame of opens of a space'),
    ('pt', 'the space of points of a frame'),
    ('coproduct', 'the coproduct of two frames'),
    ('copair', 'the mediating hom out of a coproduct'),
    ('pushout-loc', 'the localic pushout of a span of homs'),
    ('pstop', 'pseudotopology operations'),
    ('pstop tau', 'the topological modification'),
    ('pstop meet', 'the meet of two pseudotopologies'),
    ('pstop join', 'the join of two pseudotopologies'),
    ('pstop check', 'run the pseudotopology lemma suites'),
    ('lift', 'lifting problems and factorizations'),
    ('lift check', 'search a commuting square for fillers'),
    ('lift factorize', 'bounded cell factorization of a map'),
    ('check', 'run verification suites'),
]
COMMAND_OPTIONS = [
    ('', '', 'command', True, None, None, None, None),
    ('validate', '--input', 'input', True, None, None, 'PATH', None),
    ('validate', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
    ('downsets', '--poset', 'poset', True, None, None, 'PATH', None),
    ('downsets', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
    ('omega', '--space', 'space', True, None, None, 'PATH', None),
    ('omega', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
    ('pt', '--frame', 'frame', True, None, None, 'PATH', None),
    ('pt', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
    ('coproduct', '--left', 'left', True, None, None, 'PATH', None),
    ('coproduct', '--right', 'right', True, None, None, 'PATH', None),
    ('coproduct', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
    ('copair', '--left', 'left', True, None, None, 'PATH', None),
    ('copair', '--right', 'right', True, None, None, 'PATH', None),
    ('copair', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
    ('pushout-loc', '--left', 'left', True, None, None, 'PATH', None),
    ('pushout-loc', '--right', 'right', True, None, None, 'PATH', None),
    ('pushout-loc', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
    ('pstop', '', 'subcommand', True, None, None, None, None),
    ('pstop tau', '--input', 'input', True, None, None, 'PATH', None),
    ('pstop tau', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
    ('pstop meet', '--left', 'left', True, None, None, 'PATH', None),
    ('pstop meet', '--right', 'right', True, None, None, 'PATH', None),
    ('pstop meet', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
    ('pstop join', '--left', 'left', True, None, None, 'PATH', None),
    ('pstop join', '--right', 'right', True, None, None, 'PATH', None),
    ('pstop join', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
    ('pstop check', '--max-points', 'max_points', False, 3, 'int', 'N', None),
    ('pstop check', '--max-frame-size', 'max_frame_size', False, 3, 'int', 'N', None),
    ('pstop check', '--seed', 'seed', False, 0, 'int', 'N', None),
    ('pstop check', '--jobs', 'jobs', False, 1, 'int', 'N', None),
    ('pstop check', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
    ('lift', '', 'subcommand', True, None, None, None, None),
    ('lift check', '--square', 'square', True, None, None, 'PATH', None),
    ('lift check', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
    ('lift factorize', '--map', 'map', True, None, None, 'PATH', None),
    ('lift factorize', '--gens', 'gens', True, None, None, 'PATH', None),
    ('lift factorize', '--steps', 'steps', False, 4, 'int', 'N', None),
    ('lift factorize', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
    ('check', '', 'target', True, None, None, None, 'a group name, a citation key, or all'),
    ('check', '--max-points', 'max_points', False, 3, 'int', 'N', None),
    ('check', '--max-frame-size', 'max_frame_size', False, 3, 'int', 'N', None),
    ('check', '--seed', 'seed', False, 0, 'int', 'N', None),
    ('check', '--jobs', 'jobs', False, 1, 'int', 'N', None),
    ('check', '--json-out', 'json_out', False, None, None, 'PATH', 'also write the JSON here'),
]


def _command_tree(parser, words="", help=None):
    """The parser's commands and options in pre-order, as the pins above."""
    commands, options = [(words, help)], []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        options.append(
            (words, ", ".join(action.option_strings), action.dest, action.required,
             action.default, getattr(action.type, "__name__", action.type),
             action.metavar, action.help)
        )
        if isinstance(action, argparse._SubParsersAction):
            helps = {a.dest: a.help for a in action._choices_actions}
            for name, sub in action.choices.items():
                assert isinstance(sub, cli._Parser), name
                below = _command_tree(sub, f"{words} {name}".strip(), helps[name])
                commands += below[0]
                options += below[1]
    return commands, options


def test_the_command_tree_is_pinned():
    """Every command path, help string and option of the parser, literally."""
    parser = cli._build_parser([])
    commands, options = _command_tree(parser, help=parser.description)
    assert commands == COMMAND_TREE
    assert options == COMMAND_OPTIONS


def _outcome(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("path", [words for words, _ in COMMAND_TREE])
@pytest.mark.parametrize("tail", [["--help"], ["--no-such-option"]], ids=["help", "usage"])
def test_the_invoked_rows_parse_as_the_whole_tree(path, tail, monkeypatch, capsys):
    """`--help` and a usage error give the bytes of the full parser on every
    command path, though `run` builds only the invoked command's rows."""
    argv = path.split() + tail
    partial = _outcome(argv, capsys)
    whole = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda argv: whole([]))
    assert partial == _outcome(argv, capsys)
    assert partial[0] == (0 if tail == ["--help"] else 2)


@pytest.mark.parametrize(
    "argv, paths",
    [
        (["pstop", "tau", "--input", "x.json"], ["", "pstop", "pstop tau"]),
        (["lift", "check", "-h"], ["", "lift", "lift check"]),
        (["check", "all"], ["", "check"]),
        (["coproduct", "--left", "a", "--right", "b"], ["", "coproduct"]),
    ],
)
def test_a_command_builds_only_its_rows(argv, paths):
    commands, _ = _command_tree(cli._build_parser(argv))
    assert [words for words, _ in commands] == paths


@pytest.mark.parametrize("argv", [[], ["-h"], ["pstop"], ["lift", "tau"], ["tau"], ["--help", "pt"]])
def test_no_invoked_command_builds_the_whole_tree(argv):
    parser = cli._build_parser(argv)
    assert _command_tree(parser, help=parser.description) == (COMMAND_TREE, COMMAND_OPTIONS)
