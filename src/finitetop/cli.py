"""Command line entry point: parse structures, compute, verify, report.

Everything on stdout is canonical JSON so outputs diff cleanly and
re-parse as structures; progress lines go to stderr.  Exit status 0 means
success, 1 means a verification came back negative, 2 means unusable
input: a file that does not parse, a structure of the wrong kind, or an
operation applied outside its preconditions.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import partial

from .colimits import copair, coproduct, pushout_loc
from .errors import FinitetopError, VerificationError
from .frames import FiniteFrame, FrameHom, downset_frame
from .lifting import LiftingSquare, arrow, bounded_factorize, enumerate_lifts
from .poset import FinitePoset, PreMap
from .pstop import PsSpace, join_ps, meet_ps, top_modification
from .serialize import (
    canonical_json,
    iter_canonical_json,
    load_structure,
    parse_structure,
    structure_data,
)
from .spaces import FiniteSpace
from .spatial import omega, pt
from .suites import (
    GROUPS,
    REGISTRY,
    SuiteOptions,
    report_data,
    run_all,
    run_group,
    run_suite,
)

_KIND_NAMES = {
    FinitePoset: "poset",
    FiniteFrame: "frame",
    FrameHom: "frame-hom",
    FiniteSpace: "space",
    PsSpace: "pstop",
    LiftingSquare: "lifting-square",
}


class _InputProblem(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _diagnostic("usage", message)
        raise SystemExit(2)


def _diagnostic(kind, message):
    sys.stderr.write(canonical_json({"error": {"kind": kind, "message": message}}))


def _load(path, want=None):
    try:
        obj = load_structure(path)
    except OSError as exc:
        raise _InputProblem(f"cannot read {path}: {exc}") from None
    except (FinitetopError, ValueError) as exc:
        raise _InputProblem(f"{path}: {exc}") from None
    if want is not None and not isinstance(obj, want):
        raise _InputProblem(f"{path}: expected a {_KIND_NAMES[want]}")
    return obj


def _as_arrow(obj, where):
    if not isinstance(obj, PreMap) or isinstance(obj.source, FinitePoset):
        raise _InputProblem(f"{where}: expected a premap or space map")
    return arrow(obj)


def _load_generators(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _InputProblem(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise _InputProblem(f"{path}: {exc}") from None
    if isinstance(data, dict):
        data = data.get("maps", data)
    if not isinstance(data, list) or not data:
        raise _InputProblem(f"{path}: a generating set is a nonempty JSON array")
    out = []
    for item in data:
        try:
            out.append(_as_arrow(parse_structure(item), path))
        except FinitetopError as exc:
            raise _InputProblem(f"{path}: {exc}") from None
    return tuple(out)


def _emit(data, args):
    """Stream the canonical JSON to stdout, and to --json-out if given."""
    path = getattr(args, "json_out", None)
    with open(path, "w", encoding="utf-8") if path else nullcontext() as fh:
        for block in iter_canonical_json(data):
            sys.stdout.write(block)
            if fh is not None:
                fh.write(block)


def _options(args):
    if args.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {args.jobs}")
    return SuiteOptions(
        max_points=args.max_points,
        max_frame_size=args.max_frame_size,
        seed=args.seed,
    )


def _run_structure(construct, kinds, args):
    """Load each --flag as its class in `kinds` (None for any), construct, emit."""
    inputs = [_load(getattr(args, dest), want) for dest, want in kinds.items()]
    _emit(structure_data(construct(*inputs)), args)
    return 0


def _cmd_pstop_check(args):
    return _report_suites(run_group("pstop-lemmas", _options(args), args.jobs), args)


def _cmd_lift_check(args):
    square = _load(args.square, LiftingSquare)
    fillers = enumerate_lifts(square)
    _emit(
        {
            "kind": "lift-report",
            "lifts": bool(fillers),
            "count": len(fillers),
            "fillers": [structure_data(f) for f in fillers],
        },
        args,
    )
    return 0 if fillers else 1


def _cmd_lift_factorize(args):
    f = _as_arrow(_load(args.map), args.map)
    generators = _load_generators(args.gens)
    trace = bounded_factorize(f, generators, args.steps)
    _emit(structure_data(trace), args)
    return 0


def _cmd_check(args):
    options = _options(args)
    if args.target == "all":
        reports = run_all(options, args.jobs)
    elif args.target in GROUPS:
        reports = run_group(args.target, options, args.jobs)
    elif args.target in REGISTRY:
        reports = (run_suite(args.target, options),)
    else:
        raise _InputProblem(
            f"unknown check target {args.target!r}; groups are "
            + ", ".join(sorted(GROUPS))
            + ", all, or a citation key"
        )
    return _report_suites(reports, args)


def _report_suites(reports, args):
    for rep in reports:
        mark = "ok" if rep.ok else "FAIL"
        sys.stderr.write(
            f"{mark} {rep.citation} [{rep.suite}] {rep.cases} cases "
            f"{rep.wall_time:.2f}s\n"
        )
    _emit([report_data(rep) for rep in reports], args)
    return 0 if all(rep.ok for rep in reports) else 1


def _build_parser(argv):
    """One parser per row of the command table; a row without a handler is a group.

    Only the rows whose words begin `argv` are built, the invoked command
    and its group, since the parse reads no other.  When no command row
    matches (no words, `-h` at the top, an unknown word, a bare group),
    every row is built, so usage errors list every choice.
    """
    path = {"required": True, "metavar": "PATH"}

    def structure(construct, **kinds):
        """The arguments and handler of a load -> build -> emit row."""
        return tuple((f"--{dest}", path) for dest in kinds), partial(
            _run_structure, construct, kinds
        )

    def number(default):
        return {"type": int, "default": default, "metavar": "N"}

    suite_options = (
        ("--max-points", number(3)),
        ("--max-frame-size", number(3)),
        ("--seed", number(0)),
        ("--jobs", number(1)),
    )
    commands = (
        (("validate",), "parse a structure and emit its canonical form",
         *structure(lambda obj: obj, input=None)),
        (("downsets",), "the frame of downsets of a poset",
         *structure(downset_frame, poset=FinitePoset)),
        (("omega",), "the frame of opens of a space", *structure(omega, space=FiniteSpace)),
        (("pt",), "the space of points of a frame", *structure(pt, frame=FiniteFrame)),
        (("coproduct",), "the coproduct of two frames",
         *structure(coproduct, left=FiniteFrame, right=FiniteFrame)),
        (("copair",), "the mediating hom out of a coproduct",
         *structure(copair, left=FrameHom, right=FrameHom)),
        (("pushout-loc",), "the localic pushout of a span of homs",
         *structure(pushout_loc, left=FrameHom, right=FrameHom)),
        (("pstop",), "pseudotopology operations", (), None),
        (("pstop", "tau"), "the topological modification",
         *structure(top_modification, input=PsSpace)),
        (("pstop", "meet"), "the meet of two pseudotopologies",
         *structure(meet_ps, left=PsSpace, right=PsSpace)),
        (("pstop", "join"), "the join of two pseudotopologies",
         *structure(join_ps, left=PsSpace, right=PsSpace)),
        (("pstop", "check"), "run the pseudotopology lemma suites", suite_options,
         _cmd_pstop_check),
        (("lift",), "lifting problems and factorizations", (), None),
        (("lift", "check"), "search a commuting square for fillers", (("--square", path),),
         _cmd_lift_check),
        (("lift", "factorize"), "bounded cell factorization of a map",
         (("--map", path), ("--gens", path), ("--steps", number(4))),
         _cmd_lift_factorize),
        (("check",), "run verification suites",
         (("target", {"help": "a group name, a citation key, or all"}), *suite_options),
         _cmd_check),
    )
    words = tuple(argv)
    invoked = [row for row in commands if words[: len(row[0])] == row[0]]
    if any(handler is not None for *_, handler in invoked):
        commands = invoked
    parser = _Parser(prog="finitetop", description=__doc__.splitlines()[0])
    groups = {(): parser.add_subparsers(dest="command", required=True, parser_class=_Parser)}
    for words, text, arguments, handler in commands:
        p = groups[words[:-1]].add_parser(words[-1], help=text)
        if handler is None:
            groups[words] = p.add_subparsers(
                dest="subcommand", required=True, parser_class=_Parser
            )
            continue
        for name, options in arguments:
            p.add_argument(name, **options)
        p.add_argument("--json-out", metavar="PATH", help="also write the JSON here")
        p.set_defaults(handler=handler)
    return parser


def run(argv):
    """Parse argv, dispatch, and return the exit status."""
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except VerificationError as exc:
        _diagnostic("verification", str(exc))
        return 1
    except (_InputProblem, FinitetopError, ValueError, OSError) as exc:
        _diagnostic("input", str(exc))
        return 2


def main():
    sys.exit(run(sys.argv[1:]))
