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


def _cmd_validate(args):
    _emit(structure_data(_load(args.input)), args)
    return 0


def _cmd_downsets(args):
    _emit(structure_data(downset_frame(_load(args.poset, FinitePoset))), args)
    return 0


def _cmd_omega(args):
    _emit(structure_data(omega(_load(args.space, FiniteSpace))), args)
    return 0


def _cmd_pt(args):
    _emit(structure_data(pt(_load(args.frame, FiniteFrame))), args)
    return 0


def _cmd_coproduct(args):
    left = _load(args.left, FiniteFrame)
    right = _load(args.right, FiniteFrame)
    _emit(structure_data(coproduct(left, right)), args)
    return 0


def _cmd_copair(args):
    left = _load(args.left, FrameHom)
    right = _load(args.right, FrameHom)
    _emit(structure_data(copair(left, right)), args)
    return 0


def _cmd_pushout_loc(args):
    left = _load(args.left, FrameHom)
    right = _load(args.right, FrameHom)
    _emit(structure_data(pushout_loc(left, right)), args)
    return 0


def _cmd_pstop_tau(args):
    _emit(structure_data(top_modification(_load(args.input, PsSpace))), args)
    return 0


def _cmd_pstop_meet(args):
    left = _load(args.left, PsSpace)
    right = _load(args.right, PsSpace)
    _emit(structure_data(meet_ps(left, right)), args)
    return 0


def _cmd_pstop_join(args):
    left = _load(args.left, PsSpace)
    right = _load(args.right, PsSpace)
    _emit(structure_data(join_ps(left, right)), args)
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


def _add_output(parser):
    parser.add_argument("--json-out", metavar="PATH", help="also write the JSON here")


def _add_suite_options(parser):
    parser.add_argument("--max-points", type=int, default=3, metavar="N")
    parser.add_argument("--max-frame-size", type=int, default=3, metavar="N")
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument("--jobs", type=int, default=1, metavar="N")


def _build_parser():
    parser = _Parser(prog="finitetop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="parse a structure and emit its canonical form")
    p.add_argument("--input", required=True, metavar="PATH")
    _add_output(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("downsets", help="the frame of downsets of a poset")
    p.add_argument("--poset", required=True, metavar="PATH")
    _add_output(p)
    p.set_defaults(handler=_cmd_downsets)

    p = sub.add_parser("omega", help="the frame of opens of a space")
    p.add_argument("--space", required=True, metavar="PATH")
    _add_output(p)
    p.set_defaults(handler=_cmd_omega)

    p = sub.add_parser("pt", help="the space of points of a frame")
    p.add_argument("--frame", required=True, metavar="PATH")
    _add_output(p)
    p.set_defaults(handler=_cmd_pt)

    p = sub.add_parser("coproduct", help="the coproduct of two frames")
    p.add_argument("--left", required=True, metavar="PATH")
    p.add_argument("--right", required=True, metavar="PATH")
    _add_output(p)
    p.set_defaults(handler=_cmd_coproduct)

    p = sub.add_parser("copair", help="the mediating hom out of a coproduct")
    p.add_argument("--left", required=True, metavar="PATH")
    p.add_argument("--right", required=True, metavar="PATH")
    _add_output(p)
    p.set_defaults(handler=_cmd_copair)

    p = sub.add_parser("pushout-loc", help="the localic pushout of a span of homs")
    p.add_argument("--left", required=True, metavar="PATH")
    p.add_argument("--right", required=True, metavar="PATH")
    _add_output(p)
    p.set_defaults(handler=_cmd_pushout_loc)

    pstop = sub.add_parser("pstop", help="pseudotopology operations")
    pstop_sub = pstop.add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser
    )
    p = pstop_sub.add_parser("tau", help="the topological modification")
    p.add_argument("--input", required=True, metavar="PATH")
    _add_output(p)
    p.set_defaults(handler=_cmd_pstop_tau)
    p = pstop_sub.add_parser("meet", help="the meet of two pseudotopologies")
    p.add_argument("--left", required=True, metavar="PATH")
    p.add_argument("--right", required=True, metavar="PATH")
    _add_output(p)
    p.set_defaults(handler=_cmd_pstop_meet)
    p = pstop_sub.add_parser("join", help="the join of two pseudotopologies")
    p.add_argument("--left", required=True, metavar="PATH")
    p.add_argument("--right", required=True, metavar="PATH")
    _add_output(p)
    p.set_defaults(handler=_cmd_pstop_join)
    p = pstop_sub.add_parser("check", help="run the pseudotopology lemma suites")
    _add_suite_options(p)
    _add_output(p)
    p.set_defaults(handler=_cmd_pstop_check)

    lift = sub.add_parser("lift", help="lifting problems and factorizations")
    lift_sub = lift.add_subparsers(
        dest="subcommand", required=True, parser_class=_Parser
    )
    p = lift_sub.add_parser("check", help="search a commuting square for fillers")
    p.add_argument("--square", required=True, metavar="PATH")
    _add_output(p)
    p.set_defaults(handler=_cmd_lift_check)
    p = lift_sub.add_parser("factorize", help="bounded cell factorization of a map")
    p.add_argument("--map", required=True, metavar="PATH")
    p.add_argument("--gens", required=True, metavar="PATH")
    p.add_argument("--steps", type=int, default=4, metavar="N")
    _add_output(p)
    p.set_defaults(handler=_cmd_lift_factorize)

    p = sub.add_parser("check", help="run verification suites")
    p.add_argument("target", help="a group name, a citation key, or all")
    _add_suite_options(p)
    _add_output(p)
    p.set_defaults(handler=_cmd_check)

    return parser


def run(argv):
    """Parse argv, dispatch, and return the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _InputProblem as exc:
        _diagnostic("input", str(exc))
        return 2
    except VerificationError as exc:
        _diagnostic("verification", str(exc))
        return 1
    except (FinitetopError, ValueError) as exc:
        _diagnostic("input", str(exc))
        return 2
    except OSError as exc:
        _diagnostic("input", str(exc))
        return 2


def main():
    sys.exit(run(sys.argv[1:]))
