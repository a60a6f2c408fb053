"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON, from the root of a checkout.
The spec is written by run.py.  The child imports ``finitetop`` from the
checkout's ``src``, builds the workload's corpora, runs its operations
once, and prints one JSON object as its last line of standard output:
set-up time, wall and CPU time of the operations, peak RSS, one record
per operation (case counts, exit codes, output digests), and with tracing
on, the tracer's snapshot.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _digest(text):
    """sha256 and UTF-8 length of text, encoded a slice at a time."""
    sha = hashlib.sha256()
    size = 0
    for start in range(0, len(text), 1 << 20):
        chunk = text[start:start + (1 << 20)].encode()
        sha.update(chunk)
        size += len(chunk)
    return sha.hexdigest(), size


def _point_count(text):
    """Length of the top-level "points" list of a canonical structure.

    Keys are sorted, so "points" is the last key of every structure the
    workload emits; only that list is decoded.
    """
    at = text.rindex('"points": ') + len('"points": ')
    points, _ = json.JSONDecoder().raw_decode(text, at)
    return len(points)


class _Timer:
    """Sums wall and CPU time over the measured operations."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    @contextlib.contextmanager
    def measure(self):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += time.process_time() - cpu


def _suite_ops(spec, timer, suites, canonical_json, report_data):
    from workloads import SUITE_GROUPS

    options = suites.SuiteOptions(**spec["bounds"], seed=spec["slot"])
    groups = SUITE_GROUPS[spec["workload"]]
    calls = (
        [("run_all", lambda: suites.run_all(options))]
        if groups is None
        else [(g, lambda g=g: suites.run_group(g, options)) for g in groups]
    )
    ops = []
    for name, call in calls:
        try:
            with timer.measure():
                reports = call()
        except Exception as exc:  # a crash is recorded as a failed operation
            ops.append({"op": name, "crash": f"{type(exc).__name__}: {exc}"})
            continue
        for rep in reports:
            digest, _ = _digest(canonical_json(report_data(rep)))
            ops.append({"op": "suite." + rep.suite, "ok": rep.ok, "cases": rep.cases, "sha256": digest})
    return ops


def _command_ops(spec, timer, cli, tracer):
    ops = []
    for cmd in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with timer.measure():
                    if tracer is None:
                        code = cli.run(cmd["argv"])
                    else:
                        code = tracer.call("cmd." + cmd["op"], cli.run, cmd["argv"])
        except Exception as exc:  # a crash is recorded as a failed operation
            ops.append({"op": cmd["op"], "crash": f"{type(exc).__name__}: {exc}"})
            continue
        text = out.getvalue()
        out.close()
        digest, size = _digest(text)
        record = {"op": cmd["op"], "exit": code, "sha256": digest, "bytes": size}
        if code == 0:
            record["points"] = _point_count(text)
        ops.append(record)
    return ops


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.abspath("src")
    sys.path.insert(0, src)

    import finitetop
    from finitetop import cli, corpus, suites
    from finitetop.serialize import canonical_json
    from finitetop.suites import report_data

    if not os.path.abspath(finitetop.__file__).startswith(src + os.sep):
        raise SystemExit(f"finitetop was imported from {finitetop.__file__}, not {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if spec["workload"] != "structures":
        from workloads import corpora

        for name, args in corpora(spec["workload"], spec["bounds"]):
            getattr(corpus, name)(*args)
    result = {"setup_s": time.monotonic() - spec["launched"]}
    if not spec["setup_only"]:
        timer = _Timer()
        if spec["workload"] == "structures":
            ops = _command_ops(spec, timer, cli, tracer)
        else:
            ops = _suite_ops(spec, timer, suites, canonical_json, report_data)
        result.update(
            wall_s=timer.wall,
            cpu_s=timer.cpu,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            ops=ops,
        )
        if tracer is not None:
            result["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
