"""Benchmark runner for finitetop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check-default --seed 3 --seconds 25 --trace 0

Every pass of a workload runs in a fresh interpreter (child.py), one after
another, never in parallel.  With --trace 0 it runs a batch of set-up-only
children, then starts another pass only while the mean pass so far would
still end within --seconds, then runs a second batch of set-up-only
children, and reports the end-to-end metrics as medians; with --trace 1 it
runs one untraced and one traced pass and reports the per-layer metrics.
Every operation is checked against reference.json, recorded on commit
b444f04; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A record of
each run, with the machine it ran on, is appended to
.perfbench/results.jsonl in the checkout.

--quick runs tiny bounds for the benchmark's own tests.  --record runs one
pass per seed slot and rewrites the reference; use it only on a commit
whose outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from tracer import layer_metrics
from workloads import (
    SEED_SLOTS,
    SUITE_BOUNDS,
    WORKLOADS,
    seed_slot,
    write_structure_inputs,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
STATE_DIR = ".perfbench"

# The whole run ends within this many seconds, so a hung child cannot hold
# the run past its 180 s limit.
BUDGET_S = 170.0
# Wall-clock limit of one measured pass: about three times its usual length.
PASS_LIMIT_S = {"check-default": 150.0, "check-frames4": 60.0, "structures": 30.0}
SETUP_LIMIT_S = 20.0
# Set-up-only children in each of the two batches, one before the passes
# and one after them.
SETUP_BATCH = 12

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"))
# The times that are scaled by the calibration loop's rate: a pass's by the
# rate over that pass, a set-up's by the rate over its whole batch, because
# one set-up is too short for the loop to measure.
TIMES = ("setup_s", "wall_s", "cpu_s")

# Rounds of calibrate.loop per CPU second at which a scaled time equals the
# measured one: about the loop's usual rate beside a busy child on the
# 2-vCPU Intel Xeon host, under Python 3.11, on which the bounds were set.
REFERENCE_RATE = 3300.0


def machine_record():
    """nproc, CPU model, Python version and the commit of the checkout."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "commit": _commit(),
    }


def _commit():
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Calibrator:
    """calibrate.py running on the CPU that the children are pinned to.

    This host's speed drifts by up to 1.8x over seconds to minutes, and a
    pass cannot outlast the drift.  Pass times are therefore scaled by the
    calibration loop's rate over the same window, relative to
    REFERENCE_RATE.  A loop on the other CPU does not track the drift, so
    the loop and the children share one CPU.
    """

    def __init__(self, cpu):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calibrate.py"), str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.start = self.reading()

    def reading(self):
        """(rounds, CPU seconds) of the loop so far."""
        self.proc.stdin.write("?\n")
        self.proc.stdin.flush()
        rounds, cpu = self.proc.stdout.readline().split()
        return int(rounds), float(cpu)

    def scale(self, before, after):
        """Reference seconds per measured second between two readings."""
        rounds, cpu = after[0] - before[0], after[1] - before[1]
        if cpu < 1e-3:  # the loop barely ran in the window: use the whole run
            rounds, cpu = after[0] - self.start[0], after[1] - self.start[1]
        return rounds / cpu / REFERENCE_RATE

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Pass:
    """One child run: its result record, or why it has none."""

    def __init__(self, result, error, elapsed):
        self.result = result
        self.error = error
        self.elapsed = elapsed
        self.scale = 1.0

    def scaled(self, name):
        return self.result[name] * self.scale if name in TIMES else self.result[name]


def launch(spec, timeout, cpu=None):
    """Run child.py on spec with a wall-clock limit; never raises for the child.

    With cpu given, the child is pinned to that CPU before it starts.
    """
    spec = dict(spec, launched=time.monotonic())
    start = spec["launched"]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
            preexec_fn=pin,
        )
    except subprocess.TimeoutExpired:
        return Pass(None, f"timed out after {timeout:.0f} s", time.monotonic() - start)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return Pass(json.loads(lines[-1]), None, elapsed)
        except ValueError:
            pass
    tail = proc.stderr.strip().splitlines()[-3:]
    return Pass(None, f"exit {proc.returncode}: {' | '.join(tail)}", elapsed)


def _breaks_invariant(op, command):
    return op.get("exit") != command["exit"] or op.get("points") != command["points"]


def check_ops(ops, expected, commands):
    """One problem per expected operation the pass got wrong."""
    problems = []
    for k, want in enumerate(expected):
        got = ops[k] if k < len(ops) else None
        if got != want:
            problems.append(f"{want['op']}#{k}: expected {want}, got {got}")
        elif commands is not None and _breaks_invariant(got, commands[k]):
            problems.append(f"{want['op']}#{k}: breaks its invariant {commands[k]}")
    return problems


def intrinsic_problems(ops, commands):
    """Problems visible without a reference: failed suites, broken invariants."""
    if commands is None:
        return [f"{op['op']}: {op}" for op in ops if not op.get("ok")]
    if len(ops) != len(commands):
        return [f"{len(ops)} operations for {len(commands)} commands"]
    return [
        f"{op['op']}#{k}: breaks its invariant {cmd}"
        for k, (op, cmd) in enumerate(zip(ops, commands))
        if _breaks_invariant(op, cmd)
    ]


class Workload:
    """One workload at one seed: its child spec and its expected outputs."""

    def __init__(self, name, seed, mode, workdir, calibrator=None, cpu=None):
        self.name = name
        self.calibrator = calibrator
        self.cpu = cpu
        self.slot = seed_slot(seed)
        self.spec = {"workload": name, "slot": self.slot, "trace": False, "setup_only": False}
        self.commands = None
        if name == "structures":
            self.commands = write_structure_inputs(workdir, seed, mode)
            self.spec["commands"] = [{"op": c["op"], "argv": c["argv"]} for c in self.commands]
        else:
            self.spec["bounds"] = SUITE_BOUNDS[name][mode]

    def run(self, deadline, **flags):
        limit = SETUP_LIMIT_S if flags.get("setup_only") else PASS_LIMIT_S[self.name]
        timeout = min(limit, deadline - time.monotonic())
        if self.calibrator is None or flags.get("setup_only"):
            return launch(dict(self.spec, **flags), timeout, self.cpu)
        before = self.calibrator.reading()
        p = launch(dict(self.spec, **flags), timeout, self.cpu)
        p.scale = self.calibrator.scale(before, self.calibrator.reading())
        return p


def _median(values):
    return statistics.median(values) if values else 0.0


def _setups(workload, deadline, problems):
    """Up to SETUP_BATCH set-up-only children that gave a result.

    Each is scaled by the calibration loop's rate over the whole batch.
    """
    out = []
    before = workload.calibrator.reading()
    while len(out) < SETUP_BATCH and deadline - time.monotonic() > SETUP_LIMIT_S:
        p = workload.run(deadline, setup_only=True)
        if p.result is None:
            problems.append(f"set-up failed: {p.error}")
            break
        out.append(p)
    scale = workload.calibrator.scale(before, workload.calibrator.reading())
    for p in out:
        p.scale = scale
    return out


def measure(workload, expected, seconds, trace, deadline):
    """Run the passes and check them; return the run's findings as a dict."""
    passes = []
    problems = []
    if trace:
        passes.append(workload.run(deadline))
        passes.append(workload.run(deadline, trace=True))
    else:
        # One batch of set-ups comes before the passes and one after them,
        # so that their median spans the whole run; both count against
        # --seconds.
        start = time.monotonic()
        setups = _setups(workload, deadline, problems)
        first = time.monotonic()
        while True:
            passes.append(workload.run(deadline))
            now = time.monotonic()
            per_pass = (now - first) / len(passes)
            # The second batch of set-ups takes about as long as the first.
            if now - start + per_pass + (first - start) > seconds or now + 1.5 * per_pass > deadline:
                break
        setups += _setups(workload, deadline, problems)
    attempted = failed = 0
    for p in passes:
        attempted += len(expected)
        if p.result is None:
            bad = [f"pass failed: {p.error}"]
            failed += len(expected)
        else:
            bad = check_ops(p.result["ops"], expected, workload.commands)
            failed += len(bad)
        problems += bad
    done = [p for p in passes if p.result is not None]
    if trace:
        setups = done
    sources = {name: setups if name == "setup_s" else done for name, _ in END_TO_END}
    samples = {name: [p.scaled(name) for p in src] for name, src in sources.items()}
    found = {
        "attempted": attempted, "failed": failed, "problems": problems, "samples": samples,
        "raw_samples": {name: [p.result[name] for p in src] for name, src in sources.items()},
        "scales": {name: [p.scale for p in sources[name]] for name in TIMES},
    }
    if trace:
        untraced, traced = passes
        both = untraced.result and traced.result
        overhead = traced.scaled("wall_s") / untraced.scaled("wall_s") - 1 if both else 0.0
        snapshot = traced.result["trace"] if traced.result else {"spans": {}, "counts": {}, "distinct": {}}
        found.update(metrics=layer_metrics(snapshot, overhead), trace=snapshot)
    else:
        found["metrics"] = {
            name: {"value": _median(samples[name]), "unit": unit} for name, unit in END_TO_END
        }
    return found


def record(mode, workloads):
    """Run one untraced pass per seed slot and store its outputs as the reference."""
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    workdir = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    try:
        for name in workloads:
            for slot in range(SEED_SLOTS):
                workload = Workload(name, slot, mode, workdir)
                p = workload.run(time.monotonic() + 3 * PASS_LIMIT_S[name])
                if p.result is None:
                    raise SystemExit(f"{name} slot {slot}: {p.error}")
                bad = intrinsic_problems(p.result["ops"], workload.commands)
                if bad:
                    raise SystemExit(f"{name} slot {slot}: " + "; ".join(bad))
                reference.setdefault(mode, {}).setdefault(name, {})[str(slot)] = p.result["ops"]
                print(f"recorded {mode} {name} slot {slot} in {p.elapsed:.1f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny bounds, for tests")
    parser.add_argument("--record", action="store_true", help="rewrite the reference")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join("src", "finitetop", "__init__.py")):
        sys.stderr.write("perfbench: run from the root of a finitetop checkout (no src/finitetop)\n")
        return 2
    mode = "quick" if args.quick else "full"
    if args.record:
        record(mode, [args.workload] if args.workload else WORKLOADS)
        return 0
    if args.workload is None:
        sys.stderr.write("perfbench: --workload is required\n")
        return 2
    deadline = time.monotonic() + BUDGET_S
    with open(REFERENCE, encoding="utf-8") as fh:
        expected = json.load(fh)[mode][args.workload][str(seed_slot(args.seed))]
    machine = machine_record()
    workdir = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    cpu = max(os.sched_getaffinity(0))
    calibrator = Calibrator(cpu)
    try:
        workload = Workload(args.workload, args.seed, mode, workdir, calibrator, cpu)
        found = measure(workload, expected, args.seconds, args.trace, deadline)
    finally:
        calibrator.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"perfbench {args.workload} seed {args.seed} (slot {workload.slot}, {mode}) "
        f"trace {args.trace}: nproc {machine['nproc']}, {machine['cpu']}, "
        f"Python {machine['python']}, commit {machine['commit']}"
    )
    for problem in found["problems"]:
        print(f"  FAILED {problem}")
    attempted, failed = found["attempted"], found["failed"]
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    for name, values in found["samples"].items():
        shown = ", ".join(f"{v:.4f}" for v in values)
        if args.trace:
            print(f"  {name} of the untraced and the traced pass: {shown}")
        elif values:
            print(f"  {name} median {_median(values):.4f} over {len(values)} samples: {shown}")
    for name in TIMES:
        print(f"  {name} unscaled: " + ", ".join(f"{v:.4f}" for v in found["raw_samples"][name])
              + "; scales: " + ", ".join(f"{v:.4f}" for v in found["scales"][name]))
    out = {"correct": failed == 0 and not found["problems"], "attempted": attempted,
           "failed": failed, "metrics": found["metrics"]}
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(os.path.join(STATE_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(found, correct=out["correct"], workload=args.workload,
                                 seed=args.seed, mode=mode, trace=args.trace,
                                 machine=machine, time=time.time())) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
