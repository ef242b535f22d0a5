"""prodgeo benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Runs one workload as a closed loop (one caller; the next op starts when
the previous one returns) for S seconds in this process, checks every
op's output against an oracle, and prints every metric by name with its
unit.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``--workload all`` runs every workload in both modes, each
in a fresh interpreter.  prodgeo is imported from ``src/`` next to this
directory and nowhere else.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import yardstick

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 7
# The tail is the latency with this many ops beyond it, or with a tenth
# of the ops beyond it in runs of fewer than ten times as many ops.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "points_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB",
}


def _parse(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None
    outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(loadavg) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": [round(v, 2) for v in loadavg],
        "commit": _git_commit(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, tmpdir: str) -> list[float]:
    """Wall time from spawning a fresh interpreter to its first op being
    ready, once per repeat."""
    probe = os.path.join(BENCH_DIR, "probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, probe, workload, str(seed), tmpdir], stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(t1 - t0)
    return times


class Loop:
    """Op latencies, yardstick times between ops, points and failures of a
    closed loop."""

    def __init__(self, workload):
        self.w = workload
        self.latencies: list[float] = []
        self.yardsticks = [yardstick.measure()]
        self.points = 0
        self.attempted = 0
        self.failed = 0

    def op(self, run, api, inp) -> float:
        """Run one op, check it outside the timed region, and return its
        latency."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = run(api, inp)
        except Exception:
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            problems = ["op raised"]
        else:
            elapsed = time.perf_counter() - t0
            problems = None
        self.yardsticks.append(yardstick.measure())
        if problems is None:
            problems = self.w.check(inp, result)
        self.latencies.append(elapsed)
        if problems:
            self.failed += 1
            print(f"op {self.attempted} failed: {'; '.join(problems[:5])}", file=sys.stderr)
        else:
            self.points += self.w.points(inp)
        return elapsed


def tail(latencies) -> tuple[float, str]:
    """The latency with min(TAIL_BEYOND, n // 10) of the n ops beyond it:
    the highest percentile with TAIL_BEYOND ops beyond it once that is at
    least p90, and p90 (the largest below ten ops) in shorter runs, so the
    tail moves smoothly with the op count."""
    s = sorted(latencies)
    n = len(s)
    k = n - 1 - min(TAIL_BEYOND, n // 10)
    return s[k], f"p{100.0 * (k + 1) / n:.1f} of {n} ops"


def run_timed(w, seconds: float, setup: list[float]):
    import workloads

    api = workloads.plain_api()
    w.ready(api)
    loop = Loop(w)
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        loop.op(w.run, api, w.make_input(index))
        index += 1
        if time.perf_counter() >= deadline:
            break
    raw = loop.latencies
    scaled = yardstick.scaled(raw, loop.yardsticks)
    # The tail is set by ops that ran while the processor was slow, which
    # makes it steady raw; scaled, an op whose yardstick samples missed a
    # speed change would land in it.
    tail_s, tail_label = tail(raw)
    metrics = {
        "setup_s": statistics.median(setup),
        "points_per_s": loop.points / sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "points_per_s": f"at reference speed; raw {loop.points / sum(raw):.6g} 1/s",
        "op_p50_s": f"at reference speed, of {len(raw)} ops; raw {statistics.median(raw):.4g} s",
        "op_tail_s": f"raw, {tail_label}",
    }
    detail = {"latencies_s": raw, "yardstick_s": loop.yardsticks, "setup_runs_s": setup}
    return loop, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes, detail


def run_traced(w, seconds: float):
    """Each input runs once untraced and once traced, in alternating
    order; per-layer numbers come from the traced ops only."""
    import workloads
    from tracer import LAYERS, Tracer

    api = workloads.plain_api()
    w.ready(api)
    tracer = Tracer()
    loop = Loop(w)
    untraced, traced, summaries = [], [], []
    traced_points = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        inp = w.make_input(index)
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.append(loop.op(w.run, api, inp))
                continue
            first = tracer.install(index)
            try:
                wall = loop.op(tracer.op_root(w.run), tracer.api, inp)
            finally:
                tracer.uninstall()
            traced.append(wall)
            summary = tracer.op_summary(first, wall)
            summary["bytes_out"] = w.bytes_out()
            summaries.append(summary)
            traced_points += w.points(inp)
        index += 1
        if time.perf_counter() >= deadline:
            break
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{w.name}.npz"))

    problems = [p for s in summaries for p in s["problems"]]
    for p in problems:
        print(f"trace accounting: {p}", file=sys.stderr)
    ops = len(summaries)

    def mean(key, layer=None):
        return sum(s[key][layer] if layer else s[key] for s in summaries) / ops

    c = tracer.counters
    jet_calls = mean("calls", "jets")
    m = {
        "jets.calls": (jet_calls, "count"),
        "jets.busy_s": (mean("busy_s", "jets"), "s"),
        "jets.self_s": (mean("self_s", "jets"), "s"),
        "jets.us_per_call": (1e6 * mean("busy_s", "jets") / jet_calls if jet_calls else 0.0, "us"),
        "expr.nodes_visited": (c["expr.nodes_visited"] / ops, "count"),
        "expr.self_s": (mean("self_s", "expr"), "s"),
        "linalg.det_calls": (mean("calls", "linalg"), "count"),
        "linalg.det_calls_per_point": (mean("calls", "linalg") * ops / traced_points, "1/point"),
        "linalg.busy_s": (mean("busy_s", "linalg"), "s"),
        "geometry.calls": (mean("calls", "geometry"), "count"),
        "geometry.self_s": (mean("self_s", "geometry"), "s"),
        "economics.calls": (mean("calls", "economics"), "count"),
        "economics.self_s": (mean("self_s", "economics"), "s"),
        "classifier.self_s": (mean("self_s", "classifier"), "s"),
        "classifier.grid.calls": (mean("calls", "classifier.grid"), "count"),
        "classifier.grid.busy_s": (mean("busy_s", "classifier.grid"), "s"),
        "classifier.grid.points": (c["classifier.grid.points"] / ops, "count"),
        "reports.self_s": (mean("self_s", "reports"), "s"),
        "reports.rows": (c["reports.rows"] / ops, "count"),
        "cli.self_s": (mean("self_s", "cli"), "s"),
        "cli.bytes_out": (mean("bytes_out"), "bytes"),
        "catalog.calls": (mean("calls", "catalog"), "count"),
        "catalog.busy_s": (mean("busy_s", "catalog"), "s"),
        "catalog.validate_points": (c["catalog.validate_points"] / ops, "count"),
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.errors"] = (tracer.errors[layer] / ops, "count")
    m["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    m["trace.spans"] = (mean("spans"), "count")
    m["trace.runner_s"] = (mean("runner_s"), "s")
    notes = {
        "trace.overhead_ratio": f"traced over untraced op_p50_s, {ops} ops each",
        "trace.runner_s": "op wall time minus every layer's self time",
    }
    detail = {"traced_s": traced, "untraced_s": untraced, "accounting_problems": problems}
    return loop, m, notes, detail


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_one(args, loadavg) -> int:
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        if args.trace:
            loop, metrics, notes, detail = run_traced(w, args.seconds)
        else:
            setup = measure_setup(args.workload, args.seed, tmpdir)
            loop, metrics, notes, detail = run_timed(w, args.seconds, setup)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    machine = machine_record(loadavg)
    machine["yardstick_median_s"] = statistics.median(loop.yardsticks)
    result = {
        "correct": loop.failed == 0 and not detail.get("accounting_problems"),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, **result, "notes": notes, **detail}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine: {json.dumps(machine)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{loop.attempted} ops, {loop.failed} failed, "
          f"fail_ratio {loop.failed / loop.attempted:.4g}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28s} {value:>14.6g} {unit}{note}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, timed then traced, each in a fresh interpreter."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"error: {name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    if not os.path.isfile(os.path.join(SRC, "prodgeo", "__init__.py")):
        print(f"error: no prodgeo sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import prodgeo

    if not os.path.abspath(prodgeo.__file__).startswith(SRC + os.sep):
        print(f"error: prodgeo was imported from {prodgeo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, loadavg)


if __name__ == "__main__":
    sys.exit(main())
