"""cskit benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs from the root of a source checkout and imports cskit from ``src``. It
warms up, then runs whole passes of the workload's sweeps back to back until
the passes add up to ``--seconds``, checks every output outside the timed
region, and prints as its last line one JSON object: ``correct``,
``attempted`` and ``failed`` (sweeps) and ``metrics``. The line before it
holds the details: pass times, the failed fraction, problems found and the
environment (Python, numpy, scipy, BLAS, thread settings, load).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the tracing
overhead (traced minus untraced pass time) and what the layer self times
leave unaccounted; the spans go to ``.perfbench/spans-<workload>.csv``.

``--smoke`` shrinks every grid to a few cells. ``perfbench/report.py`` runs
every workload and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

import checks
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="a few cells per sweep")
    return parser.parse_args(argv)


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy older than 1.26
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "CSKIT_JOBS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def _cpu_s() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.shape == b.shape and bool(numpy.array_equal(a, b, equal_nan=True))


class Tally:
    """Sweeps attempted and failed.

    The first output of each sweep is its reference; a later pass must
    reproduce it exactly. After timing, each reference is checked, and a
    wrong one fails every pass that reproduced it.
    """

    def __init__(self):
        self.reference = {}
        self.reproduced = Counter()
        self.attempted = 0
        self.failed = 0
        self.problems = {}

    def record(self, sweep, output):
        self.attempted += 1
        if output is None:
            self.failed += 1
            return
        first = self.reference.setdefault(sweep.name, (sweep, output))[1]
        if first is output or _same(first, output):
            self.reproduced[sweep.name] += 1
        else:
            self.failed += 1
            self.problems.setdefault(sweep.name, []).append("output differs from the first pass")

    def check(self, seed, golden):
        for name, (sweep, output) in self.reference.items():
            try:
                problems = checks.sweep_problems(sweep, output, seed, golden)
            except Exception:  # a malformed output must count as wrong, not stop the run
                problems = ["check raised:\n" + traceback.format_exc()]
            if problems:
                self.failed += self.reproduced[name]
                self.problems.setdefault(name, []).extend(problems)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    cells: int
    bytes_out: int


def run_pass(workload, tally) -> Pass:
    outputs = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for sweep in workload.sweeps:
        try:
            output = workloads.run_sweep(sweep)
        except Exception:  # one failing sweep is counted, the pass goes on
            traceback.print_exc(file=sys.stderr)
            output = None
        outputs.append((sweep, output))
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    for sweep, output in outputs:
        tally.record(sweep, output)
    return Pass(
        wall,
        cpu,
        sum(s.cells for s, out in outputs if out is not None),
        sum(len(out) for _, out in outputs if isinstance(out, str)),
    )


def tail(values):
    """(value, percentile): the highest percentile with at least ten values above it.

    With fewer than 21 values no percentile above the median has ten values
    beyond it, so the tail is the largest value (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_seconds(args) -> list:
    """Wall time of fresh processes that import cskit and warm the workload up."""
    argv = [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.decode(errors='replace')}")
    return samples


def untraced_run(args, workload, tally):
    workloads.warm_up(workload)
    passes = []
    with workloads.cskit_jobs(workload.jobs):
        while not passes or sum(p.wall_s for p in passes) < args.seconds:
            passes.append(run_pass(workload, tally))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.jobs > 1:
        # Read before the set-up probes, which are children too.
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup = setup_seconds(args)
    walls = [p.wall_s for p in passes]
    cells = sum(p.cells for p in passes)
    cpu = sum(p.cpu_s for p in passes)
    tail_s, tail_pct = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cells_per_s": (cells / sum(walls), "cells/s"),
        "pass_s_p50": (statistics.median(walls), "s"),
        "pass_s_tail": (tail_s, "s"),
        "cpu_s_per_cell": (cpu / cells if cells else cpu, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    detail = {
        "passes": len(passes),
        "pass_s": walls,
        "tail_percentile": tail_pct,
        "setup_s_samples": setup,
    }
    return metrics, detail


def traced_run(args, workload, tally):
    tracer = tracing.Tracer()
    # The warm-up makes the first call of each beamsplitter configuration.
    with tracer.recording("warmup"):
        workloads.warm_up(workload)
    # A pool runs rows in worker processes whose spans would be lost, so only
    # the parent's cli layer is traced there; the other layers come from one
    # serial traced pass.
    layers = ("cli",) if workload.jobs > 1 else None

    untraced, traced, per_pass = [], [], []
    with workloads.cskit_jobs(workload.jobs):
        while not traced or sum(untraced) + sum(traced) < args.seconds:
            untraced.append(run_pass(workload, tally).wall_s)
            pass_id = len(traced)
            with tracer.recording(pass_id, layers):
                p = run_pass(workload, tally)
            traced.append(p.wall_s)
            per_pass.append(tracing.pass_metrics(tracer.spans, pass_id, p.wall_s))
            per_pass[-1]["cli.bytes_out"] = p.bytes_out
    metrics = tracing.median_metrics(per_pass)

    if layers is not None:
        with workloads.cskit_jobs(1), tracer.recording("serial"):
            p = run_pass(workload, tally)
        serial = tracing.pass_metrics(tracer.spans, "serial", p.wall_s)
        for name, value in serial.items():
            layer = name.split(".")[0]
            if layer in tracing.LAYERS and layer not in layers:
                metrics[name] = value

    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["fock.beamsplitter.cold_s"] = tracing.cold_beamsplitter_s(tracer.spans, "warmup")
    absent = sorted(name for name in metrics if tracing.absent(name, tracer.missing))
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{args.workload}.csv"
    tracer.write(spans_path)
    detail = {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "absent": absent,
        "missing_functions": sorted(tracer.missing),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return {name: (metrics[name], unit) for name, unit in tracing.UNITS.items() if name not in absent}, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cskit" / "__init__.py").is_file():
        print(f"error: no cskit sources under {SRC}; run from a cskit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    env = environment()
    workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    tally = Tally()
    run = traced_run if args.trace else untraced_run
    metrics, detail = run(args, workload, tally)
    use_golden = args.seed == workloads.DEFAULT_SEED and not args.smoke
    tally.check(args.seed, checks.load_golden() if use_golden else None)
    env["loadavg_end"] = os.getloadavg()
    detail.update(
        workload=args.workload,
        seed=args.seed,
        smoke=args.smoke,
        cells_per_pass=workload.cells,
        cskit_jobs_during_passes=workload.jobs,
        golden_checked=use_golden,
        failed_frac=tally.failed / tally.attempted,
        problems=tally.problems,
        environment=env,
    )
    for name, problems in tally.problems.items():
        print(f"FAILED {name}: " + "; ".join(problems), file=sys.stderr)
    print(json.dumps({"detail": detail}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
