"""Run every workload, one process each, and print every metric with its unit.

    python3 perfbench/report.py [--trace] [--baseline perfbench/baseline.json]

Each workload runs in its own process because peak RSS only grows, on the
default seed for ``run_seconds`` of BENCHMARK.json. The table shows the
end-to-end metrics (per-layer ones with ``--trace``) and the failed fraction
of sweeps. ``--baseline`` also runs the traced pass and writes both, with the
environment, to a file; the layer-to-metric map of ``perfbench/baseline.json``
is carried over into it.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
SEED = 0


def run_workload(name, seconds, trace):
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead of end-to-end")
    parser.add_argument("--baseline", type=Path, default=None, help="write untraced and traced results here")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    modes = (False, True) if args.baseline else (args.trace,)
    # Which end-to-end metric each per-layer metric should move, and on which
    # workload; kept in the baseline so that a change can be checked against it.
    layer_map = json.loads(BASELINE.read_text())["layer_map"]
    baseline = {"seed": SEED, "seconds": seconds, "workloads": {}, "layer_map": layer_map}
    for w in bench["workloads"]:
        entry = baseline["workloads"].setdefault(w["name"], {})
        for trace in modes:
            result, detail = run_workload(w["name"], seconds, trace)
            failed_frac = result["failed"] / result["attempted"]
            print(f"{w['name']}  ({detail['cells_per_pass']} cells per pass, {'traced' if trace else 'untraced'})")
            for metric, m in result["metrics"].items():
                print(f"  {metric:28s} {m['value']:>16.6g} {m['unit']}")
            print(f"  {'failed_frac':28s} {failed_frac:>16.6g} ratio ({result['failed']} of {result['attempted']} sweeps)")
            for metric in detail.get("absent", []):
                print(f"  {metric:28s} {'absent':>16s}")
            entry["cells_per_pass"] = detail["cells_per_pass"]
            entry["per_layer" if trace else "end_to_end"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["failed_frac" + ("_traced" if trace else "")] = failed_frac
            entry["environment" + ("_traced" if trace else "")] = detail["environment"]
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
