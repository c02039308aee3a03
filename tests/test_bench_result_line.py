"""The benchmark's result lines, checked strictly.

Every workload of BENCHMARK.json runs ``perfbench/run.py`` in smoke mode,
once untraced and once traced. Each run must exit 0 and print exactly two
stdout lines, the detail and the result, both strict JSON: NaN and Infinity
are refused. The result's metric names must be BENCHMARK.json's end-to-end
names (untraced) or its per-layer names (traced), its sweeps must all be
correct, and a traced run must have lost no metric and no traced function.
perfbench's own smoke test accepts absent metrics, so this is the check that
a change to the traced code still yields a complete result.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [workload["name"] for workload in BENCHMARK["workloads"]])
def test_result_line(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "0.1", "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    detail, result = (json.loads(line, parse_constant=_refuse) for line in lines)
    names = {metric["name"] for metric in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    assert result["correct"] is True
    assert result["failed"] == 0
    if trace:
        assert detail["detail"]["absent"] == []
        assert detail["detail"]["missing_functions"] == []
