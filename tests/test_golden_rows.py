"""The benchmark's golden rows, checked in the test suite.

At seed 0 the benchmark compares every sweep's rows with the rows recorded in
``perfbench/golden/seed0.json``, to 1e-12. This runs every sweep of the four
workloads at seed 0 through the benchmark's own ``workloads`` and ``checks``
modules, read from ``perfbench/`` by path and not changed here, so a change
that moves a golden row fails here first. The ``loss-contour-jobs2`` sweeps
run serially here, with ``CSKIT_JOBS`` unset, and must give the same rows as
the benchmark's process pool.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("lossless-figures", "loss-contour", "wigner-views", "loss-contour-jobs2")


def _modules():
    """(workloads, checks), each registered under its name while the two load.

    A dataclass looks its module up by name, and ``checks`` imports
    ``workloads`` by name.
    """
    saved = {name: sys.modules.get(name) for name in ("workloads", "checks")}
    try:
        for name in saved:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
        return sys.modules["workloads"], sys.modules["checks"]
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module


workloads, checks = _modules()
GOLDEN = checks.load_golden()


@pytest.mark.parametrize(
    "sweep",
    [sweep for name in WORKLOADS for sweep in workloads.build(name, workloads.DEFAULT_SEED).sweeps],
    ids=lambda sweep: sweep.name,
)
def test_sweep_matches_golden_rows(monkeypatch, sweep):
    monkeypatch.delenv("CSKIT_JOBS", raising=False)
    assert checks.golden_problems(sweep, workloads.run_sweep(sweep), GOLDEN) == []
