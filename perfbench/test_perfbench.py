"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import cskit  # noqa: E402
import cskit.cli  # noqa: E402,F401

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_reports_every_metric(name, trace):
    proc = _run("--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.splitlines()
    result = json.loads(result)
    absent = json.loads(detail)["detail"].get("absent", [])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace == "1" else "end_to_end"]}
    # A metric whose function the program no longer has is reported absent.
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: u for k, u in listed.items() if k not in absent
    }
    assert set(absent) <= set(listed)
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "loss-contour", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_default_seed_reproduces_the_figure_grids():
    argv = {s.name: s.argv for s in workloads.build("lossless-figures", 0).sweeps}
    assert "0.05:1.5:0.05" in argv["success-prob-c15"]
    assert "0.05:1.2:0.05" in argv["teleport-c30"]
    loss = workloads.build("loss-contour", 0).sweeps
    assert [s.cells for s in loss] == [441, 21]
    assert all("0.5" in s.argv and "0:1:0.05" in s.argv for s in loss)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seeds_move_inputs_but_not_cost(name):
    base = workloads.build(name, 0)
    for seed in (1, 2, 3):
        other = workloads.build(name, seed)
        assert other == workloads.build(name, seed)
        assert [s.cells for s in other.sweeps] == [s.cells for s in base.sweeps]


def _teleport_sweep():
    return workloads.build("lossless-figures", 0).sweeps[1]


def test_golden_check_catches_a_small_perturbation_and_a_stray_nan():
    sweep = _teleport_sweep()
    golden = checks.load_golden()
    text = workloads.run_sweep(sweep)
    assert checks.golden_problems(sweep, text, golden) == []

    last = text.rstrip("\n").rsplit("\n", 1)[1]
    value = last.rsplit(",", 1)[1]
    perturbed = text.replace(last, last[: -len(value)] + repr(float(value) + 1e-9))
    assert checks.golden_problems(sweep, perturbed, golden)
    with_nan = text.replace(last, last[: -len(value)] + "nan")
    assert checks.golden_problems(sweep, with_nan, golden)
    assert checks.invariant_problems(sweep, with_nan, 0)


def test_golden_check_on_a_wigner_grid():
    sweep = workloads.build("wigner-views", 0).sweeps[2]
    golden = checks.load_golden()
    surface = workloads.run_sweep(sweep)
    assert checks.golden_problems(sweep, surface, golden) == []
    surface = surface.copy()
    surface[100, 100] += 1e-9
    assert checks.golden_problems(sweep, surface, golden)


def _traced_pass(workload):
    tracer = tracing.Tracer()
    with tracer.recording(0):
        p = run.run_pass(workload, run.Tally())
    return tracer, p


def test_traced_pass_self_times_account_for_the_wall_time():
    workload = workloads.build("lossless-figures", 1, smoke=True)
    workloads.warm_up(workload)
    tracer, p = _traced_pass(workload)
    spans = tracer.spans
    assert spans
    for s in spans:
        parent = s[tracing.PARENT]
        if parent != -1:
            outer = spans[parent]
            assert outer[tracing.START] <= s[tracing.START] <= s[tracing.END] <= outer[tracing.END]
    m = tracing.pass_metrics(spans, 0, p.wall_s)
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    top = sum(s[tracing.END] - s[tracing.START] for s in spans if s[tracing.PARENT] == -1)
    assert layer_self == pytest.approx(top, abs=1e-9)
    assert layer_self + m["trace.remainder_s"] == pytest.approx(p.wall_s, abs=1e-9)
    assert all(m[f"{layer}.self_s"] >= -1e-9 for layer in tracing.LAYERS)
    assert m["protocols.runs"] == 2 * 4 * 2 + 4 * 2  # success-prob rows + four beta sweeps
    assert set(tracing.UNITS) == set(m) | {"trace.overhead_s", "fock.beamsplitter.cold_s", "cli.bytes_out"}


def test_tracer_restores_every_function():
    originals = {
        (module, name): getattr(sys.modules[module], name) for module, name, _ in tracing.TRACED
    }
    _traced_pass(workloads.build("wigner-views", 1, smoke=True))
    assert cskit.protocols.apply_beamsplitter is cskit.fock.apply_beamsplitter
    assert cskit.loss.apply_beamsplitter is cskit.fock.apply_beamsplitter
    for (module, name), fn in originals.items():
        assert getattr(sys.modules[module], name) is fn
        assert not hasattr(fn, "__wrapped__")


def test_a_missing_function_is_an_absent_metric(monkeypatch):
    monkeypatch.delattr(cskit.fock, "project_photon_number")
    tracer = tracing.Tracer()
    tracer.install(("fock",))
    tracer.uninstall()
    assert tracer.missing == {"project_photon_number"}
    assert tracing.absent("fock.project.calls", tracer.missing)
    assert not tracing.absent("fock.fidelity.calls", tracer.missing)
