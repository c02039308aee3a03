"""Output checks, run outside the timed region.

At the default seed every sweep is compared with golden rows recorded at the
seed commit (``golden/seed0.json``): numeric fields agree to 1e-12 and NaN
matches NaN. Wigner surfaces are compared on every 10th point of each axis,
which keeps the file small. At every seed the physical invariants that apply
to a sweep are checked as well.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

import workloads

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "seed0.json"
TOL = 1e-12
STRIDE = 10
# The +-5 phase-space window clips the tails of a beta ~ 2 cat, which costs
# up to ~2e-3 of the integral (see workloads._wigner_views).
WIGNER_INTEGRAL_TOL = 5e-3


def parse_csv(text: str):
    """(columns, rows) of a cskit CSV; numeric fields become floats."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        return [], []
    columns = lines[0].split(",")
    rows = [[_field(tok) for tok in line.split(",")] for line in lines[1:]]
    return columns, rows


def _field(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def sample(sweep, output) -> dict:
    """The rows of ``output`` that the golden file keeps."""
    if isinstance(output, str):
        columns, rows = parse_csv(output)
        if sweep.check.startswith("wigner"):
            steps = math.isqrt(len(rows))
            rows = [r for k, r in enumerate(rows) if (k // steps) % STRIDE == 0 and (k % steps) % STRIDE == 0]
        return {"columns": columns, "rows": rows}
    n = output.shape[0]
    rows = [[i, j, float(output[i, j])] for i in range(0, n, STRIDE) for j in range(0, n, STRIDE)]
    return {"columns": ["i", "j", "W"], "rows": rows}


def compare(expected: dict, actual: dict, tol: float = TOL) -> list:
    """Mismatches between two samples: numbers to ``tol``, NaN only with NaN."""
    if expected["columns"] != actual["columns"]:
        return [f"columns {actual['columns']} != {expected['columns']}"]
    if len(expected["rows"]) != len(actual["rows"]):
        return [f"{len(actual['rows'])} rows != {len(expected['rows'])}"]
    problems = []
    for k, (want, got) in enumerate(zip(expected["rows"], actual["rows"])):
        for col, a, b in zip(expected["columns"], want, got):
            if isinstance(a, float) and isinstance(b, float):
                same = (math.isnan(a) and math.isnan(b)) or abs(a - b) <= tol
            else:
                same = a == b
            if not same:
                problems.append(f"row {k} {col}: {b!r} != golden {a!r}")
    return problems


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def golden_problems(sweep, output, golden: dict) -> list:
    if sweep.name not in golden:
        return [f"no golden rows for {sweep.name}"]
    return compare(golden[sweep.name], sample(sweep, output))


def invariant_problems(sweep, output, seed: int) -> list:
    """Physical invariants of one sweep's output."""
    if sweep.check in ("wigner-pure", "wigner-rho"):
        return _wigner_problems(sweep, output)
    columns, rows = parse_csv(output)
    if len(rows) != sweep.cells:
        return [f"{len(rows)} rows, expected {sweep.cells}"]
    problems = _unit_interval_problems(columns, rows)
    if sweep.check == "loss-teleport":
        problems += _lossy_teleport_problems(sweep, columns, rows, random.Random(seed))
    elif sweep.check == "loss-entswap":
        problems += _lossy_entswap_problems(sweep, columns, rows)
    return problems


def _unit_interval_problems(columns, rows) -> list:
    """Fidelities and success probabilities lie in [0, 1].

    NaN is allowed only in a loss cell with eta1 = 0 or eta2 = 0, where the
    accepted weight can vanish.
    """
    problems = []
    for k, row in enumerate(rows):
        cells = dict(zip(columns, row))
        degenerate = cells.get("eta1") == 0.0 or cells.get("eta2") == 0.0
        for col in ("avg_fidelity", "p_success", "fidelity"):
            value = cells.get(col)
            if value is None or (degenerate and math.isnan(value)):
                continue
            if not -TOL <= value <= 1.0 + TOL:
                problems.append(f"row {k} {col}={value!r} outside [0, 1]")
    return problems


def _cell(columns, rows, eta1, eta2):
    for row in rows:
        cells = dict(zip(columns, row))
        if cells["eta1"] == eta1 and cells["eta2"] == eta2:
            return cells
    return None


def _lossy_teleport_problems(sweep, columns, rows, rng) -> list:
    from cskit import loss, protocols

    amplitude, cutoff = sweep.params["amplitude"], sweep.params["cutoff"]
    spec = protocols.InputSpec(workloads.KIND, amplitude)
    resource = protocols.ResourceSpec(workloads.KIND, math.sqrt(2.0) * amplitude)
    problems = []

    lossless = protocols.run_teleportation(spec, resource, cutoff).average_fidelity
    at_one = _cell(columns, rows, 1.0, 1.0)
    if at_one is None or abs(at_one["fidelity"] - lossless) > TOL:
        problems.append(f"eta = 1 cell {at_one} != lossless fidelity {lossless!r}")

    # One sampled cell: the CSV agrees with the library run, and one of its
    # outcomes agrees with the partial trace of the purification.
    cells = [dict(zip(columns, r)) for r in rows if r[0] > 0.0 and r[1] > 0.0]
    cell = rng.choice(cells)
    config = loss.LossConfig(cell["eta1"], cell["eta2"])
    run = loss.run_lossy_teleportation(spec, resource, config, cutoff)
    if abs(run.average_fidelity - cell["fidelity"]) > TOL:
        problems.append(f"cell {cell} != library fidelity {run.average_fidelity!r}")
    records = [
        o for o in run.outcomes
        if o.accepted and o.probability > 0.0 and o.correction in ("I", "X")
    ]
    rec = rng.choice(records)
    prob, rho = workloads.lossy_output_density(
        amplitude, config.eta1, config.eta2, rec.n, rec.m, cutoff
    )
    elems = rho.elems
    if rec.correction == "X":  # the pi phase shift the protocol applies
        sign = np.where(np.arange(cutoff + 1) % 2 == 0, 1.0, -1.0)
        elems = sign[:, None] * elems * sign[None, :]
    target = spec.at_alpha(math.sqrt(config.eta1) * amplitude).to_fock(cutoff).amps
    fid = float(np.real(np.vdot(target, elems @ target)))
    if abs(prob - rec.probability) > TOL or abs(fid - rec.fidelity) > TOL:
        problems.append(
            f"outcome ({rec.n}, {rec.m}) at {config}: partial trace gives p={prob!r} "
            f"F={fid!r}, run gives p={rec.probability!r} F={rec.fidelity!r}"
        )
    return problems


def _lossy_entswap_problems(sweep, columns, rows) -> list:
    from cskit import protocols

    amplitude, cutoff = sweep.params["amplitude"], sweep.params["cutoff"]
    lossless = protocols.run_entanglement_swap(
        protocols.InputSpec(workloads.KIND, amplitude),
        protocols.ResourceSpec(workloads.KIND, amplitude),
        cutoff,
    ).average_fidelity
    at_one = _cell(columns, rows, 1.0, 1.0)
    if at_one is None or abs(at_one["fidelity"] - lossless) > TOL:
        return [f"eta = 1 cell {at_one} != lossless fidelity {lossless!r}"]
    return []


def _wigner_problems(sweep, output) -> list:
    """The grid integral of W matches the trace of the state."""
    if isinstance(output, str):
        columns, rows = parse_csv(output)
        values = np.array([row[columns.index("W")] for row in rows])
    else:
        values = np.ravel(output)
    if values.size != sweep.cells:
        return [f"{values.size} grid points, expected {sweep.cells}"]
    steps = math.isqrt(sweep.cells)
    integral = float(np.sum(values)) * workloads.phase_grid(steps).cell_area
    trace = 1.0
    if sweep.check == "wigner-rho":
        p = sweep.params
        _, rho = workloads.lossy_output_density(
            p["amplitude"], p["eta1"], p["eta2"], p["n"], p["m"], p["cutoff"]
        )
        trace = float(np.real(rho.trace()))
    if not abs(integral - trace) <= WIGNER_INTEGRAL_TOL:
        return [f"Wigner integral {integral!r} != trace {trace!r}"]
    return []


def sweep_problems(sweep, output, seed: int, golden) -> list:
    """Everything wrong with one sweep's output; ``golden`` is None off the default seed."""
    problems = invariant_problems(sweep, output, seed)
    if golden is not None:
        problems += golden_problems(sweep, output, golden)
    return problems
