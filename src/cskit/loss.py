"""Loss modeling: imperfect sources and inefficient detectors.

eta1 models imperfect resource creation, applied just after the source, and
eta2 models detector inefficiency, applied just before each detector. Both
are the pure-loss channel of a transmitivity-eta beamsplitter whose second
port starts in vacuum.

Source loss is ``attenuate``: it appends the environment mode and keeps the
purification, and the environment count indexes the channel's Kraus
branches, which the fidelities sum over. Detector loss is not a mode: the
outcome tables of lossless counters are mapped through the binomial response
M[n, k] of an inefficient counter (``fock.detector_response``) as M T M^T.
That is exact, since each count n with environment count e comes from one
input k = n + e. Lossy teleportation states thus have d^4 amplitudes and
lossy entanglement-swapping states d^5.

``conditional_output_density`` keeps every loss as an environment mode and
reduces by an explicit partial trace, as an independent cross-check. Inputs
are amplitude-matched to the lossy resource: a nominal amplitude alpha
becomes sqrt(eta1) * alpha.

The lossy runs here and the lossless runs in ``cskit.protocols`` are one
circuit-and-herald engine: a lossless run is the eta1 = eta2 = 1 case, where
no environment mode is added and the tables are used as they are.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

from .fock import (
    apply_beamsplitter,
    attenuate,
    fock_basis_state,
    partial_trace,
    project_photon_number,
    tensor,
)
from .protocols import InputSpec, LossConfig, ProtocolSummary, ResourceSpec, _swap, _teleport

__all__ = [
    "LossConfig",
    "attenuate",
    "LOSS_CUTOFFS",
    "run_lossy_teleportation",
    "run_lossy_entswap",
    "conditional_output_density",
    "loss_cell_fidelity",
    "loss_contour_sweep",
    "loss_diagonal_sweep",
]

# Default cutoff per protocol. Lossy teleport states are d^4 and lossy
# entswap states d^5 (source loss adds one mode), with d = cutoff + 1. The
# cross-check conditional_output_density keeps all three losses as modes, d^6.
LOSS_CUTOFFS = {"teleport": 6, "entswap": 5}

# The default eta grid: 0, 0.05, ..., 1.
_ETA_GRID = [i / 20 for i in range(21)]


def _matched(spec: InputSpec, alpha: float, loss: LossConfig) -> InputSpec:
    """``spec`` rebuilt at sqrt(eta1) * alpha, matching the attenuated resource."""
    return spec.at_alpha(math.sqrt(loss.eta1) * alpha)


def run_lossy_teleportation(
    input_spec: InputSpec,
    resource_spec: ResourceSpec,
    loss: LossConfig,
    cutoff: int = 6,
    include_z_outcomes: bool = False,
) -> ProtocolSummary:
    """Teleportation with source loss eta1 and detector loss eta2.

    ``input_spec.alpha`` is the nominal qubit amplitude; the input is built
    at sqrt(eta1) * alpha to match the attenuated resource, and per-outcome
    fidelities are taken against that matched input. At eta1 = eta2 = 1 this
    is the lossless run.
    """
    config = {
        "protocol": "lossy-teleportation",
        "input": input_spec,
        "resource": resource_spec,
        "loss": loss,
        "cutoff": cutoff,
        "include_z_outcomes": include_z_outcomes,
    }
    matched = _matched(input_spec, input_spec.alpha, loss)
    return _teleport(matched, resource_spec, loss, cutoff, include_z_outcomes, config)


def conditional_output_density(
    input_spec: InputSpec,
    resource_spec: ResourceSpec,
    loss: LossConfig,
    n: int,
    m: int,
    cutoff: int = 6,
):
    """Reduced density matrix of the output mode for one outcome (cross-check path).

    Rebuilds the lossy circuit with every loss beamsplitter in place, eta = 1
    included, conditions on (n, m) and partial-traces the environment modes
    instead of summing over the purification. Returns (probability,
    DensityMatrix or None).
    """
    matched = _matched(input_spec, input_spec.alpha, loss)
    st = tensor(
        [matched.to_fock(cutoff), resource_spec.to_fock(cutoff), fock_basis_state(0, cutoff)]
    )
    st = attenuate(st, 1, loss.eta1)
    st = apply_beamsplitter(st, 1, 2, 0.5)
    st = apply_beamsplitter(st, 0, 1, 0.5)
    st = attenuate(st, 0, loss.eta2)
    st = attenuate(st, 1, loss.eta2)
    prob, cond = project_photon_number(st, [(0, n), (1, m)])
    if cond is None:
        return prob, None
    return prob, partial_trace(cond, 0)


def run_lossy_entswap(
    phi_spec: InputSpec,
    resource_spec: ResourceSpec,
    loss: LossConfig,
    beta: float = 0.5,
    cutoff: int = 5,
) -> ProtocolSummary:
    """Entanglement swapping with loss on the resource arm and the detectors.

    Modes a and d stay lossless. ``phi_spec`` is rebuilt at amplitude
    sqrt(eta1) * beta to match the attenuated resource; the reference Bell
    pair on (a, b) uses that matched phi. The resource is prepared at beta.
    """
    config = {
        "protocol": "lossy-entanglement-swap",
        "phi": phi_spec,
        "resource": resource_spec,
        "loss": loss,
        "beta": beta,
        "cutoff": cutoff,
    }
    matched = _matched(phi_spec, beta, loss)
    return _swap(matched, replace(resource_spec, beta=beta), loss, cutoff, config)


def loss_cell_fidelity(protocol, input_spec, resource_spec, amplitude, loss, cutoff):
    """Average fidelity of one loss grid cell, or None for a degenerate cell.

    ``amplitude`` is the nominal qubit amplitude alpha for 'teleport' or the
    Bell amplitude beta for 'entswap'.
    """
    if protocol == "teleport":
        run = run_lossy_teleportation(
            input_spec.at_alpha(amplitude), resource_spec, loss, cutoff
        )
    elif protocol == "entswap":
        run = run_lossy_entswap(input_spec, resource_spec, loss, beta=amplitude, cutoff=cutoff)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return run.average_fidelity


def _cell_fidelities(protocol, input_spec, resource_spec, amplitude, cells, cutoff):
    if cutoff is None:
        cutoff = LOSS_CUTOFFS.get(protocol)
    fidelity_of = partial(
        loss_cell_fidelity, protocol, input_spec, resource_spec, amplitude, cutoff=cutoff
    )
    return [fidelity_of(LossConfig(eta1, eta2)) for eta1, eta2 in cells]


def loss_contour_sweep(
    protocol: str,
    input_spec: InputSpec,
    resource_spec: ResourceSpec,
    amplitude: float,
    eta1_grid=None,
    eta2_grid=None,
    cutoff: int = None,
):
    """Average fidelity over an (eta1, eta2) grid.

    ``amplitude`` is the nominal qubit amplitude alpha for teleportation or
    the Bell amplitude beta for entanglement swapping. Grids default to
    0.05 steps over [0, 1]; cutoff defaults to LOSS_CUTOFFS[protocol].
    Returns rows of (eta1, eta2, fidelity); fidelity is None for degenerate
    cells.
    """
    e1s = _ETA_GRID if eta1_grid is None else eta1_grid
    e2s = _ETA_GRID if eta2_grid is None else eta2_grid
    cells = [(float(e1), float(e2)) for e1 in e1s for e2 in e2s]
    fids = _cell_fidelities(protocol, input_spec, resource_spec, amplitude, cells, cutoff)
    return [(e1, e2, fid) for (e1, e2), fid in zip(cells, fids)]


def loss_diagonal_sweep(
    protocol: str,
    input_spec: InputSpec,
    resource_spec: ResourceSpec,
    amplitude: float,
    eta_grid=None,
    cutoff: int = None,
):
    """The eta1 = eta2 slice of the loss contour: rows of (eta, fidelity)."""
    etas = [float(eta) for eta in (_ETA_GRID if eta_grid is None else eta_grid)]
    fids = _cell_fidelities(
        protocol, input_spec, resource_spec, amplitude, [(eta, eta) for eta in etas], cutoff
    )
    return list(zip(etas, fids))
