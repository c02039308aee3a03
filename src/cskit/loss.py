"""Loss modeling: imperfect sources and inefficient detectors.

eta1 models imperfect resource creation, applied just after the source, and
eta2 models detector inefficiency, applied just before each detector. Both
are the pure-loss channel of a transmitivity-eta beamsplitter whose second
port starts in vacuum. Source loss appends an environment mode, kept as a
purification whose count indexes the Kraus branches: in the engine it is
the vacuum-port gather of ``protocols._bells`` on the resource's plain
array, and in ``conditional_output_density`` it is ``attenuate`` on a
``MultiModeState``. Detector loss is no mode: a lossless outcome table T becomes
M T M^T through the binomial response M of an inefficient counter
(``fock.detector_response``), which is exact. A sum of M T M^T over a set S
of counts is <T, W_S> with W_S = M^T 1_S M, so a run's success probability
and average fidelity are sums of T against these count weights, and no
M T M^T is built unless a summary's records are read. The joint lossy state
is never built, so a lossy run costs O(d^4) time and O(d^3) memory, as in
``cskit.protocols``, whose engine this is: a lossless run is its eta1 = eta2
= 1 case, and the lossy runners at LossConfig() return the lossless summary.

Every amplitude comes from the specs: the input's, or phi's, alpha and the
resource's beta. The engine matches each input to the lossy resource: a
nominal alpha becomes sqrt(eta1) * alpha. Both runners and both sweeps are
one ``protocols._runs`` call, as the lossless runners are, and every eta1 of
a sweep is one circuit of the engine's batches (``protocols._batches``).
Detector loss is a plain row of eta2 values: a contour's circuits share one
row, whose stack of responses and count weights is built once per grid, and
a diagonal's circuit i sees eta_i alone. The two sweeps read the engine's
arrays of average fidelities (``_averages``, which the CLI reads too) and
build no summary. ``conditional_output_density`` keeps every loss
as a mode and reduces by a partial trace, as an independent cross-check.
Every entry point that takes a cutoff defaults it from LOSS_CUTOFFS.
"""

from __future__ import annotations

import itertools
import math

from .fock import (
    apply_beamsplitter,
    attenuate,
    fock_basis_state,
    partial_trace,
    project_photon_number,
    tensor,
)
from .protocols import (
    InputSpec,
    LossConfig,
    ProtocolSummary,
    ResourceSpec,
    _runs,
)

__all__ = [
    "LossConfig",
    "attenuate",
    "LOSS_CUTOFFS",
    "run_lossy_teleportation",
    "run_lossy_entswap",
    "conditional_output_density",
    "loss_contour_sweep",
    "loss_diagonal_sweep",
]

# Default cutoff per protocol. The cross-check conditional_output_density
# keeps all three losses as modes, d^6 amplitudes with d = cutoff + 1.
LOSS_CUTOFFS = {"teleport": 6, "entswap": 5}

# The default eta grid: 0, 0.05, ..., 1.
_ETA_GRID = [i / 20 for i in range(21)]


def _averages(protocol, input_spec, resource_spec, cutoff, eta1s, eta2s):
    """The average fidelity of each eta1 of ``eta1s`` at each eta2 of its row of ``eta2s``.

    An array over (eta1, eta2), NaN for a degenerate cell, with no summary
    built. ``eta2s`` is one row that every eta1 shares or one row per eta1,
    as ``protocols._runs`` reads it, and every eta is one already checked.
    """
    return _runs(
        protocol, input_spec, [input_spec.alpha], resource_spec.kind, [resource_spec.beta],
        cutoff, eta1s, eta2s, summaries=False,
    )[1]


def _fidelity(average: float):
    """An average fidelity of ``protocols._herald``'s arrays, None where it is NaN (degenerate)."""
    return None if math.isnan(average) else average


def _loss_cutoff(protocol, cutoff):
    """``cutoff``, or LOSS_CUTOFFS[protocol] when it is None; an unknown protocol raises."""
    if protocol not in LOSS_CUTOFFS:
        raise ValueError(f"unknown protocol {protocol!r}")
    return LOSS_CUTOFFS[protocol] if cutoff is None else cutoff


def run_lossy_teleportation(
    input_spec: InputSpec,
    resource_spec: ResourceSpec,
    loss: LossConfig,
    cutoff: int = None,
    include_z_outcomes: bool = False,
) -> ProtocolSummary:
    """Teleportation with source loss eta1 and detector loss eta2.

    ``input_spec.alpha`` is the nominal qubit amplitude; the input is built
    at sqrt(eta1) * alpha to match the attenuated resource, and per-outcome
    fidelities are taken against that matched input. The cutoff defaults to
    LOSS_CUTOFFS['teleport']. At eta1 = eta2 = 1 this is the lossless run.
    """
    cutoff = _loss_cutoff("teleport", cutoff)
    [[summary]] = _runs(
        "teleport", input_spec, [input_spec.alpha], resource_spec.kind, [resource_spec.beta],
        cutoff, [loss.eta1], ((loss.eta2,),), include_z_outcomes,
    )
    return summary


def conditional_output_density(
    input_spec: InputSpec,
    resource_spec: ResourceSpec,
    loss: LossConfig,
    n: int,
    m: int,
    cutoff: int = None,
):
    """Reduced density matrix of the output mode for one outcome (cross-check path).

    Rebuilds the lossy circuit with every loss beamsplitter in place, eta = 1
    included, conditions on (n, m) and partial-traces the environment modes
    instead of summing over the purification. The input is matched here, not
    by the engine's row function, so the check stays independent. The cutoff
    defaults to LOSS_CUTOFFS['teleport']. Returns (probability,
    DensityMatrix or None).
    """
    cutoff = _loss_cutoff("teleport", cutoff)
    matched = input_spec.at_alpha(math.sqrt(loss.eta1) * input_spec.alpha)
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
    cutoff: int = None,
) -> ProtocolSummary:
    """Entanglement swapping with loss on the resource arm and the detectors.

    Modes a and d stay lossless. phi is built at sqrt(eta1) * ``phi_spec.alpha``
    to match the attenuated resource; the reference Bell pair on (a, b) uses
    that matched phi. The resource is prepared at ``resource_spec.beta``. The
    cutoff defaults to LOSS_CUTOFFS['entswap']. At eta1 = eta2 = 1 this is
    the lossless run.
    """
    cutoff = _loss_cutoff("entswap", cutoff)
    [[summary]] = _runs(
        "entswap", phi_spec, [phi_spec.alpha], resource_spec.kind, [resource_spec.beta], cutoff,
        [loss.eta1], ((loss.eta2,),),
    )
    return summary


def loss_contour_sweep(
    protocol: str,
    input_spec: InputSpec,
    resource_spec: ResourceSpec,
    eta1_grid=None,
    eta2_grid=None,
    cutoff: int = None,
):
    """Average fidelity over an (eta1, eta2) grid.

    The amplitudes are the specs': the qubit amplitude alpha, or phi's, of
    ``input_spec`` and the resource's beta. Grids default to 0.05 steps over
    [0, 1]; cutoff defaults to LOSS_CUTOFFS[protocol]. Returns rows of (eta1,
    eta2, fidelity); fidelity is None for degenerate cells. Every eta1 is one
    circuit of the engine's batches, and detector loss maps one stack of eta2
    responses, built once for the sweep, onto every circuit. Every eta is
    checked before any circuit runs.
    """
    cutoff = _loss_cutoff(protocol, cutoff)
    eta1_grid = _ETA_GRID if eta1_grid is None else eta1_grid
    eta2_grid = _ETA_GRID if eta2_grid is None else eta2_grid
    eta1s = [LossConfig(eta1=float(eta)).eta1 for eta in eta1_grid]
    eta2s = tuple(LossConfig(eta2=float(eta)).eta2 for eta in eta2_grid)
    if not eta2s:  # no cell, and no counters to build
        return []
    average = _averages(protocol, input_spec, resource_spec, cutoff, eta1s, (eta2s,))
    cells = itertools.product(eta1s, eta2s)
    return [(eta1, eta2, _fidelity(f)) for (eta1, eta2), f in zip(cells, average.ravel().tolist())]


def loss_diagonal_sweep(
    protocol: str,
    input_spec: InputSpec,
    resource_spec: ResourceSpec,
    eta_grid=None,
    cutoff: int = None,
):
    """The eta1 = eta2 slice of the loss contour: rows of (eta, fidelity).

    Every eta is one circuit of the engine's batches, behind counters at that eta alone.
    """
    cutoff = _loss_cutoff(protocol, cutoff)
    eta_grid = _ETA_GRID if eta_grid is None else eta_grid
    etas = [LossConfig(float(eta), float(eta)).eta1 for eta in eta_grid]
    rows = tuple((eta,) for eta in etas)
    average = _averages(protocol, input_spec, resource_spec, cutoff, etas, rows)
    return [(eta, _fidelity(f)) for eta, f in zip(etas, average.ravel().tolist())]
