"""The vectorized heralding engine against the per-outcome loop it replaced.

The reference rebuilds each circuit with every loss beamsplitter in place,
eta = 1 included, conditions on one outcome (n, m) at a time with
project_photon_number, applies the correction to each environment branch of
the conditional state and sums the branch fidelities.
"""

import itertools
import math

import pytest

from cskit.fock import (
    FockVector,
    MultiModeState,
    apply_beamsplitter,
    apply_phase_shift,
    attenuate,
    fidelity,
    fock_basis_state,
    project_photon_number,
    tensor,
)
from cskit.loss import LossConfig, run_lossy_entswap, run_lossy_teleportation
from cskit.protocols import (
    InputSpec,
    ResourceSpec,
    apply_correction,
    classify_outcome,
    run_entanglement_swap,
    run_teleportation,
)

TOL = 1e-12
ETAS = (1.0, 0.7, 0.3)
LOSSES = [None] + [LossConfig(e1, e2) for e1, e2 in itertools.product(ETAS, ETAS)]
TELEPORT_CUTOFF = 5
SWAP_CUTOFF = 4


def _loss_id(loss):
    return "lossless" if loss is None else f"eta{loss.eta1}-{loss.eta2}"


def _branches(cond: MultiModeState, outputs: int):
    """Unnormalized environment branches of a conditional state, over its output modes."""
    envs = [range(c + 1) for c in cond.mode_cutoffs[outputs:]]
    for env in itertools.product(*envs):
        yield MultiModeState(cond.mode_cutoffs[:outputs], cond.amps[(Ellipsis, *env)])


def _outcome_loop(state, detectors, parity, fidelity_of):
    """(n, m, probability, correction, accepted, fidelity) for every outcome."""
    d = state.mode_cutoffs[detectors[0]] + 1
    rows = []
    for n in range(d):
        for m in range(d):
            prob, cond = project_photon_number(state, [(detectors[0], n), (detectors[1], m)])
            accepted, label = classify_outcome(n, m, parity)
            fid = fidelity_of(cond, n, m, label) if accepted and prob > 0.0 else None
            rows.append((n, m, prob, label, accepted, fid))
    return rows


def _reference_teleport(input_spec, resource_spec, loss, cutoff, include_z):
    target = input_spec.to_fock(cutoff)
    qubit = input_spec.qubit()
    z_target = None if qubit is None else qubit.z_flipped().to_fock(cutoff)
    parity = resource_spec.parity
    st = tensor([target, resource_spec.to_fock(cutoff), fock_basis_state(0, cutoff)])
    st = attenuate(st, 1, loss.eta1)
    st = apply_beamsplitter(st, 1, 2, 0.5)
    st = apply_beamsplitter(st, 0, 1, 0.5)
    st = attenuate(st, 0, loss.eta2)
    st = attenuate(st, 1, loss.eta2)

    def fidelity_of(cond, n, m, label):
        want = target if "Z" not in label else z_target
        if want is None:
            return None
        total = 0.0
        for branch in _branches(cond, 1):
            out, _ = apply_correction(FockVector(cutoff, branch.amps), n, m, parity)
            total += fidelity(want, out)
        return total

    rows = _outcome_loop(st, (0, 1), parity, fidelity_of)
    averaged = [
        (p, f) for _, _, p, label, _, f in rows
        if f is not None and ("Z" not in label or include_z)
    ]
    return st, rows, averaged


def _reference_swap(phi_spec, resource_spec, loss, cutoff):
    phi = phi_spec.to_fock(cutoff)
    vac = fock_basis_state(0, cutoff)
    reference = apply_beamsplitter(tensor([phi, vac]), 0, 1, 0.5)
    st = tensor([phi, vac, resource_spec.to_fock(cutoff), vac])
    st = attenuate(st, 2, loss.eta1)
    st = apply_beamsplitter(st, 0, 1, 0.5)
    st = apply_beamsplitter(st, 2, 3, 0.5)
    st = apply_beamsplitter(st, 1, 2, 0.5)
    st = attenuate(st, 1, loss.eta2)
    st = attenuate(st, 2, loss.eta2)

    def fidelity_of(cond, n, m, label):
        if "Z" in label:
            return None
        total = 0.0
        for branch in _branches(cond, 2):
            if "X" in label:
                branch = apply_phase_shift(branch, 1, math.pi)
            total += fidelity(reference, branch)
        return total

    rows = _outcome_loop(st, (1, 2), resource_spec.parity, fidelity_of)
    averaged = [(p, f) for _, _, p, _, _, f in rows if f is not None]
    return st, rows, averaged


def _assert_matches(summary, state, rows, averaged):
    assert len(summary.outcomes) == len(rows)
    for rec, (n, m, prob, label, accepted, fid) in zip(summary.outcomes, rows):
        assert (rec.n, rec.m, rec.correction, rec.accepted) == (n, m, label, accepted)
        assert abs(rec.probability - prob) <= TOL
        if fid is None:
            assert rec.fidelity is None
        else:
            assert abs(rec.fidelity - fid) <= TOL
    total = sum(rec.probability for rec in summary.outcomes)
    assert abs(total - state.norm() ** 2) <= TOL
    accepted = sum(prob for _, _, prob, _, ok, _ in rows if ok)
    assert abs(summary.success_probability - accepted) <= TOL
    weight = sum(p for p, _ in averaged)
    if weight == 0.0:
        assert summary.degenerate
    else:
        want = sum(p * f for p, f in averaged) / weight
        assert abs(summary.average_fidelity - want) <= TOL


TELEPORT_CASES = [
    ("odd-cat", "squeezed-single-photon", True),
    ("squeezed-single-photon", "squeezed-single-photon", False),
    ("even-cat", "squeezed-vacuum", False),
]


@pytest.mark.parametrize("loss", LOSSES, ids=_loss_id)
@pytest.mark.parametrize("input_kind, resource_kind, include_z", TELEPORT_CASES)
def test_teleport_matches_outcome_loop(input_kind, resource_kind, include_z, loss):
    alpha = 0.4
    spec = InputSpec(input_kind, alpha)
    resource = ResourceSpec(resource_kind, math.sqrt(2.0) * alpha)
    if loss is None:
        summary = run_teleportation(spec, resource, TELEPORT_CUTOFF, include_z)
        loss = LossConfig()
    else:
        summary = run_lossy_teleportation(spec, resource, loss, TELEPORT_CUTOFF, include_z)
    matched = spec.at_alpha(math.sqrt(loss.eta1) * alpha)
    _assert_matches(
        summary, *_reference_teleport(matched, resource, loss, TELEPORT_CUTOFF, include_z)
    )


SWAP_CASES = [
    ("squeezed-single-photon", "squeezed-single-photon"),
    ("squeezed-vacuum", "squeezed-vacuum"),
    # A Bell pair of definite parity cannot tell a pi phase on a from one on
    # d; a coherent phi can.
    ("coherent", "ideal-odd-cat"),
]


@pytest.mark.parametrize("loss", LOSSES, ids=_loss_id)
@pytest.mark.parametrize("phi_kind, resource_kind", SWAP_CASES)
def test_entswap_matches_outcome_loop(phi_kind, resource_kind, loss):
    beta = 0.5
    phi, resource = InputSpec(phi_kind, beta), ResourceSpec(resource_kind, beta)
    if loss is None:
        summary = run_entanglement_swap(phi, resource, SWAP_CUTOFF)
        loss = LossConfig()
    else:
        summary = run_lossy_entswap(phi, resource, loss, beta, SWAP_CUTOFF)
    matched = phi.at_alpha(math.sqrt(loss.eta1) * beta)
    _assert_matches(summary, *_reference_swap(matched, resource, loss, SWAP_CUTOFF))
