"""The vectorized heralding engine against the per-outcome loop it replaced.

The reference rebuilds each circuit with every loss beamsplitter in place,
eta = 1 included, conditions on one outcome (n, m) at a time with
project_photon_number, applies the correction to each environment branch of
the conditional state and sums the branch fidelities.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_circuit import mixed

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
    INPUT_FAMILIES,
    RESOURCE_KINDS,
    InputSpec,
    ResourceSpec,
    _bells,
    _runs,
    apply_correction,
    classify_outcome,
    run_entanglement_swap,
    run_teleportation,
    state_kinds,
    success_probability_sweep,
)

TOL = 1e-12
ETAS = (1.0, 0.7, 0.3)
# Dark detectors (eta2 = 0, or nearly so) see only the rounding noise of the
# loss beamsplitter, which detection applied to the tables must reproduce.
DARK = [LossConfig(0.7, 0.0), LossConfig(1.0, 0.0), LossConfig(0.3, 0.05)]
LOSSES = [None] + [LossConfig(e1, e2) for e1, e2 in itertools.product(ETAS, ETAS)] + DARK
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


def _check_teleport(spec, resource, loss, include_z):
    """The engine's run of one teleporter against the outcome loop, the input matched to eta1."""
    if loss is None:
        summary = run_teleportation(spec, resource, TELEPORT_CUTOFF, include_z)
        loss = LossConfig()
    else:
        summary = run_lossy_teleportation(spec, resource, loss, TELEPORT_CUTOFF, include_z)
    matched = spec.at_alpha(math.sqrt(loss.eta1) * spec.alpha)
    _assert_matches(
        summary, *_reference_teleport(matched, resource, loss, TELEPORT_CUTOFF, include_z)
    )


@pytest.mark.parametrize("loss", LOSSES, ids=_loss_id)
@pytest.mark.parametrize("input_kind, resource_kind, include_z", TELEPORT_CASES)
def test_teleport_matches_outcome_loop(input_kind, resource_kind, include_z, loss):
    alpha = 0.4
    resource = ResourceSpec(resource_kind, math.sqrt(2.0) * alpha)
    _check_teleport(InputSpec(input_kind, alpha), resource, loss, include_z)


# Inputs with mu = nu whose matched amplitude is 0: the Z flip of the vacuum
# is |1>, the odd cat's alpha -> 0 limit, and Z-type outcomes are compared
# with it. Lossless at alpha = 0 the resource is at beta = 1, so that Z-type
# outcomes have weight; at eta1 = 0 the input is matched to its lost source.
EVEN_AT_ZERO = [
    (InputSpec("even-cat", 0.0), 1.0, None),
    (InputSpec("superposition", 0.0, 0.6, 0.6), 1.0, None),
    (InputSpec("even-cat", 0.5), 0.5 * math.sqrt(2.0), LossConfig(0.0, 0.7)),
]


@pytest.mark.parametrize("include_z", [False, True])
@pytest.mark.parametrize(
    "resource_kind", ["squeezed-single-photon", "squeezed-vacuum", "ideal-odd-cat"]
)
@pytest.mark.parametrize(
    "spec, beta, loss", EVEN_AT_ZERO, ids=["even-cat", "mu=nu", "even-cat-eta1-0"]
)
def test_even_input_at_zero_amplitude_matches_outcome_loop(
    spec, beta, loss, resource_kind, include_z
):
    _check_teleport(spec, ResourceSpec(resource_kind, beta), loss, include_z)


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
        summary = run_lossy_entswap(phi, resource, loss, SWAP_CUTOFF)
    matched = phi.at_alpha(math.sqrt(loss.eta1) * beta)
    _assert_matches(summary, *_reference_swap(matched, resource, loss, SWAP_CUTOFF))


def test_outcome_records_are_n_major_and_indexed():
    spec = InputSpec("odd-cat", 0.4)
    resource = ResourceSpec("squeezed-single-photon", 0.4 * math.sqrt(2.0))
    summary = run_teleportation(spec, resource, TELEPORT_CUTOFF)
    d = TELEPORT_CUTOFF + 1
    counts = [(n, m) for n in range(d) for m in range(d)]
    assert [(rec.n, rec.m) for rec in summary.outcomes] == counts
    assert [summary.outcome(n, m) for n, m in counts] == list(summary.outcomes)
    for n, m in [(-1, 0), (0, -1), (d, 0), (0, d), (d, d), (0.5, 1)]:
        with pytest.raises(KeyError):
            summary.outcome(n, m)


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)
etas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@PROPERTY
@given(
    protocol=st.sampled_from(["teleport", "entswap"]),
    input_kind=st.sampled_from(state_kinds("input")),
    resource_kind=st.sampled_from(RESOURCE_KINDS),
    amplitude=st.floats(0.0, 0.75),
    cutoff=st.integers(4, 6),
    loss=st.builds(LossConfig, etas, etas),
    include_z=st.booleans(),
)
# rounding leaves the rejected count (1, 1) of this run at -1.2e-34
@example(
    protocol="teleport", input_kind="coherent", resource_kind="ideal-odd-cat",
    amplitude=6.103515625e-05, cutoff=4, loss=LossConfig(), include_z=False,
)
def test_reported_values_lie_in_unit_interval(
    protocol, input_kind, resource_kind, amplitude, cutoff, loss, include_z
):
    """Every success probability and every fidelity, per outcome and averaged, is in [0, 1]."""
    spec = InputSpec(input_kind, amplitude)
    if protocol == "teleport":
        resource = ResourceSpec(resource_kind, math.sqrt(2.0) * amplitude)
        if loss == LossConfig():
            summary = run_teleportation(spec, resource, cutoff, include_z)
        else:
            summary = run_lossy_teleportation(spec, resource, loss, cutoff, include_z)
    else:
        # one cutoff lower, as lossy swapping states have d^5 amplitudes
        resource = ResourceSpec(resource_kind, amplitude)
        if loss == LossConfig():
            summary = run_entanglement_swap(spec, resource, cutoff - 1)
        else:
            summary = run_lossy_entswap(spec, resource, loss, cutoff - 1)
    assert 0.0 <= summary.success_probability <= 1.0
    assert summary.degenerate == (summary.average_fidelity is None)
    if summary.average_fidelity is not None:
        assert 0.0 <= summary.average_fidelity <= 1.0
    for rec in summary.outcomes:
        assert 0.0 <= rec.probability <= 1.0
        assert rec.fidelity is None or 0.0 <= rec.fidelity <= 1.0


@PROPERTY
@given(
    beta=st.one_of(st.sampled_from([0.0, 1e-300]), st.floats(0.0, 1.2)),
    family=st.sampled_from(list(INPUT_FAMILIES)),
    resource_kind=st.sampled_from(RESOURCE_KINDS),
    cutoff=st.integers(5, 12),
)
@example(beta=0.0, family="odd-cat-superposition", resource_kind="ideal-odd-cat", cutoff=5)
@example(beta=1e-300, family="odd-cat-superposition", resource_kind="squeezed-vacuum", cutoff=5)
def test_success_sweep_matches_run_teleportation(beta, family, resource_kind, cutoff):
    [(_, _, _, p_success)] = success_probability_sweep(
        [beta], {family: INPUT_FAMILIES[family]}, (resource_kind,), cutoff
    )
    spec = InputSpec("superposition", beta / math.sqrt(2.0), *INPUT_FAMILIES[family])
    run = run_teleportation(spec, ResourceSpec(resource_kind, beta), cutoff)
    assert abs(p_success - run.success_probability) <= TOL


def _row(protocol, input_kind, resource_kind, amplitude, eta1, eta2s, cutoff, include_z):
    """(summaries of one eta1 row, the single run and reference of a cell, the counters' amplitudes).

    The amplitudes are the dense circuit's (``dense_circuit.mixed``), which the engine never builds.
    """
    spec = InputSpec(input_kind, amplitude).at_alpha(math.sqrt(eta1) * amplitude)
    if protocol == "teleport":
        resource = ResourceSpec(resource_kind, math.sqrt(2.0) * amplitude)
        [[row]] = _runs(
            "teleport", spec, [amplitude], resource.kind, [resource.beta], cutoff, [eta1],
            (tuple(eta2s),), include_z,
        )

        def single(eta2):
            loss = LossConfig(eta1, eta2)
            return run_lossy_teleportation(
                spec.at_alpha(amplitude), resource, loss, cutoff, include_z
            ), _reference_teleport(spec, resource, loss, cutoff, include_z)

        left = spec.to_fock(cutoff).amps
    else:
        resource = ResourceSpec(resource_kind, amplitude)
        [[row]] = _runs(
            "entswap", spec, [amplitude], resource.kind, [resource.beta], cutoff, [eta1],
            (tuple(eta2s),),
        )

        def single(eta2):
            loss = LossConfig(eta1, eta2)
            return run_lossy_entswap(
                spec.at_alpha(amplitude), resource, loss, cutoff
            ), _reference_swap(spec, resource, loss, cutoff)

        left = _bells(spec.to_fock(cutoff).amps)
    return row, single, mixed(left, resource.to_fock(cutoff), eta1)


eta2_rows = st.lists(st.floats(0.0, 1.0), max_size=3).flatmap(
    lambda etas: st.permutations(etas + [0.0, 1.0])
)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    protocol=st.sampled_from(["teleport", "entswap"]),
    input_kind=st.sampled_from(state_kinds("input")),
    resource_kind=st.sampled_from(RESOURCE_KINDS),
    amplitude=st.floats(0.1, 0.6),
    eta1=etas,
    eta2s=eta2_rows,
    checked=st.integers(0, 4),
    include_z=st.booleans(),
)
def test_row_matches_its_cells(
    protocol, input_kind, resource_kind, amplitude, eta1, eta2s, checked, include_z
):
    """Each summary of an eta1 row is the single run of its cell; at eta2 = 1 bit for bit.

    One cell of the row is also checked against the outcome loop, which
    models detector loss as modes and so shares no response matrix.
    """
    cutoff = TELEPORT_CUTOFF if protocol == "teleport" else SWAP_CUTOFF
    row, single, _ = _row(
        protocol, input_kind, resource_kind, amplitude, eta1, eta2s, cutoff, include_z
    )
    assert len(row) == len(eta2s)
    for k, (summary, eta2) in enumerate(zip(row, eta2s)):
        cell, reference = single(eta2)
        if k == checked % len(eta2s):
            _assert_matches(cell, *reference)
        if eta2 == 1.0:
            assert (summary.success_probability, summary.average_fidelity) == (
                cell.success_probability, cell.average_fidelity
            )
            assert summary.outcomes == cell.outcomes
            continue
        assert abs(summary.success_probability - cell.success_probability) <= TOL
        assert summary.degenerate == cell.degenerate
        if not cell.degenerate:
            assert abs(summary.average_fidelity - cell.average_fidelity) <= TOL
        for got, want in zip(summary.outcomes, cell.outcomes, strict=True):
            assert (got.n, got.m, got.correction, got.accepted) == (
                want.n, want.m, want.correction, want.accepted
            )
            assert abs(got.probability - want.probability) <= TOL
            assert (got.fidelity is None) == (want.fidelity is None)
            if want.fidelity is not None:
                assert abs(got.fidelity - want.fidelity) <= TOL


@pytest.mark.parametrize("eta1", [1.0, 0.6])
@pytest.mark.parametrize(
    "protocol, input_kind, resource_kind",
    [
        ("teleport", "odd-cat", "squeezed-single-photon"),
        ("teleport", "squeezed-vacuum", "squeezed-vacuum"),
        ("entswap", "squeezed-single-photon", "squeezed-single-photon"),
        ("entswap", "coherent", "ideal-odd-cat"),
    ],
)
def test_row_outcomes_sum_to_prepared_norm(protocol, input_kind, resource_kind, eta1):
    """Every eta2 of a row keeps the prepared norm^2: each response is column-stochastic."""
    eta2s = [0.0, 0.3, 1.0]
    cutoff = TELEPORT_CUTOFF if protocol == "teleport" else SWAP_CUTOFF
    row, _, amps = _row(protocol, input_kind, resource_kind, 0.5, eta1, eta2s, cutoff, True)
    for summary in row:
        total = sum(rec.probability for rec in summary.outcomes)
        assert abs(total - np.linalg.norm(amps) ** 2) <= TOL
