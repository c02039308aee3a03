"""The outcome tables from the two factors at the beamsplitter, against the dense circuit.

``protocols._tables`` heralds from the left factor and the resource's Bell
pair alone. The oracle (``dense_circuit``) builds every amplitude at the
counters through ``apply_beamsplitter`` and sums over them. Lossless counters
fill only the accepted counts; their summaries are checked against the
masked reduction (``masked_herald``) of the tables of every count and of the
oracle's.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cskit
import dense_circuit
import masked_herald
from cskit import cli, fock, loss, protocols
from cskit.protocols import (
    INPUT_FAMILIES,
    RESOURCE_KINDS,
    InputSpec,
    ResourceSpec,
    _bells,
    _edge_counts,
    _heralded,
    _rejected_counts,
    _responses,
    _tables,
    _z_targets,
    entanglement_swap_sweep,
    resource_parity,
    run_entanglement_swap,
    run_teleportation,
    state_kinds,
    success_probability_sweep,
    teleportation_sweep,
)

TOL = 1e-13


def _factors(protocol, input_kind, resource_kind, amplitude, cutoff, eta1):
    """(left, pair, resource, target, z_target) of one circuit; None where a state can't be built.

    The swapper's Z target is the Bell pair of the Z-flipped phi: the engine
    never compares against it, but it gives the tables every label.
    """
    spec = InputSpec(input_kind, amplitude)
    beta = math.sqrt(2.0) * amplitude if protocol == "teleport" else amplitude
    try:
        resource = ResourceSpec(resource_kind, beta).to_fock(cutoff)
        state = spec.to_fock(cutoff)
        z_targets = _z_targets(spec, [amplitude], cutoff)
        z_target = None if z_targets is None else z_targets[0]
    except ValueError:  # too large for the cutoff, or a squeezed vacuum at cutoff 1
        return None
    pair = _bells(resource.amps, eta1)
    if protocol == "teleport":
        return state.amps, pair, resource, state.amps, z_target
    if z_target is not None:
        z_target = _bells(z_target)
    return _bells(state.amps), pair, resource, _bells(state.amps), z_target


def _one_circuit(*factors):
    """The factors of one circuit as a batch of one; None stays None."""
    return [None if a is None else a[None] for a in factors]


def _every_count(left, pair, target=None, z_target=None):
    """(tables, labels) of one circuit over every count: the accepted and the rejected lists."""
    d = pair.shape[0]
    counts = (_edge_counts(d), _rejected_counts(d))
    tables, labels = _tables(counts, *_one_circuit(left, pair, target, z_target))
    return tables[0], labels


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    protocol=st.sampled_from(["teleport", "entswap"]),
    input_kind=st.sampled_from(state_kinds("input")),
    resource_kind=st.sampled_from(RESOURCE_KINDS),
    amplitude=st.floats(0.0, 0.4),
    cutoff=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 15, 20]),
    eta1=st.sampled_from([0.0, 0.3, 1.0]),
    targets=st.sampled_from(["none", "no-z", "every label"]),
)
def test_tables_match_dense_circuit(
    protocol, input_kind, resource_kind, amplitude, cutoff, eta1, targets
):
    factors = _factors(protocol, input_kind, resource_kind, amplitude, cutoff, eta1)
    assume(factors is not None)
    left, pair, resource, target, z_target = factors
    if targets == "none":
        target = z_target = None
    elif targets == "no-z":
        z_target = None
    got, labels = _every_count(left, pair, target, z_target)
    want, want_labels = dense_circuit.tables(
        dense_circuit.mixed(left, resource, eta1), target, z_target
    )
    assert labels == want_labels
    assert got.shape == want.shape == (1 + len(labels), cutoff + 1, cutoff + 1)
    assert np.abs(got - want).max() <= TOL


def test_complex_factors_match_dense_circuit():
    """Complex amplitudes keep the complex path: phases of the input reach the tables."""
    cutoff = 6
    qubit = InputSpec("superposition", 0.4, 1.0, 0.6j).to_fock(cutoff)
    resource = ResourceSpec("ideal-odd-cat", 0.5).to_fock(cutoff)
    for left in (qubit.amps, _bells(qubit.amps)):
        for eta1 in (1.0, 0.3):
            got, _ = _every_count(left, _bells(resource.amps, eta1), left, left)
            want, _ = dense_circuit.tables(dense_circuit.mixed(left, resource, eta1), left, left)
            assert np.abs(got - want).max() <= TOL


def _assert_records_match(got, want):
    assert (got.n, got.m, got.correction, got.accepted) == (
        want.n, want.m, want.correction, want.accepted
    )
    assert abs(got.probability - want.probability) <= TOL
    assert (got.fidelity is None) == (want.fidelity is None)
    if want.fidelity is not None:
        assert abs(got.fidelity - want.fidelity) <= TOL


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    protocol=st.sampled_from(["teleport", "entswap"]),
    input_kind=st.sampled_from(state_kinds("input")),
    resource_kind=st.sampled_from(RESOURCE_KINDS),
    amplitude=st.floats(0.0, 0.4),
    cutoff=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 15, 20]),
    eta1=st.sampled_from([0.0, 0.3, 1.0]),
    targets=st.sampled_from(["none", "no-z", "every label"]),
    include_z=st.booleans(),
)
def test_accepted_counts_match_every_count(
    protocol, input_kind, resource_kind, amplitude, cutoff, eta1, targets, include_z
):
    """Lossless counters fill the accepted counts alone, and give what every count gives.

    The summary of the accepted counts is checked against the masked
    reduction of every count and of the dense circuit: its success probability, its
    average fidelity, every accepted outcome, and the records and weight of
    the rejected counts, which it builds when they are read.
    """
    factors = _factors(protocol, input_kind, resource_kind, amplitude, cutoff, eta1)
    assume(factors is not None)
    left, pair, resource, target, z_target = factors
    if targets == "none":
        target = z_target = None
    elif targets == "no-z":
        z_target = None
    parity = resource_parity(resource_kind)
    lossless = _responses(((1.0,),), cutoff, parity)
    [[edge]] = _heralded(*_one_circuit(left, pair, target, z_target), lossless, parity, include_z)
    assert np.all(edge._probabilities[edge._labels == "none"] == 0.0)
    tables, labels = _every_count(left, pair, target, z_target)
    dense, _ = dense_circuit.tables(dense_circuit.mixed(left, resource, eta1), target, z_target)
    for want_tables in (tables, dense):
        [[want]] = masked_herald.herald(want_tables[None], labels, None, parity, include_z)
        assert abs(edge.success_probability - want.success_probability) <= TOL
        assert edge.degenerate == want.degenerate
        if not want.degenerate:
            assert abs(edge.average_fidelity - want.average_fidelity) <= TOL
        for k in range(1, cutoff + 1):
            for n, m in ((0, k), (k, 0)):
                _assert_records_match(edge.outcome(n, m), want.outcome(n, m))
        for got, want_record in zip(edge.outcomes, want.outcomes, strict=True):
            _assert_records_match(got, want_record)
        assert abs(edge.both_nonzero_weight() - want.both_nonzero_weight()) <= TOL


def test_sweeps_match_their_single_runs_bit_for_bit():
    """A beta's summary does not depend on the other betas of the batch."""
    grid = [0.0, 0.35, 0.7, 1.05]
    for beta, summary in zip(grid, teleportation_sweep(grid, "even-cat", "ideal-odd-cat")):
        single = run_teleportation(
            InputSpec("even-cat", beta / math.sqrt(2.0)), ResourceSpec("ideal-odd-cat", beta)
        )
        assert summary == single
        assert summary.outcomes == single.outcomes
    for beta, summary in zip(grid, entanglement_swap_sweep(grid, cutoff=10)):
        spec = InputSpec("squeezed-single-photon", beta)
        single = run_entanglement_swap(spec, ResourceSpec("squeezed-single-photon", beta), 10)
        assert summary == single
        assert [summary.outcome(0, m) for m in range(11)] == [single.outcome(0, m) for m in range(11)]
    rows = success_probability_sweep(grid, resource_kinds=RESOURCE_KINDS)
    assert rows == [
        row for beta in grid for row in success_probability_sweep([beta], resource_kinds=RESOURCE_KINDS)
    ]
    families = list(INPUT_FAMILIES.items())
    for beta, name, kind, p_success in rows:
        spec = InputSpec("superposition", beta / math.sqrt(2.0), *dict(families)[name])
        assert p_success == run_teleportation(spec, ResourceSpec(kind, beta)).success_probability


def _refuse_rejected_counts(d):
    raise AssertionError("lossless counters must fill only the accepted counts")


def test_lossless_sweeps_fill_only_the_accepted_counts(monkeypatch, capsys):
    """The lossless sweeps run while ``_rejected_counts``, the list of rejected counts, raises.

    A summary builds its rejected counts only when one is read.
    """
    monkeypatch.setattr(protocols, "_rejected_counts", _refuse_rejected_counts)
    commands = [
        (["success-prob"], 240), (["teleport"], 24), (["teleport", "--per-outcome"], 120),
        (["entswap"], 24),
    ]
    for argv, rows in commands:
        assert cli.main(argv + ["--cutoff", "12"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len([line for line in lines if not line.startswith("#")]) == 1 + rows
    [summary] = teleportation_sweep([0.5])
    assert summary.outcome(0, 3).probability > 0.0
    with pytest.raises(AssertionError, match="only the accepted counts"):
        summary.outcome(1, 1)
    with pytest.raises(AssertionError, match="only the accepted counts"):
        summary.outcomes


def _refuse(*args, **kwargs):
    raise AssertionError("the engine must not run apply_beamsplitter")


@pytest.fixture
def no_beamsplitter(monkeypatch):
    """apply_beamsplitter raises, at every module attribute that holds it."""
    for module in (cskit, fock, protocols, loss):
        monkeypatch.setattr(module, "apply_beamsplitter", _refuse)


def test_engine_runs_without_apply_beamsplitter(no_beamsplitter):
    spec = InputSpec("squeezed-single-photon", 0.5)
    resource = ResourceSpec("squeezed-single-photon", 0.5 * math.sqrt(2.0))
    bell_resource = ResourceSpec("squeezed-single-photon", 0.5)
    assert run_teleportation(spec, resource, 8).average_fidelity > 0.5
    assert run_entanglement_swap(spec, bell_resource, 6).average_fidelity > 0.5
    assert len(success_probability_sweep([0.5, 1.0], cutoff=8)) == 16
    cells = loss.loss_contour_sweep("teleport", spec, resource, [0.5, 1.0], [0.5, 1.0])
    assert len(cells) == 4
    assert len(loss.loss_contour_sweep("entswap", spec, bell_resource, [0.5], [1.0])) == 1
