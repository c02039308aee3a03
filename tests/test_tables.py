"""The outcome tables from the two factors at the beamsplitter, against the dense circuit.

``protocols._tables`` heralds from the left factor and the resource's Bell
pair alone. The oracle (``dense_circuit``) builds every amplitude at the
counters through ``apply_beamsplitter`` and sums over them.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cskit
import dense_circuit
from cskit import fock, loss, protocols
from cskit.protocols import (
    RESOURCE_KINDS,
    InputSpec,
    ResourceSpec,
    _bell,
    _tables,
    _z_target,
    run_entanglement_swap,
    run_teleportation,
    state_kinds,
    success_probability_sweep,
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
        z_target = _z_target(spec, cutoff)
    except ValueError:  # too large for the cutoff, or a squeezed vacuum at cutoff 1
        return None
    pair = _bell(resource, eta1)
    if protocol == "teleport":
        return state.amps, pair, resource, state.amps, z_target
    if z_target is not None:
        z_target = _bell(fock.FockVector(cutoff, z_target))
    return _bell(state), pair, resource, _bell(state), z_target


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
    got, labels = _tables(left, pair, target, z_target)
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
    for left in (qubit.amps, _bell(qubit)):
        for eta1 in (1.0, 0.3):
            got, _ = _tables(left, _bell(resource, eta1), left, left)
            want, _ = dense_circuit.tables(dense_circuit.mixed(left, resource, eta1), left, left)
            assert np.abs(got - want).max() <= TOL


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
    cells = loss.loss_contour_sweep("teleport", spec, resource, 0.5, [0.5, 1.0], [0.5, 1.0])
    assert len(cells) == 4
    assert len(loss.loss_contour_sweep("entswap", spec, bell_resource, 0.5, [0.5], [1.0])) == 1
