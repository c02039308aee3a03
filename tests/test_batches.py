"""The engine's byte rule: every sweep runs its circuits in batches of at most
``protocols.BATCH_BYTES``, and a circuit's bits do not depend on its batch.

Each library sweep runs here as one batch and, under a budget of one byte,
as one batch per circuit; the summaries must agree bit for bit. The loss
grids hold eta1 = 1, which heralds with no environment mode in a batch of
its own and with one beside a lossy circuit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from test_cli import _record_batches

from cskit import protocols
from cskit.loss import loss_contour_sweep, loss_diagonal_sweep
from cskit.protocols import (
    BATCH_BYTES,
    RESOURCE_KINDS,
    InputSpec,
    ResourceSpec,
    _batches,
    entanglement_swap_sweep,
    success_probability_sweep,
    teleportation_sweep,
)

KIND = "squeezed-single-photon"
BETAS = [0.0, 0.3, 0.6, 0.9]
ETAS = [0.0, 0.3, 0.7, 1.0]


def test_batches_cut_the_circuits_by_the_budget():
    assert _batches(10, BATCH_BYTES // 4) == [slice(0, 4), slice(4, 8), slice(8, 10)]
    assert _batches(3, 10 * BATCH_BYTES) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert _batches(6, 1, pieces=2) == [slice(0, 3), slice(3, 6)]
    assert _batches(7, 1, pieces=2) == [slice(0, 4), slice(4, 7)]
    assert _batches(1, 1, pieces=64) == [slice(0, 1)]
    assert _batches(0, 1) == []


def _bits(summary):
    """Every number a summary holds or builds, as bytes where it is an array."""
    return (
        summary.success_probability,
        summary.average_fidelity,
        summary._probabilities.tobytes(),
        summary._fidelities.tobytes(),
        summary._every_probability.tobytes(),
        summary.outcomes,
    )


def _contour(protocol, input_kind, eta2s):
    beta = 0.5 * math.sqrt(2.0) if protocol == "teleport" else 0.5
    return lambda: loss_contour_sweep(
        protocol, InputSpec(input_kind, 0.5), ResourceSpec(KIND, beta), ETAS, eta2s, 5
    )


def _diagonal(protocol):
    beta = 0.5 * math.sqrt(2.0) if protocol == "teleport" else 0.5
    return lambda: loss_diagonal_sweep(
        protocol, InputSpec(KIND, 0.5), ResourceSpec(KIND, beta), ETAS, 5
    )


SWEEPS = {
    # even-cat inputs have no Z target at beta = 0 alone, so a batch splits in two
    "teleport-even-cat": (lambda: teleportation_sweep(BETAS, "even-cat", "ideal-odd-cat", 8), 4),
    "teleport": (lambda: teleportation_sweep(BETAS, KIND, KIND, 8), 4),
    "entswap": (lambda: entanglement_swap_sweep(BETAS, KIND, KIND, 8), 4),
    "entswap-coherent": (lambda: entanglement_swap_sweep(BETAS, "coherent", "ideal-odd-cat", 8), 4),
    # four families at three betas, heralded once per resource kind
    "success-prob": (
        lambda: success_probability_sweep(BETAS[1:], None, RESOURCE_KINDS, 8),
        12 * len(RESOURCE_KINDS),
    ),
    "loss-contour": (_contour("teleport", "odd-cat", [0.0, 0.5, 1.0]), 4),
    "loss-contour-entswap": (_contour("entswap", KIND, [0.0, 0.5, 1.0]), 4),
    "loss-contour-source-only": (_contour("teleport", KIND, [1.0]), 4),
    "loss-diagonal": (_diagonal("teleport"), 4),
    "loss-diagonal-entswap": (_diagonal("entswap"), 4),
}


def _flat(result):
    """Comparable bits of a sweep's result: rows as they are, summaries by ``_bits``."""
    if isinstance(result[0], protocols.ProtocolSummary):
        return [_bits(summary) for summary in result]
    return result


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweeps_do_not_depend_on_the_batch(monkeypatch, name):
    """The sweep as one batch and as ``circuits`` batches of one circuit: the same bits."""
    sweep, circuits = SWEEPS[name]
    calls = _record_batches(monkeypatch)
    whole = _flat(sweep())
    assert all(len(slices) == 1 for slices in calls)
    calls.clear()
    monkeypatch.setattr(protocols, "BATCH_BYTES", 1)
    assert _flat(sweep()) == whole
    assert sum(len(slices) for slices in calls) == circuits


def test_long_swap_sweep_peak_stays_bounded():
    """1,000 betas at cutoff 20 peak below 32 MB, one batch at a time.

    The returned summaries hold about 22 MB of that; as one batch the sweep
    peaked at 174 MB.
    """
    entanglement_swap_sweep([0.5], cutoff=20)
    tracemalloc.start()
    try:
        summaries = entanglement_swap_sweep(np.linspace(0.001, 1.0, 1000), cutoff=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(summaries) == 1000
    assert peak < 32e6
