"""The count-weight contraction against the masked reduction it replaced.

``protocols._herald`` sums each lossless outcome table T against count
weights, <T, W_S> with W_S = M^T 1_S M, and builds no outcome table; a
summary builds its records only when read. The oracle (``masked_herald``)
maps every table through the counters, clips every probability and sums over
the label masks. Over a derandomized grid of both protocols, every input kind
and complex superpositions, resources of both parities, source and detector
losses with eta = 0 rows, and the include_z switch, the engine's runs agree
with the oracle on the tables of every count to 1e-13 in P and F, on the same
degenerate cells, and so do their lazily built records.
"""

import math

import masked_herald
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cskit import protocols
from cskit.fock import detector_response
from cskit.loss import loss_contour_sweep, loss_diagonal_sweep
from cskit.protocols import (
    RESOURCE_KINDS,
    InputSpec,
    ResourceSpec,
    _bells,
    _edge_counts,
    _rejected_counts,
    _runs,
    _tables,
    _z_targets,
    resource_parity,
    state_kinds,
)

TOL = 1e-13
KIND = "squeezed-single-photon"
# complex (mu, nu) pairs: Re(mu nu) differs from Re(mu* nu) for each
SUPERPOSITIONS = [(0.6 + 0.3j, 0.2 - 0.7j), (1.0, 0.5j), (0.8j, -0.6)]


def _spec(input_, alpha):
    if isinstance(input_, tuple):
        return InputSpec("superposition", alpha, *input_)
    return InputSpec(input_, alpha)


def _every_count(protocol, spec, resource, cutoff, eta1):
    """(tables, labels) of the circuit ``_runs`` builds, over every count, as a batch of one."""
    matched = spec.at_alpha(math.sqrt(eta1) * spec.alpha)
    state = matched.to_fock(cutoff).amps
    pair = _bells(resource.to_fock(cutoff).amps, eta1)
    if protocol == "teleport":
        z_targets = _z_targets(matched, [matched.alpha], cutoff)
        left, target, z_target = state, state, None if z_targets is None else z_targets[0]
    else:
        left = target = _bells(state)
        z_target = None
    factors = [None if a is None else a[None] for a in (left, pair, target, z_target)]
    d = cutoff + 1
    return _tables((_edge_counts(d), _rejected_counts(d)), *factors)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    protocol=st.sampled_from(["teleport", "entswap"]),
    input_=st.sampled_from(list(state_kinds("input")) + SUPERPOSITIONS),
    resource_kind=st.sampled_from(RESOURCE_KINDS),
    amplitude=st.sampled_from([0.0, 0.2, 0.45, 0.7]),
    cutoff=st.sampled_from([2, 3, 5, 6, 8]),
    eta1=st.sampled_from([0.0, 0.4, 1.0]),
    eta2s=st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=1, max_size=3),
    include_z=st.booleans(),
)
@example("teleport", SUPERPOSITIONS[0], "ideal-even-cat", 0.45, 6, 0.0, [0.0, 1.0], True)
@example("teleport", "even-cat", "ideal-odd-cat", 0.0, 5, 1.0, [1.0], False)
@example("entswap", SUPERPOSITIONS[1], "squeezed-vacuum", 0.45, 5, 0.4, [0.0, 0.7], False)
def test_runs_match_the_masked_reduction(
    protocol, input_, resource_kind, amplitude, cutoff, eta1, eta2s, include_z
):
    """Each run of an eta1 row, lossless or lossy, against the oracle on every count's tables."""
    spec = _spec(input_, amplitude)
    beta = math.sqrt(2.0) * amplitude if protocol == "teleport" else amplitude
    resource = ResourceSpec(resource_kind, beta)
    try:
        [[row]] = _runs(
            protocol, spec, [amplitude], resource_kind, [beta], cutoff, [eta1], (tuple(eta2s),),
            include_z,
        )
    except ValueError:  # a state the cutoff cannot hold
        assume(False)
    tables, labels = _every_count(protocol, spec, resource, cutoff, eta1)
    responses = np.array([[detector_response(cutoff, eta) for eta in eta2s]])
    parity = resource_parity(resource_kind)
    [want_row] = masked_herald.herald(tables, labels, responses, parity, include_z)
    for got, want in zip(row, want_row, strict=True):
        assert abs(got.success_probability - want.success_probability) <= TOL
        assert got.degenerate == want.degenerate
        if not want.degenerate:
            assert abs(got.average_fidelity - want.average_fidelity) <= TOL
        accepted = 0.0
        for record, want_record in zip(got.outcomes, want.outcomes, strict=True):
            assert (record.n, record.m, record.correction, record.accepted) == (
                want_record.n, want_record.m, want_record.correction, want_record.accepted
            )
            assert abs(record.probability - want_record.probability) <= TOL
            assert (record.fidelity is None) == (want_record.fidelity is None)
            if record.fidelity is not None:
                assert abs(record.fidelity - want_record.fidelity) <= TOL
            accepted += record.probability if record.accepted else 0.0
        assert abs(accepted - got.success_probability) <= TOL


def test_alternating_sweeps_build_each_counter_stack_once():
    """A teleport contour and an entswap diagonal, alternating as ``cskit loss`` runs them,
    build their responses and count weights once each."""
    teleport = InputSpec(KIND, 0.5), ResourceSpec(KIND, 0.5 * math.sqrt(2.0))
    entswap = InputSpec(KIND, 0.5), ResourceSpec(KIND, 0.5)
    protocols._responses.cache_clear()
    for _ in range(3):
        assert len(loss_contour_sweep("teleport", *teleport, cutoff=6)) == 21 * 21
        assert len(loss_diagonal_sweep("entswap", *entswap, cutoff=5)) == 21
    info = protocols._responses.cache_info()
    assert (info.misses, info.hits) == (2, 4)
