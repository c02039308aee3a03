"""Property tests of the block beamsplitter, attenuation and detector kernels.

The reference is the dense d^2 x d^2 beamsplitter matrix, assembled from the
per-block exponentials of the rotation generator and applied as one matrix
product, as cskit did before it applied the blocks one at a time. The 50:50
blocks, which cskit builds from integer coefficients, are also checked
against those coefficients summed by convolution and against each entry's
exact value.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cskit.fock import (
    MultiModeState,
    _beamsplitter_blocks,
    _loss_amplitudes,
    apply_beamsplitter,
    attenuate,
    detector_response,
)
from cskit.protocols import (
    STATE_KINDS,
    InputSpec,
    ResourceSpec,
    _bells,
    _by_count,
    run_entanglement_swap,
    run_teleportation,
)

TOL = 1e-12
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

etas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _expm_block(s: int, eta: float) -> np.ndarray:
    """Unclipped block s: the exponential of the rotation generator, then a pi phase on mode b."""
    theta = math.atan2(math.sqrt(1.0 - eta), math.sqrt(eta))
    size = s + 1
    g = np.zeros((size, size))
    for m in range(s):
        val = math.sqrt((m + 1) * (s - m))
        g[m + 1, m] = val
        g[m, m + 1] = -val
    block = expm(theta * g) if size > 1 else np.ones((1, 1))
    signs = np.array([(-1.0) ** (s - p) for p in range(size)])
    return signs[:, None] * block


def _dense_beamsplitter(dim: int, eta: float) -> np.ndarray:
    """Two-mode beamsplitter unitary on the flattened |m>|n> basis."""
    nmax = dim - 1
    u = np.zeros((dim * dim, dim * dim))
    for s in range(2 * nmax + 1):
        block = _expm_block(s, eta)
        for m in range(max(0, s - nmax), min(s, nmax) + 1):
            for p in range(max(0, s - nmax), min(s, nmax) + 1):
                u[p * dim + (s - p), m * dim + (s - m)] = block[p, m]
    return u


def _dense_apply(amps: np.ndarray, mode_i: int, mode_j: int, eta: float) -> np.ndarray:
    d = amps.shape[mode_i]
    a = np.moveaxis(amps, (mode_i, mode_j), (0, 1))
    out = (_dense_beamsplitter(d, eta) @ a.reshape(d * d, -1)).reshape(a.shape)
    return np.moveaxis(out, (0, 1), (mode_i, mode_j))


@st.composite
def states(draw, min_modes=2, max_modes=4):
    """A random unnormalized state of 2-4 (or as given) equal-cutoff modes, cutoff 1-8."""
    cutoff = draw(st.integers(1, 8))
    modes = draw(st.integers(min_modes, max_modes))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = (cutoff + 1,) * modes
    return MultiModeState((cutoff,) * modes, rng.normal(size=shape) + 1j * rng.normal(size=shape))


@PROPERTY
@given(dim=st.integers(1, 9), eta=etas)
def test_unclipped_blocks_are_orthogonal(dim, eta):
    stack = _beamsplitter_blocks(dim, eta)
    for s in range(dim):
        block = stack[s, : s + 1, : s + 1]
        assert np.max(np.abs(block @ block.T - np.eye(s + 1))) <= TOL


@PROPERTY
@given(dim=st.integers(1, 9), eta=etas)
def test_block_stack_is_the_dense_unitary_zero_padded(dim, eta):
    # stack[s, p, m] is the dense entry <p, s - p| U |m, s - m> where both are
    # representable, clipped blocks included, and exactly 0 everywhere else
    stack = _beamsplitter_blocks(dim, eta)
    assert stack.shape == (2 * dim - 1, dim, dim) and not stack.flags.writeable
    dense = _dense_beamsplitter(dim, eta)
    s, p, m = np.indices(stack.shape)
    on_block = (s - p < dim) & (s - m < dim) & (p <= s) & (m <= s)
    rows = np.where(on_block, p * dim + (s - p), 0)
    cols = np.where(on_block, m * dim + (s - m), 0)
    want = np.where(on_block, dense[rows, cols], 0.0)
    assert np.max(np.abs(stack - want)) <= TOL
    assert np.all(stack[~on_block] == 0.0)


def _integer_block(s: int):
    """(c, exact): unclipped 50:50 block s from its integer coefficients.

    c[p, m], a Python int, is the coefficient of x^p y^(s - p) in (x + y)^m
    (x - y)^(s - m), the two binomial rows convolved. ``exact`` is
    sign(c) sqrt(c^2 p! (s - p)! / (m! (s - m)! 2^s)): one correctly rounded
    division of integers, then one square root.
    """
    f = [math.factorial(k) for k in range(s + 1)]
    binomial = lambda n, sign: np.array([sign**k * math.comb(n, k) for k in range(n + 1)][::-1], object)
    c = np.array([np.convolve(binomial(m, 1), binomial(s - m, -1)) for m in range(s + 1)], object).T
    exact = [
        [math.copysign(math.sqrt(c[p, m] ** 2 * f[p] * f[s - p] / (f[m] * f[s - m] << s)), c[p, m])
         for m in range(s + 1)]
        for p in range(s + 1)
    ]
    return c, np.array(exact)


# (dims, s): block s of the stacks at every d of dims. Those of d <= 32 hold coefficients that
# fit int64; d = 90 is past int64 (d > 32) and past a float 171! (d >= 86).
BALANCED = [(range(1, 33), s) for s in range(63)] + [
    ((90,), s) for s in (0, 1, 61, 63, 89, 90, 121, 150, 178)
]


@pytest.mark.parametrize(
    "dims, s", BALANCED, ids=[f"d{dims[0]}-{dims[-1]}-s{s}" for dims, s in BALANCED]
)
def test_balanced_blocks_are_their_integer_coefficients(dims, s):
    """The 50:50 block s, clipped at each d, is the exact one to 2.2e-16 and expm's to 2.5e-13.

    It is exactly 0 where its integer coefficient is, and unclipped it is
    orthogonal to 1e-14. The gap to expm is expm's own error: it reaches
    1.1e-13 from d = 29 on, and 2.4e-13 at d = 90.
    """
    c, exact = _integer_block(s)
    reference = _expm_block(s, 0.5)
    for d in (d for d in dims if s <= 2 * (d - 1)):
        on = slice(max(0, s - d + 1), min(s, d - 1) + 1)
        block = _beamsplitter_blocks(d, 0.5)[s, on, on]
        assert np.max(np.abs(block - exact[on, on])) <= 2.2e-16
        assert np.max(np.abs(block - reference[on, on])) <= 2.5e-13
        assert np.array_equal(block == 0.0, c[on, on] == 0)
        if s < d:
            assert np.max(np.abs(block @ block.T - np.eye(s + 1))) <= 1e-14


@pytest.mark.parametrize("dim", [1, 2, 7, 16, 33])
def test_loss_amplitudes_and_detector_response_read_the_balanced_stack(dim):
    # c[p, e] is stack[p + e, p, p + e] where p + e is a photon number, else 0; M is c squared
    stack = _beamsplitter_blocks(dim, 0.5)
    k, c = _loss_amplitudes(dim, 0.5)
    p, e = np.indices((dim, dim))
    inside = p + e < dim
    assert np.array_equal(k, np.minimum(p + e, dim - 1))
    assert np.array_equal(c[inside], stack[(p + e)[inside], p[inside], (p + e)[inside]])
    assert np.all(c[~inside] == 0.0)
    n, total = np.indices((dim, dim))
    assert np.array_equal(detector_response(dim - 1, 0.5), stack[total, n, total] ** 2)


@pytest.mark.parametrize("dim", [1, 2, 7, 16, 33])
def test_by_count_reads_the_one_block_stack(dim):
    # by_count[n, m, l] is stack[n + m, n, n + m - l] where that is a photon number, else 0
    stack, by_count = _beamsplitter_blocks(dim, 0.5), _by_count(dim)
    n, m, l = np.indices(by_count.shape)
    q = n + m - l
    inside = (0 <= q) & (q < dim)
    assert np.array_equal(by_count[inside], stack[(n + m)[inside], n[inside], q[inside]])
    assert np.all(by_count[~inside] == 0.0)


def test_protocols_hold_no_evicted_stack():
    """Once fock's cache evicts the 50:50 stack, nothing the protocols built keeps it alive."""
    cutoff = 6
    resource = ResourceSpec("ideal-odd-cat", 1.2)
    summaries = [
        run_teleportation(InputSpec("odd-cat", 0.8), resource, cutoff),
        run_entanglement_swap(InputSpec("odd-cat", 1.2), resource, cutoff),
    ]
    [summary.outcomes for summary in summaries]
    evicted = weakref.ref(_beamsplitter_blocks(cutoff + 1, 0.5))
    size = _beamsplitter_blocks.cache_info().maxsize
    for k in range(size + 1):
        _beamsplitter_blocks(2 + k % 4, 0.01 + 0.9 * k / size)
    assert _beamsplitter_blocks.cache_info().currsize == size
    gc.collect()
    assert evicted() is None


@PROPERTY
@given(state=states(), eta=etas, data=st.data())
def test_apply_beamsplitter_matches_dense(state, eta, data):
    mode_i, mode_j = data.draw(
        st.lists(st.integers(0, state.num_modes - 1), min_size=2, max_size=2, unique=True)
    )
    got = apply_beamsplitter(state, mode_i, mode_j, eta).amps
    want = _dense_apply(state.amps, mode_i, mode_j, eta)
    assert np.max(np.abs(got - want)) <= TOL


@PROPERTY
@given(state=states(), eta=etas, data=st.data())
def test_attenuate_matches_zero_padded_dense(state, eta, data):
    mode = data.draw(st.integers(0, state.num_modes - 1))
    padded = np.zeros(state.amps.shape + (state.amps.shape[mode],), dtype=complex)
    padded[..., 0] = state.amps
    want = _dense_apply(padded, mode, state.num_modes, eta)
    got = attenuate(state, mode, eta)
    assert got.mode_cutoffs == state.mode_cutoffs + (state.mode_cutoffs[mode],)
    assert np.max(np.abs(got.amps - want)) <= TOL


@PROPERTY
@given(cutoff=st.integers(0, 8), eta=etas)
def test_detector_response_is_binomial(cutoff, eta):
    n, k = np.indices((cutoff + 1, cutoff + 1))
    binomial = np.vectorize(math.comb)(k, n) * eta**n * (1.0 - eta) ** np.maximum(k - n, 0)
    want = np.where(n <= k, binomial, 0.0)
    assert np.max(np.abs(detector_response(cutoff, eta) - want)) <= TOL


def test_lossless_detector_response_is_the_identity():
    """At eta = 1 the response is exactly the identity, so lossless counters change no bit."""
    for cutoff in range(1, 40):
        assert np.array_equal(detector_response(cutoff, 1.0), np.eye(cutoff + 1))


def _split_into_vacuum(state, mode, port):
    """Reference: a vacuum mode inserted at axis ``port``, then a full 50:50 beamsplitter."""
    padded = np.zeros(state.amps.shape + (state.amps.shape[mode],), dtype=complex)
    padded[..., 0] = state.amps
    padded = MultiModeState(state.mode_cutoffs + (state.mode_cutoffs[mode],), padded)
    padded = MultiModeState(padded.mode_cutoffs, np.moveaxis(padded.amps, -1, port))
    return apply_beamsplitter(padded, mode if mode < port else mode + 1, port, 0.5).amps


def _gathered(state, mode, port):
    """The same split as attenuate's gather, its new axis moved into the vacuum port's place."""
    return np.moveaxis(attenuate(state, mode, 0.5).amps, -1, port)


@PROPERTY
@given(state=states(1, 3), data=st.data())
def test_vacuum_port_split_is_the_attenuate_gather(state, data):
    mode = data.draw(st.integers(0, state.num_modes - 1))
    port = data.draw(st.integers(0, state.num_modes))
    want = _split_into_vacuum(state, mode, port)
    assert np.max(np.abs(_gathered(state, mode, port) - want)) <= TOL


@pytest.mark.parametrize("cutoff", range(1, 9))
def test_vacuum_port_split_of_a_lossy_source(cutoff):
    # the teleporter's (b, c) split after source loss: (b, env) becomes (b, c, env)
    rng = np.random.default_rng(cutoff)
    amps = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
    source = attenuate(MultiModeState((cutoff,), amps), 0, 0.7)
    want = _split_into_vacuum(source, 0, 1)
    assert np.max(np.abs(_gathered(source, 0, 1) - want)) <= TOL


def _bells_by_mode(amps, eta1=1.0):
    """Each Bell pair built mode by mode: ``attenuate`` on a one-mode MultiModeState.

    Where any eta1 is below 1 every state first loses to an environment mode
    at its own eta1, then its mode 0 is split 50:50 into a vacuum port; the
    axes come out as (near, [env,] far).
    """
    amps, etas = np.broadcast_arrays(amps, np.expand_dims(eta1, -1))
    etas = etas[..., 0]
    lossy = bool((etas < 1.0).any())
    d = amps.shape[-1]
    pairs = []
    for row, eta in zip(amps.reshape(-1, d), etas.ravel()):
        state = MultiModeState((d - 1,), row)
        if lossy:
            state = attenuate(state, 0, float(eta))
        pairs.append(attenuate(state, 0, 0.5).amps)
    return np.reshape(pairs, etas.shape + pairs[0].shape)


@pytest.mark.parametrize("cutoff", [1, 6, 15])
def test_bell_pairs_are_the_mode_by_mode_build(cutoff):
    """``_bells``' gathers give the values of ``attenuate`` on a MultiModeState, to the bit."""
    rng = np.random.default_rng(cutoff)
    resources = STATE_KINDS["squeezed-single-photon"].rows([0.2, 0.5, 0.8, 1.0], cutoff)[0]
    random = rng.normal(size=(4, cutoff + 1)) + 1j * rng.normal(size=(4, cutoff + 1))
    etas = np.array([0.0, 0.05, 0.7, 1.0])
    # the swapper's phi pairs: the lossless split of the matched inputs
    phis = STATE_KINDS["odd-cat"].rows(np.sqrt(etas[1:]) * 0.5, cutoff)[0]
    cases = [
        (resources, 1.0), (random, 1.0), (resources, etas), (random, etas),
        (resources[1], etas), (resources, 0.7), (phis, 1.0),
    ]
    for amps, eta1 in cases:
        got, want = _bells(amps, eta1), _bells_by_mode(amps, eta1)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
