"""Truncated Fock-space linear algebra for small multimode optical circuits.

Single-mode pure states live in a photon-number basis truncated at a cutoff N
(inclusive). Multimode states are dense complex tensors with one axis per
mode. All operations are pure functions returning new values; nothing here
mutates its inputs.

The batched cat rows (``_cat_rows``) live here, and every coherent-state
row is built from them: mu|alpha> + nu|-alpha> is the even and the odd cat
of amplitude |alpha|, weighted and renormalized (``_qubit_rows``), and
``coherent_state`` is its mu = 1, nu = 0 case. ``_loss_amplitudes`` is the
table of a vacuum-port coupling, one product per amplitude: ``attenuate``
reads it on a ``MultiModeState``, and ``cskit.protocols`` gathers it on
plain arrays for its Bell pairs.

Every beamsplitter is one stack of blocks (``_beamsplitter_blocks``). The
50:50 one, the only one a lossless run needs, is built from the integer
coefficients of (x + y)^m (x - y)^(s - m), with the sign convention of the
exponential of the rotation generator and exact zeros where a coefficient
is 0. Other transmitivities use that exponential, and only they import
``scipy.linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TruncationError",
    "FockVector",
    "MultiModeState",
    "DensityMatrix",
    "coherent_state",
    "fock_basis_state",
    "tensor",
    "apply_beamsplitter",
    "apply_phase_shift",
    "attenuate",
    "detector_response",
    "project_photon_number",
    "partial_trace",
    "density_matrix",
    "fidelity",
]


class TruncationError(ValueError):
    """Raised when a requested state cannot be represented at the given cutoff."""


@dataclass(frozen=True)
class FockVector:
    """Single-mode pure state: complex amplitudes over photon numbers 0..cutoff.

    ``leakage`` records the probability weight the constructor discarded by
    truncating the infinite expansion (before renormalization). Constructors
    documented as normalizing always renormalize over the truncated support.
    """

    cutoff: int
    amps: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.cutoff + 1,):
            raise ValueError(
                f"amps must have length cutoff+1={self.cutoff + 1}, got {amps.shape}"
            )
        object.__setattr__(self, "amps", amps)
        amps.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return FockVector(self.cutoff, self.amps / n, self.leakage)

    def overlap(self, other: "FockVector") -> complex:
        """Inner product <self|other>."""
        if self.cutoff != other.cutoff:
            raise ValueError("cutoff mismatch")
        return complex(np.vdot(self.amps, other.amps))

    def phase_shifted(self, theta: float) -> "FockVector":
        """Multiply the photon-number-n amplitude by exp(i n theta)."""
        phases = np.exp(1j * theta * np.arange(self.dim))
        return FockVector(self.cutoff, self.amps * phases, self.leakage)


@dataclass(frozen=True)
class MultiModeState:
    """Dense pure state over k modes; amps has shape prod_i (N_i + 1)."""

    mode_cutoffs: tuple
    amps: np.ndarray

    def __post_init__(self):
        cutoffs = tuple(int(c) for c in self.mode_cutoffs)
        object.__setattr__(self, "mode_cutoffs", cutoffs)
        amps = np.asarray(self.amps, dtype=complex)
        expected = tuple(c + 1 for c in cutoffs)
        if amps.shape != expected:
            raise ValueError(f"amps shape {amps.shape} != {expected}")
        object.__setattr__(self, "amps", amps)
        amps.setflags(write=False)

    @property
    def num_modes(self) -> int:
        return len(self.mode_cutoffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class DensityMatrix:
    """Single-mode mixed state rho_{mn} over photon numbers 0..cutoff."""

    cutoff: int
    elems: np.ndarray

    def __post_init__(self):
        elems = np.asarray(self.elems, dtype=complex)
        d = self.cutoff + 1
        if elems.shape != (d, d):
            raise ValueError(f"elems must be {(d, d)}, got {elems.shape}")
        object.__setattr__(self, "elems", elems)
        elems.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    def trace(self) -> complex:
        return complex(np.trace(self.elems))


_KEPT_FLOOR = 1e-6  # a build that keeps less of its expansion's weight is refused


def _refuse(refused, error):
    """Raise ``error(i)`` for the first row i that ``refused`` marks: one check of a batched build.

    A batch holding one refused row raises what that row's own build raises.
    """
    if np.any(refused):
        raise error(int(np.argmax(refused)))


def _renormalized(amps):
    """(amps, leakage): each row renormalized in its dtype, and the weight it lacks."""
    captured = np.sum(np.abs(amps) ** 2, axis=1)
    _refuse(captured < _KEPT_FLOOR, lambda i: TruncationError(
        f"cutoff {amps.shape[1] - 1} keeps {captured[i]:.3g} of the state's weight"
        f" (need at least {_KEPT_FLOOR:g})"
    ))
    return amps / np.sqrt(captured)[:, None], np.maximum(0.0, 1.0 - captured)


def _one_row(rows) -> FockVector:
    """The FockVector of a batched build of one row."""
    (amps,), (leakage,) = rows
    return FockVector(len(amps) - 1, amps, float(leakage))


def _every_other(cutoff, offset, firsts, ratios):
    """(amps, leakage): complex rows over 0..cutoff, zero but at offset, offset + 2, ...

    Row i runs from ``firsts[i]`` by its term ratios ``ratios[i]``: one cumprod, no factorial.
    """
    amps = np.zeros((len(ratios), cutoff + 1), dtype=complex)
    slots = amps[:, offset::2]
    slots[:] = np.cumprod(np.column_stack([firsts, ratios]), axis=1)[:, : slots.shape[1]]
    return _renormalized(amps)


def _cat_first(beta, square, odd):
    """The first term 2 exp(-beta^2 / 2) beta^odd / N, N^2 = 2 (1 ± exp(-2 beta^2)) (expm1 if odd).

    Below beta^2 = the smallest normal float the limit |0> or |1> is exact: 1, with ratios 0.
    """
    if square < np.finfo(float).tiny:
        return 1.0
    norm_sq = -2.0 * math.expm1(-2.0 * square) if odd else 2.0 * (1.0 + math.exp(-2.0 * square))
    return 2.0 * math.exp(-square / 2.0) / math.sqrt(norm_sq) * beta**odd


def _cat_rows(betas, parity: str, cutoff: int):
    """(amps, leakage) of ``catstates.cat_state`` at each beta of ``betas``, checked as vectors.

    The beta -> 0 limit forms no 0/0 (``_cat_first``). Each row's scalars
    are taken with ``math``. The expansion starts from exp(-beta^2 / 2), and
    its largest terms are about its inverse: where that weight is not a
    normal float (from beta^2 ~ 1,420 on) the row is refused, as
    ``catstates._squeezed_rows`` refuses a squeezing.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    betas = np.asarray(betas, dtype=float)
    values = betas.tolist()
    _refuse(~(betas >= 0), lambda i: ValueError(f"beta must be >= 0, got {values[i]}"))
    # beta > cutoff implies beta^2 > cutoff / 3, and keeps beta**2 from overflowing
    squares = np.array([min(beta, cutoff) ** 2 for beta in values], dtype=float)
    _refuse((betas > cutoff) | (squares > cutoff / 3), lambda i: TruncationError(
        f"cutoff {cutoff} too small for beta={values[i]:.4g} (need beta^2 <= cutoff/3)"
    ))
    _refuse(np.exp(-squares / 2) < np.finfo(float).tiny, lambda i: TruncationError(
        f"beta={values[i]:.4g} leaves the state no representable weight"
        " (need exp(-beta^2 / 2) >= the smallest normal float)"
    ))
    odd = int(parity == "odd")
    firsts = [_cat_first(beta, square, odd) for beta, square in zip(values, squares.tolist())]
    n = np.arange(odd + 2, cutoff + 1, 2)
    limit = squares < np.finfo(float).tiny
    ratios = np.where(limit, 0.0, squares)[:, None] / np.sqrt(n * (n - 1))
    return _every_other(cutoff, odd, firsts, ratios)


def _qubit_rows(mu, nu, alphas, cutoff: int):
    """(amps, leakage) of mu|alpha> + nu|-alpha>, renormalized, at each alpha of ``alphas``.

    ``mu`` and ``nu`` hold one coefficient for every row, or one per row.
    Row i is at ``alphas[i % len(alphas)]``, so families over one grid build
    their even and their odd cat rows once. With a = |alpha| the state is the
    even and the odd cat of amplitude a at the weights (mu ± nu) sqrt((1 ±
    exp(-2 a^2)) / 2), turned by exp(i n arg alpha) on |n>. Each weight is
    taken over the exact norm and times the square root of its cat row's kept
    weight, so the leakage is 1 - kept/exact. Where mu = -nu and both weights
    are 0 (a^2 underflows) the row is |1>, the odd cat's limit.
    """
    alphas = np.asarray(alphas, dtype=complex if np.iscomplexobj(alphas) else float)
    values = alphas.tolist()
    _refuse(~np.isfinite(alphas), lambda i: ValueError(f"alpha must be finite, got {values[i]}"))
    mags = np.abs(alphas)
    (even, even_leakage), (odd, odd_leakage) = (_cat_rows(mags, p, cutoff) for p in ("even", "odd"))
    rows = max(np.size(mu), np.size(nu), len(alphas)) if len(alphas) else 0
    at = np.arange(rows) % len(alphas)
    mu, nu = np.broadcast_arrays(mu, nu, at)[:2]
    squares = mags[at] ** 2
    w_even = (mu + nu) * np.sqrt((1.0 + np.exp(-2.0 * squares)) / 2.0)
    w_odd = (mu - nu) * np.sqrt(-np.expm1(-2.0 * squares) / 2.0)
    norm = np.hypot(np.abs(w_even), np.abs(w_odd))  # the exact norm, with no square to underflow
    limit = (norm == 0.0) & (mu + nu == 0.0) & (mu != 0.0)
    _refuse((norm == 0.0) & ~limit, lambda i: ValueError("cannot normalize a zero vector"))
    w_odd, norm = np.where(limit, 1.0, w_odd), np.where(limit, 1.0, norm)
    kept = lambda w, leakage: (w / norm * np.sqrt(1.0 - leakage[at]))[:, None]
    amps = kept(w_even, even_leakage) * even[at] + kept(w_odd, odd_leakage) * odd[at]
    turns = np.divide(alphas, mags, out=np.ones_like(alphas), where=mags > 0.0)[at]
    return _renormalized(amps * turns[:, None] ** np.arange(cutoff + 1))


def coherent_state(alpha: complex, cutoff: int) -> FockVector:
    """Coherent state |alpha>, renormalized over the truncated support.

    Requires |alpha|^2 <= cutoff/3 so that truncation leakage stays below
    ~1e-10; the discarded weight is reported in ``leakage``. The one-row
    case of ``_qubit_rows`` at mu = 1, nu = 0.
    """
    return _one_row(_qubit_rows(1.0, 0.0, [alpha], cutoff))


def fock_basis_state(n: int, cutoff: int) -> FockVector:
    """Number state |n>."""
    if not 0 <= n <= cutoff:
        raise ValueError(f"photon number {n} outside [0, {cutoff}]")
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[n] = 1.0
    return FockVector(cutoff, amps, 0.0)


def tensor(states) -> MultiModeState:
    """Dense outer product of single-mode states, in the given mode order."""
    states = list(states)
    if not states:
        raise ValueError("tensor() needs at least one state")
    amps = states[0].amps
    for s in states[1:]:
        amps = np.tensordot(amps, s.amps, axes=0)
    return MultiModeState(tuple(s.cutoff for s in states), amps)


@lru_cache(maxsize=64)
def _beamsplitter_blocks(dim: int, eta: float) -> np.ndarray:
    """The two-mode beamsplitter unitary as a zero-padded stack of its blocks.

    Convention: coherent amplitudes map as a -> sqrt(eta) a + sqrt(1-eta) b,
    b -> sqrt(1-eta) a - sqrt(eta) b. The beamsplitter conserves s = m + n, so
    it is one block per s. ``stack[s, p, m]``, read-only and of shape
    (2 dim - 1, dim, dim), is the amplitude of |p>|s - p> from |m>|s - m>,
    and exactly 0 off block s. Blocks with s > cutoff are clipped to the
    representable p, m >= s - cutoff; the discarded entries are genuine
    truncation leakage. Every consumer of the blocks reads this one table.

    At eta = 0.5, a+ -> (x + y) / sqrt 2 and b+ -> (x - y) / sqrt 2 on the
    output creation operators x, y, so column m of block s holds the integer
    coefficients c[p] of x^p y^(s - p) in (x + y)^m (x - y)^(s - m), and
    the entry is c[p] sqrt(C(s, m) / (C(s, p) 2^s)), the same as
    sign(c) sqrt(c^2 p! (s - p)! / (m! (s - m)! 2^s)). The coefficients are
    Python integers, exact at every cutoff: column s is the binomial row
    (x + y)^s, and every other column is the column of block s - 1 times
    (x - y). The entry is within about an ulp of its exact value, and exactly
    0 where c is. Any other eta takes the exponential of the rotation
    generator restricted to each block, followed by a pi phase on the second
    mode; the sign convention is the same, and scipy is imported only there.
    """
    nmax = dim - 1
    stack = np.zeros((2 * nmax + 1, dim, dim))
    if eta == 0.5:
        coeffs = np.zeros((dim + 1, dim), dtype=object)  # row p + 1 holds c[p]; row 0 is c[-1] = 0
        for s in range(2 * nmax + 1):
            lo, hi = max(0, s - nmax), min(s, nmax)
            on, block = slice(lo, hi + 1), (slice(lo + 1, hi + 2), slice(lo, hi + 1))
            coeffs[block] = coeffs[on, on] - coeffs[block]  # times (x - y)
            binom = [math.comb(s, k) for k in range(lo, hi + 1)]
            if s <= nmax:
                coeffs[1 : s + 2, s] = binom  # (x + y)^s
            binom = np.array(binom, dtype=float)
            weights = np.sqrt(binom / 2.0**s) / np.sqrt(binom)[:, None]
            stack[s, on, on] = coeffs[block].astype(float) * weights
    else:
        from scipy.linalg import expm

        theta = math.atan2(math.sqrt(1.0 - eta), math.sqrt(eta))
        for s in range(2 * nmax + 1):
            size = s + 1
            g = np.zeros((size, size))
            for m in range(s):
                val = math.sqrt((m + 1) * (s - m))
                g[m + 1, m] = val
                g[m, m + 1] = -val
            block = expm(theta * g) if size > 1 else np.ones((1, 1))
            signs = np.array([(-1.0) ** (s - p) for p in range(size)])
            block = signs[:, None] * block
            lo, hi = max(0, s - nmax), min(s, nmax)
            stack[s, lo : hi + 1, lo : hi + 1] = block[lo : hi + 1, lo : hi + 1]
    stack.setflags(write=False)
    return stack


def apply_beamsplitter(
    state: MultiModeState, mode_i: int, mode_j: int, transmitivity: float
) -> MultiModeState:
    """Beamsplitter of power transmitivity eta between two equal-cutoff modes.

    mode_i plays the role of "a" and mode_j of "b" in the convention
    a -> sqrt(eta) a + sqrt(1-eta) b, b -> sqrt(1-eta) a - sqrt(eta) b.
    Block s of ``_beamsplitter_blocks`` acts on the flat indices
    m * d + (s - m) = s + m (d - 1) of the representable m, one strided
    slice of rows; it multiplies the (re, im) float view of those rows.
    """
    if mode_i == mode_j:
        raise ValueError("beamsplitter needs two distinct modes")
    if not 0.0 <= transmitivity <= 1.0:
        raise ValueError(f"transmitivity {transmitivity} outside [0, 1]")
    ci, cj = state.mode_cutoffs[mode_i], state.mode_cutoffs[mode_j]
    if ci != cj:
        raise ValueError(f"mode cutoffs must match, got {ci} and {cj}")
    d = ci + 1
    a = np.moveaxis(state.amps, (mode_i, mode_j), (0, 1))
    rest = a.shape[2:]
    flat = np.ascontiguousarray(a.reshape(d * d, -1)).view(np.float64)
    out = np.empty_like(flat)
    stack = _beamsplitter_blocks(d, float(transmitivity))
    for s in range(2 * ci + 1):
        lo, hi = max(0, s - ci), min(s, ci)
        rows = slice(s + lo * ci, s + hi * ci + 1, max(ci, 1))
        out[rows] = stack[s, lo : hi + 1, lo : hi + 1] @ flat[rows]
    out = np.moveaxis(out.view(complex).reshape((d, d) + rest), (0, 1), (mode_i, mode_j))
    return MultiModeState(state.mode_cutoffs, out)


def apply_phase_shift(state: MultiModeState, mode: int, theta: float) -> MultiModeState:
    """Multiply the amplitude of photon number n in ``mode`` by exp(i n theta)."""
    d = state.mode_cutoffs[mode] + 1
    phases = np.exp(1j * theta * np.arange(d))
    shape = [1] * state.amps.ndim
    shape[mode] = d
    return MultiModeState(state.mode_cutoffs, state.amps * phases.reshape(shape))


@lru_cache(maxsize=64)
def _loss_amplitudes(dim: int, eta: float) -> tuple:
    """(k, c): what a transmitivity-eta beamsplitter makes of |k>|0>.

    |k>|0> goes to sum_e c[p, e] |p>|e> over p + e = k, so c[p, e] is the
    entry ``stack[p + e, p, p + e]`` of ``_beamsplitter_blocks``, and
    k[p, e] = p + e is clipped to the cutoff where c is zero (such an input
    is not representable).
    """
    p, e = np.indices((dim, dim))
    k = np.minimum(p + e, dim - 1)
    c = np.where(p + e == k, _beamsplitter_blocks(dim, eta)[k, p, k], 0.0)
    c.setflags(write=False)
    k.setflags(write=False)
    return k, c


def attenuate(state: MultiModeState, mode: int, eta: float) -> MultiModeState:
    """Couple ``mode`` to a fresh vacuum mode with a transmitivity-eta beamsplitter.

    The environment mode is appended as the last mode and retained
    (purification); trace or sum over it when computing reduced quantities.
    As the environment starts in vacuum, each output amplitude is the single
    product out[p, e] = c[p, e] a[p + e], the same number the full
    beamsplitter gives; the environment count e indexes the Kraus branches
    of the loss channel.
    """
    d = state.mode_cutoffs[mode] + 1
    k, c = _loss_amplitudes(d, float(eta))
    out = np.moveaxis(state.amps, mode, -1)[..., k] * c
    return MultiModeState(state.mode_cutoffs + (d - 1,), np.moveaxis(out, -2, mode))


@lru_cache(maxsize=64)
def detector_response(cutoff: int, eta: float) -> np.ndarray:
    """M[n, k]: the probability that a transmitivity-eta counter reports n of k photons.

    This is the binomial C(k, n) eta^n (1 - eta)^(k - n), taken as the square
    of ``stack[k, n, k]`` of ``_beamsplitter_blocks``: the amplitude c[n, k - n]
    that ``attenuate`` uses, and exactly 0 off the block, where n > k. A table
    T[k, l] of outcome weights of two lossless counters becomes M T M^T behind
    loss, the same numbers as heralding the purification: each count n with
    environment count e comes from exactly one input k = n + e, so the
    environment branches add no cross terms.
    """
    k = np.arange(cutoff + 1)
    m = _beamsplitter_blocks(cutoff + 1, float(eta))[k, :, k].T ** 2
    m.setflags(write=False)
    return m


def project_photon_number(state: MultiModeState, mode_counts):
    """Condition on photon-number outcomes in the given modes.

    ``mode_counts`` is a list of (mode, n) pairs. Returns (probability,
    conditional state over the remaining modes, in their original order).
    A zero-probability outcome returns (0.0, None); measuring every mode
    returns (probability, None).
    """
    mode_counts = list(mode_counts)
    measured = set()
    idx = [slice(None)] * state.num_modes
    for mode, n in mode_counts:
        if not 0 <= mode < state.num_modes:
            raise ValueError(f"invalid mode {mode}")
        if not 0 <= n <= state.mode_cutoffs[mode]:
            raise ValueError(f"photon number {n} exceeds cutoff of mode {mode}")
        if mode in measured:
            raise ValueError(f"mode {mode} measured twice")
        measured.add(mode)
        idx[mode] = n
    sub = state.amps[tuple(idx)]
    prob = float(np.sum(np.abs(sub) ** 2))
    if prob == 0.0:
        return 0.0, None
    remaining = tuple(
        c for m, c in enumerate(state.mode_cutoffs) if m not in measured
    )
    if not remaining:
        return prob, None
    return prob, MultiModeState(remaining, sub / math.sqrt(prob))


def partial_trace(state: MultiModeState, keep_mode: int) -> DensityMatrix:
    """Reduced density matrix of one mode, tracing out all others."""
    if not 0 <= keep_mode < state.num_modes:
        raise ValueError(f"invalid mode {keep_mode}")
    d = state.mode_cutoffs[keep_mode] + 1
    a = np.moveaxis(state.amps, keep_mode, 0).reshape(d, -1)
    return DensityMatrix(state.mode_cutoffs[keep_mode], a @ a.conj().T)


def density_matrix(vec: FockVector) -> DensityMatrix:
    """|psi><psi| for a single-mode pure state."""
    return DensityMatrix(vec.cutoff, np.outer(vec.amps, vec.amps.conj()))


def fidelity(target, state) -> float:
    """State fidelity.

    pure/pure: |<target|state>|^2 (symmetric); pure/mixed: <target|rho|target>.
    Accepts FockVector or MultiModeState targets; the second argument may also
    be a DensityMatrix when the target is a FockVector.
    """
    if isinstance(target, FockVector) and isinstance(state, FockVector):
        return float(abs(target.overlap(state)) ** 2)
    if isinstance(target, FockVector) and isinstance(state, DensityMatrix):
        if target.cutoff != state.cutoff:
            raise ValueError("cutoff mismatch")
        return float(np.real(np.vdot(target.amps, state.elems @ target.amps)))
    if isinstance(target, MultiModeState) and isinstance(state, MultiModeState):
        if target.mode_cutoffs != state.mode_cutoffs:
            raise ValueError("mode structure mismatch")
        return float(abs(np.vdot(target.amps, state.amps)) ** 2)
    raise TypeError(
        f"unsupported fidelity arguments: {type(target).__name__}, {type(state).__name__}"
    )
