"""Truncated Fock-space linear algebra for small multimode optical circuits.

Single-mode pure states live in a photon-number basis truncated at a cutoff N
(inclusive). Multimode states are dense complex tensors with one axis per
mode. All operations are pure functions returning new values; nothing here
mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

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

    def normalized(self) -> "MultiModeState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        return MultiModeState(self.mode_cutoffs, self.amps / n)


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


def _check_finite(value: complex, name: str):
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite, got {value}")


def coherent_state(alpha: complex, cutoff: int) -> FockVector:
    """Coherent state |alpha>, renormalized over the truncated support.

    Requires |alpha|^2 <= cutoff/3 so that truncation leakage stays below
    ~1e-10; the discarded weight is reported in ``leakage``.
    """
    _check_finite(alpha, "alpha")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if abs(alpha) ** 2 > cutoff / 3:
        raise TruncationError(
            f"cutoff {cutoff} too small for |alpha|={abs(alpha):.3f}"
            " (need |alpha|^2 <= cutoff/3)"
        )
    n = np.arange(cutoff + 1)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, cutoff + 1))]))
    if alpha == 0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
        return FockVector(cutoff, amps, 0.0)
    amps = np.exp(-abs(alpha) ** 2 / 2) * alpha**n * np.exp(-log_fact / 2)
    captured = float(np.sum(np.abs(amps) ** 2))
    return FockVector(cutoff, amps / math.sqrt(captured), max(0.0, 1.0 - captured))


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
def _beamsplitter_matrix(dim: int, eta: float) -> np.ndarray:
    """Two-mode beamsplitter unitary on the flattened |m>|n> basis.

    Convention: coherent amplitudes map as a -> sqrt(eta) a + sqrt(1-eta) b,
    b -> sqrt(1-eta) a - sqrt(eta) b. Built blockwise per total photon number
    s = m + n (the beamsplitter conserves s): each block is the exponential of
    the rotation generator restricted to that block, followed by a pi phase on
    the second mode. Blocks with s > cutoff are clipped to the representable
    sub-block; the discarded entries are genuine truncation leakage.
    """
    nmax = dim - 1
    theta = math.atan2(math.sqrt(1.0 - eta), math.sqrt(eta))
    u = np.zeros((dim * dim, dim * dim))
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
        for m in range(max(0, s - nmax), min(s, nmax) + 1):
            for p in range(max(0, s - nmax), min(s, nmax) + 1):
                u[p * dim + (s - p), m * dim + (s - m)] = block[p, m]
    u.setflags(write=False)
    return u


def apply_beamsplitter(
    state: MultiModeState, mode_i: int, mode_j: int, transmitivity: float
) -> MultiModeState:
    """Beamsplitter of power transmitivity eta between two equal-cutoff modes.

    mode_i plays the role of "a" and mode_j of "b" in the convention
    a -> sqrt(eta) a + sqrt(1-eta) b, b -> sqrt(1-eta) a - sqrt(eta) b.
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
    u = _beamsplitter_matrix(d, float(transmitivity))
    out = (u @ a.reshape(d * d, -1)).reshape((d, d) + rest)
    out = np.moveaxis(out, (0, 1), (mode_i, mode_j))
    return MultiModeState(state.mode_cutoffs, out)


def apply_phase_shift(state: MultiModeState, mode: int, theta: float) -> MultiModeState:
    """Multiply the amplitude of photon number n in ``mode`` by exp(i n theta)."""
    d = state.mode_cutoffs[mode] + 1
    phases = np.exp(1j * theta * np.arange(d))
    shape = [1] * state.amps.ndim
    shape[mode] = d
    return MultiModeState(state.mode_cutoffs, state.amps * phases.reshape(shape))


def attenuate(state: MultiModeState, mode: int, eta: float) -> MultiModeState:
    """Couple ``mode`` to a fresh vacuum mode with a transmitivity-eta beamsplitter.

    The environment mode is appended as the last mode and retained
    (purification); trace or sum over it when computing reduced quantities.
    """
    d = state.mode_cutoffs[mode] + 1
    amps = np.zeros(state.amps.shape + (d,), dtype=complex)
    amps[..., 0] = state.amps
    st = MultiModeState(state.mode_cutoffs + (d - 1,), amps)
    return apply_beamsplitter(st, mode, st.num_modes - 1, eta)


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
