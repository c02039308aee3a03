"""Coherent-state qubit teleportation and entanglement swapping.

The teleporter takes an input qubit mu|alpha> + nu|-alpha> in mode a and a
resource state of amplitude beta = sqrt(2) alpha in mode b. The resource is
split on a 50:50 beamsplitter with vacuum mode c to form a coherent-state
Bell pair, a second 50:50 beamsplitter mixes a and b, and photon numbers
(n, m) are counted in modes a and b. Exactly one nonzero count heralds
success; the output lives in mode c up to a Pauli correction.

Correction bookkeeping depends on the photon-number parity of the resource:
for odd-parity resources (odd cat, squeezed single photon) odd counts need
only I or X, even counts need a Z; for even-parity resources the roles swap.
Only the X correction (a pi phase shift) is ever applied; outcomes needing a
Z are reported but excluded from fidelity averaging unless explicitly
included for diagnostics. Their target absorbs an ideal Z (sign flip of the
|-alpha> component); at alpha = 0 with mu = nu that is |1>, the limit.

Both protocols, lossless and lossy, are one circuit: a Bell pair made from
the resource (``_bells``, plain gathers of ``fock._loss_amplitudes`` into a
vacuum port, with no ``MultiModeState``) and one
50:50 beamsplitter that mixes its near half with the input, or with one half
of phi's Bell pair, in front of the two counters. ``_tables`` heralds every
outcome at once, from one probability table and one overlap table per
correction label, built from the two factors that meet at the beamsplitter,
never from their joint state: the beamsplitter conserves the total photon
number, so each count (n, m) sees one block of it, and the probability table
needs only the two factors' Gram matrices. Source loss (see ``cskit.loss``)
adds an environment mode that the resource's Gram matrix sums over.

The engine runs a batch of circuits along a leading axis, one per beta of a
grid or per eta1 of a loss sweep, from the states to the summaries, in
batches of at most BATCH_BYTES (``_batches``). Each kind of ``STATE_KINDS``
builds all the states of a batch as one (b, d) array (``StateKind.rows``);
``_runs`` builds a sweep's inputs, Z targets and resources so, the qubit
ones by ``fock._qubit_rows``, and ``_batch`` heralds them. Lossless counters need only the edge counts (0, s) and (s, 0),
in O(d^3) per circuit; detector loss mixes every count into the accepted
ones, so lossy counters fill every count, in O(d^4). A run's success
probability and average fidelity are sums of the tables against count
weights, one per set of counts and eta2 response (``_herald``), the same
route behind lossless counters, where each weight is a mask. A summary
builds its outcome tables and records, and behind lossless counters its
rejected counts' probabilities, only when read; the loss sweeps and
``success_probability_sweep`` read arrays and build no summary. Every build
and contraction is per row, so a circuit's result is the same bits in any
batch: ``run_teleportation`` and ``run_entanglement_swap`` are the
one-circuit case of the sweeps. A lossless run is the eta1 = eta2 = 1 case
of the engine, and a summary holds nothing of its arguments, so there the
lossy runners of ``cskit.loss`` return a summary equal to the lossless one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .catstates import _cat_rows, _squeezed_rows, r_opt, r_opt_v
from .fock import (
    FockVector,
    MultiModeState,
    _beamsplitter_blocks,
    _loss_amplitudes,
    _one_row,
    _qubit_rows,
    apply_beamsplitter,
    detector_response,
    fock_basis_state,
    tensor,
)

__all__ = [
    "QubitSuperposition",
    "StateKind",
    "STATE_KINDS",
    "state_kinds",
    "ResourceSpec",
    "InputSpec",
    "LossConfig",
    "OutcomeRecord",
    "ProtocolSummary",
    "RESOURCE_KINDS",
    "INPUT_FAMILIES",
    "resource_parity",
    "build_teleporter_input",
    "enumerate_outcomes",
    "classify_outcome",
    "apply_correction",
    "run_teleportation",
    "per_outcome_fidelity",
    "teleportation_sweep",
    "success_probability_sweep",
    "run_entanglement_swap",
    "entanglement_swap_sweep",
]


@dataclass(frozen=True)
class StateKind:
    """A named single-mode state family, built at an amplitude and a cutoff.

    ``roles`` says where the kind is offered: 'input' (InputSpec), 'resource'
    (ResourceSpec) and 'wigner' (the CLI's Wigner views). ``rows(amplitudes,
    cutoff, rs=None)`` is its batched builder, (b, d) amplitudes and b
    leakages, and ``build`` its one-row case. Squeezed kinds use the optimal
    squeezing of each amplitude unless ``rs`` gives one r per row; the others
    ignore ``rs``. ``parity`` is the photon-number parity, and ``qubit`` the
    exact coherent-qubit coefficients (mu, nu), or None.
    """

    roles: tuple
    rows: Callable
    parity: str = None
    qubit: tuple = None

    def build(self, amplitude, cutoff: int, r=None) -> FockVector:
        """The FockVector of the kind at ``amplitude``, or at squeezing ``r``."""
        return _one_row(self.rows([amplitude], cutoff, None if r is None else [r]))


def _number(n):
    return lambda amplitudes, cutoff, rs=None: (
        np.tile(fock_basis_state(n, cutoff).amps, (len(amplitudes), 1)), np.zeros(len(amplitudes))
    )


def _cat(parity):
    return lambda amplitudes, cutoff, rs=None: _cat_rows(amplitudes, parity, cutoff)


def _squeezed(photons, r_of):
    return lambda amplitudes, cutoff, rs=None: _squeezed_rows(
        [r_of(a) for a in np.asarray(amplitudes, dtype=float).tolist()] if rs is None else rs,
        photons, cutoff,
    )


STATE_KINDS = {
    "vacuum": StateKind(("wigner",), _number(0), "even"),
    "single-photon": StateKind(("wigner",), _number(1), "odd"),
    "coherent": StateKind(
        ("input", "wigner"),
        lambda amplitudes, cutoff, rs=None: _qubit_rows(1.0, 0.0, amplitudes, cutoff),
        None, (1.0, 0.0),
    ),
    "odd-cat": StateKind(("input", "wigner"), _cat("odd"), "odd", (1.0, -1.0)),
    "even-cat": StateKind(("input", "wigner"), _cat("even"), "even", (1.0, 1.0)),
    "ideal-odd-cat": StateKind(("resource",), _cat("odd"), "odd", (1.0, -1.0)),
    "ideal-even-cat": StateKind(("resource",), _cat("even"), "even", (1.0, 1.0)),
    "squeezed-single-photon": StateKind(("input", "resource"), _squeezed(1, r_opt), "odd"),
    "squeezed-vacuum": StateKind(("input", "resource"), _squeezed(0, r_opt_v), "even"),
    "sq1": StateKind(("wigner",), _squeezed(1, r_opt), "odd"),
    "sq0": StateKind(("wigner",), _squeezed(0, r_opt_v), "even"),
}


def state_kinds(role: str) -> tuple:
    """Names of the state kinds offered in ``role``, in table order."""
    return tuple(name for name, kind in STATE_KINDS.items() if role in kind.roles)


def _state_kind(name: str, role: str) -> StateKind:
    kind = STATE_KINDS.get(name)
    if kind is None or role not in kind.roles:
        raise ValueError(f"unknown {role} kind {name!r}")
    return kind


RESOURCE_KINDS = state_kinds("resource")


def resource_parity(kind: str) -> str:
    """Photon-number parity of a resource kind: 'odd' or 'even'."""
    return _state_kind(kind, "resource").parity


@dataclass(frozen=True)
class QubitSuperposition:
    """Coherent-state qubit mu|alpha> + nu|-alpha> (normalized on demand)."""

    mu: complex
    nu: complex
    alpha: float

    def to_fock(self, cutoff: int) -> FockVector:
        """The normalized state over photon numbers 0..cutoff, the one-row case of ``_qubit_rows``.

        Where mu = -nu and the norm is 0 (alpha is 0, or so small that the
        norm underflows) it is |1>, the odd cat's limit as alpha -> 0, up to
        a global phase.
        """
        return _one_row(_qubit_rows(self.mu, self.nu, [self.alpha], cutoff))

    def z_flipped(self) -> "QubitSuperposition":
        """Qubit after an ideal Z: the |-alpha> component changes sign."""
        return QubitSuperposition(self.mu, -self.nu, self.alpha)


@dataclass(frozen=True)
class ResourceSpec:
    """Resource state of cat amplitude beta, of a kind in RESOURCE_KINDS.

    Squeezed kinds use the closed-form optimal squeezing for that amplitude:
    r_opt(beta) for the squeezed single photon, r_opt_v(beta) for the
    squeezed vacuum.
    """

    kind: str
    beta: float

    def __post_init__(self):
        resource_parity(self.kind)  # validates kind

    @property
    def parity(self) -> str:
        return resource_parity(self.kind)

    def to_fock(self, cutoff: int) -> FockVector:
        return _state_kind(self.kind, "resource").build(self.beta, cutoff)


@dataclass(frozen=True)
class InputSpec:
    """Input state of qubit amplitude alpha.

    kinds: the 'input' kinds of STATE_KINDS ('coherent', 'odd-cat',
    'even-cat', 'squeezed-single-photon' built at r_opt(alpha),
    'squeezed-vacuum' at r_opt_v(alpha)), or 'superposition' with explicit
    (mu, nu).
    """

    kind: str
    alpha: float
    mu: complex = None
    nu: complex = None

    def to_fock(self, cutoff: int) -> FockVector:
        if self.kind == "superposition":
            return self.qubit().to_fock(cutoff)
        return _state_kind(self.kind, "input").build(self.alpha, cutoff)

    def qubit(self) -> QubitSuperposition | None:
        """Exact coherent-qubit decomposition, or None (squeezed kinds)."""
        if self.kind == "superposition":
            if self.mu is None or self.nu is None:
                raise ValueError("superposition input needs mu and nu")
            return QubitSuperposition(self.mu, self.nu, self.alpha)
        coeffs = _state_kind(self.kind, "input").qubit
        return None if coeffs is None else QubitSuperposition(*coeffs, self.alpha)

    def at_alpha(self, alpha: float) -> "InputSpec":
        """Same family rebuilt at a different qubit amplitude."""
        return replace(self, alpha=alpha)


# Standard input families: (mu, nu) coefficients at the swept alpha.
INPUT_FAMILIES = {
    "odd-cat-superposition": (1.0, -1.0),
    "biased-superposition": (0.5, -math.sqrt(3.0) / 2.0),
    "coherent": (1.0, 0.0),
    "even-cat-superposition": (1.0, 1.0),
}


@dataclass(frozen=True)
class LossConfig:
    """Source transmitivity eta1 and detector transmitivity eta2, both in [0, 1]."""

    eta1: float = 1.0
    eta2: float = 1.0

    def __post_init__(self):
        for name, eta in (("eta1", self.eta1), ("eta2", self.eta2)):
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{name}={eta} outside [0, 1]")


@dataclass(frozen=True)
class OutcomeRecord:
    """One photon-number measurement result of the two detectors."""

    n: int
    m: int
    probability: float
    correction: str  # "I", "X", "Z", "XZ", or "none" for rejected outcomes
    accepted: bool
    fidelity: float = None


@dataclass(frozen=True)
class ProtocolSummary:
    """Aggregate of one protocol run, lossless or lossy.

    ``average_fidelity`` is probability-weighted over the accepted outcomes
    that need no Z correction (the odd detector counts for an odd-parity
    resource), or None for a degenerate run, one with zero accepted weight.
    The summary holds no copy of the run's arguments, so a lossy run at
    eta1 = eta2 = 1 compares equal to the lossless run. It keeps its
    circuit's lossless outcome tables (``_tables``) and its counters'
    response M, and builds the outcome tables over the (n, m) counts (M T M^T,
    clipped, and the fidelity table) only when ``outcomes``, ``outcome(n, m)``
    or ``both_nonzero_weight`` reads them. Behind lossless counters the
    rejected counts' probabilities are built, from the run's factors, the
    first time one is read.
    """

    success_probability: float
    average_fidelity: float
    # The probability table, then one overlap table per label of _table_labels (``_tables``).
    _tables: np.ndarray = field(default=None, compare=False, repr=False)
    _table_labels: tuple = field(default=(), compare=False, repr=False)
    # The counters' response M, or None behind lossless counters.
    _response: np.ndarray = field(default=None, compare=False, repr=False)
    # The correction label per (n, m).
    _labels: np.ndarray = field(default=None, compare=False, repr=False)
    # Builds the probabilities at the rejected counts, or None when _tables has them.
    _rejected: Callable = field(default=None, compare=False, repr=False)

    @property
    def degenerate(self) -> bool:
        """True when no accepted outcome has weight, so there is no average fidelity."""
        return self.average_fidelity is None

    @cached_property
    def _outcome_tables(self) -> tuple:
        """(probabilities, fidelities) per (n, m), NaN where there is no fidelity.

        Detector loss maps every table T to M T M^T. Every probability is
        clipped to [0, 1] and every fidelity, an overlap weight over its
        probability, clamped at 1, as rounding can leave them a few ulps
        outside.
        """
        tables = self._tables
        if self._response is not None:
            tables = self._response @ tables @ self._response.T
        probs = np.clip(tables[0], 0.0, 1.0)
        fids = np.full(probs.shape, np.nan)
        nonzero = probs != 0.0
        for label, table in zip(self._table_labels, tables[1:]):
            np.divide(table, probs, out=fids, where=(self._labels == label) & nonzero)
        return probs, np.minimum(fids, 1.0)

    @property
    def _probabilities(self) -> np.ndarray:
        return self._outcome_tables[0]

    @property
    def _fidelities(self) -> np.ndarray:
        return self._outcome_tables[1]

    @cached_property
    def _every_probability(self) -> np.ndarray:
        if self._rejected is None:
            return self._probabilities
        return np.where(self._labels == "none", self._rejected(), self._probabilities)

    @cached_property
    def outcomes(self) -> tuple:
        """One OutcomeRecord per (n, m), n-major."""
        probs, fids = self._every_probability.tolist(), self._fidelities.tolist()
        labels = self._labels.tolist()
        counts = range(len(labels))
        return tuple(
            _record(n, m, probs[n][m], labels[n][m], fids[n][m]) for n in counts for m in counts
        )

    def both_nonzero_weight(self) -> float:
        return float(self._every_probability[1:, 1:].sum())

    def outcome(self, n: int, m: int) -> OutcomeRecord:
        counts = range(len(self._labels))
        if n not in counts or m not in counts:
            raise KeyError((n, m))
        n, m = int(n), int(m)
        label = str(self._labels[n, m])
        probs = self._every_probability if label == "none" else self._probabilities
        return _record(n, m, float(probs[n, m]), label, float(self._fidelities[n, m]))


def _record(n, m, probability, label, fidelity):
    return OutcomeRecord(
        n, m, probability, label, label != "none", None if math.isnan(fidelity) else fidelity
    )


def _bells(amps: np.ndarray, eta1=1.0) -> np.ndarray:
    """Each state of the stack ``amps`` (..., d) split 50:50 with vacuum into a Bell pair.

    The pairs have axes (..., near, [env,] far). ``eta1`` is one source
    transmitivity per state, or one for all; one state is split at each eta1
    of an array, built once and broadcast. Both couplings are the vacuum-port
    gather of ``fock._loss_amplitudes``, out[..., p, e] = c[p, e] a[..., k[p, e]]
    on the last axis. Where any eta1 is below 1, each state first meets a
    vacuum environment mode at its own eta1 (exact zeros at env > 0 where
    eta1 = 1); where every eta1 is 1 no environment is added. The split is the
    gather at eta = 0.5, whose new axis is the far half.
    """
    amps, etas = np.broadcast_arrays(amps, np.expand_dims(eta1, -1))
    etas = etas[..., 0]
    d = np.shape(amps)[-1]
    k, c = _loss_amplitudes(d, 0.5)
    if not (etas < 1.0).any():
        return amps[..., k] * c
    cs = [_loss_amplitudes(d, float(eta))[1] for eta in etas.ravel()]
    lost = amps[..., k] * np.reshape(cs, etas.shape + (d, d))
    return np.swapaxes(np.swapaxes(lost, -1, -2)[..., k] * c, -3, -2)


# The sets of counts a run sums over: every accepted count, then the counts of each label.
_COUNT_SETS = ("accepted", "I", "X", "Z", "XZ")


@lru_cache(maxsize=4)
def _responses(eta2s: tuple, cutoff: int, parity: str):
    """(responses, weights): the counters over counts 0..cutoff at the transmitivities ``eta2s``.

    ``eta2s`` holds a row of eta2 values per circuit, or one row that every
    circuit shares, and a circuit gets one result per eta2 of its row.
    ``responses`` stacks a d x d response M per eta2 in that layout
    (``detector_response``, the identity at eta2 = 1), or is None when every
    row is (1.0,): lossless counters leave the tables as they are.
    ``weights[..., k, :, :]`` is the count weight W_S = M^T 1_S M of the set S
    = _COUNT_SETS[k] of counts under a resource of parity ``parity``, so that
    the sum of M T M^T over S is <T, W_S> (``_herald``). Each W is built from
    its own M alone; behind lossless counters it is the mask 1_S. The last few
    stacks are kept, so that sweeps that alternate, a contour and a diagonal,
    build each of theirs once.
    """
    sets = _label_table(cutoff + 1, parity)[1]
    if all(row == (1.0,) for row in eta2s):
        return None, sets[None, None]
    responses = np.array([[detector_response(cutoff, eta) for eta in row] for row in eta2s])
    weights = np.array([[m.T @ sets @ m for m in row] for row in responses])
    for table in (responses, weights):
        table.setflags(write=False)
    return responses, weights


@lru_cache(maxsize=64)
def _label_table(d: int, parity: str):
    """(labels, sets): the correction label of every (n, m) count, and the mask of each
    set of _COUNT_SETS over the counts, stacked as floats.
    """
    labels = np.array([[classify_outcome(n, m, parity)[1] for m in range(d)] for n in range(d)])
    sets = np.array([labels != "none", *(labels == label for label in _COUNT_SETS[1:])], float)
    for table in (labels, sets):
        table.setflags(write=False)
    return labels, sets


@lru_cache(maxsize=64)
def _by_count(d: int) -> np.ndarray:
    """The coupling of each count to the second port of the 50:50 beamsplitter.

    The beamsplitter takes q photons in its first port and l = s - q in its
    second to n and m = s - n in its counters through block s, whose
    amplitude is ``stack[s, n, q]`` of ``fock._beamsplitter_blocks(d, 0.5)``.
    ``by_count[n, m, l]`` is the entry that couples the count (n, m) to l
    photons in the second port, zero where q = n + m - l is no photon number.
    """
    stack = _beamsplitter_blocks(d, 0.5)
    n, m, l = np.indices((d, d, d))
    q = n + m - l
    by_count = np.where((0 <= q) & (q < d), stack[n + m, n, q.clip(0, d - 1)], 0.0)
    by_count.setflags(write=False)
    return by_count


@dataclass(frozen=True)
class _Counts:
    """A list of detector counts (n, m) to fill, and where the 50:50 blocks reach them.

    ``flat[k]`` is n d + m of count k, which sits at row n of block s = n + m.
    The Gram route reads the block rows ``rows``, one row of them per block of
    the slice ``blocks``, each as its flat index s d + n into the stack's rows;
    ``cells[k]`` is count k's place among them, flattened. The rank-one route
    reads the input at ``shifts[k, l]`` = n + m - l, the photon number that
    meets l photons of the second port at count k; below 0 or above d - 1 it
    is none.
    """

    flat: np.ndarray
    blocks: slice
    rows: np.ndarray
    cells: np.ndarray
    shifts: np.ndarray


def _count_list(d, flat, blocks, rows, cells) -> _Counts:
    shifts = (flat // d + flat % d)[:, None] - np.arange(d)
    for table in (flat, rows, cells, shifts):
        table.setflags(write=False)
    return _Counts(flat, blocks, rows, cells, shifts)


@lru_cache(maxsize=64)
def _edge_counts(d: int) -> _Counts:
    """The accepted counts (0, s) and (s, 0), s = 1 .. d - 1: rows 0 and s of block s.

    An accepted outcome has exactly one nonzero count, so lossless counters
    need no other count.
    """
    s = np.arange(1, d)[:, None]
    n = np.hstack([np.zeros_like(s), s])
    return _count_list(d, (n * (d - 1) + s).ravel(), slice(1, d), s * d + n, np.arange(2 * d - 2))


@lru_cache(maxsize=64)
def _rejected_counts(d: int) -> _Counts:
    """Every other count, (0, 0) and both counts nonzero, read from every row of every block."""
    n, m = np.indices((d, d))
    rejected = ((n == 0) == (m == 0)).ravel()
    s = np.arange(2 * d - 1)[:, None]
    cells = ((n + m) * d + n).ravel()[rejected]
    rows = s * d + np.arange(d)
    return _count_list(d, np.flatnonzero(rejected), slice(0, 2 * d - 1), rows, cells)


def _tables(count_lists, left, pair, target=None, z_target=None):
    """(tables, labels): the outcome tables of lossless counters, over the (n, m) counts.

    Every array has a leading batch axis of circuits. The circuit's one full
    beamsplitter mixes the last axis q of ``left``, the input (teleporter) or
    phi's Bell pair (swapper), with the near half l of the resource's Bell
    pair ``pair`` (axes near, [env,] far), so the counters see
    amp[n, m, A, env, f] = sum_q B_s[n, q] left[A, q] pair[s - q, env, f],
    with s = n + m and B_s the 50:50 blocks. That joint array is never built.

    ``tables[:, 0]`` is the probability table, sum |amp|^2 over A, env and f:
    sum_{q, q'} B_s[n, q] B_s[n, q'] Re(G1[q, q'] G2[s - q, s - q']), with
    the Gram matrices G1 = left^T left* and G2 = pair pair^dagger over the
    near half, which sums over the environment. A ``left`` of one row (the
    teleporter) has G1 of rank one; it is folded into the blocks by count
    instead, which is cheaper. Each further table is the overlap table of
    the label at the same place in ``labels``, |sum_{A, f} target*[A, f]
    amp[n, m, A, env, f]|^2 summed over env; X and XZ targets carry the X
    correction's pi phase, a sign along the far half f. ``target`` and
    ``z_target`` are arrays over the outputs, compared against the no-Z and
    the Z-type outcomes; None gives those no table.

    Only the counts of the lists ``count_lists`` are filled, the rest are 0,
    and each list is filled by its own contractions, so a count's value does
    not depend on the other lists or on the other circuits of the batch. The
    accepted counts alone cost O(d^3) time per circuit and every count O(d^4);
    memory is O(d^3). The tables serve every detector transmitivity.
    """
    b, d = len(pair), pair.shape[1]
    stack, by_count = _beamsplitter_blocks(d, 0.5), _by_count(d)
    # real states, every kind but a complex superposition, run in float
    left, pair = (a if a.imag.any() else a.real for a in (left.reshape(b, -1, d), pair))
    near = pair.reshape(b, d, -1)
    g2 = near @ near.conj().swapaxes(1, 2)
    targets, labels = _targets(target, z_target, d)
    far = pair.reshape(b, d, -1, d)
    env = far.shape[2]
    if left.shape[1] == 1:
        # the input between d - 1 zeros, read at n + m - l: a shift below 0 wraps into the zeros
        padded = np.zeros((b, 2 * d - 1), left.dtype)
        padded[:, :d] = left[:, 0]
        if targets is not None:
            # sum_f pair[l, env, f] target*[t, f]
            outputs = (far.reshape(b, -1, d) @ targets[:, :, 0].conj().swapaxes(1, 2))
            outputs = outputs.reshape(b, d, -1)

        def fill(counts):
            folded = by_count.reshape(d * d, d)[counts.flat] * padded[:, counts.shifts]
            product = folded @ g2
            # Re sum_l product[k, l] folded*[k, l], from views of the two parts
            probs = (product.real * folded.real).sum(axis=2)
            if np.iscomplexobj(folded):
                probs += (product.imag * folded.imag).sum(axis=2)
            if targets is None:
                return probs, None
            overlap = folded @ outputs
            return probs, (np.abs(overlap) ** 2).reshape(b, len(counts.flat), env, -1).sum(axis=2)
    else:
        # g2[s - q, s - q']: g2 reversed between d - 1 zeros each side, read at
        # (2d - 2 - s + q, 2d - 2 - s + q'), a strided view over (2d - 2 - s, q, q')
        padded = np.zeros((b, 3 * d - 2, 3 * d - 2), g2.dtype)
        padded[:, d - 1 : 2 * d - 1, d - 1 : 2 * d - 1] = g2[:, ::-1, ::-1]
        batch, rows, cols = padded.strides
        strides = (batch, rows + cols, rows, cols)
        shifted = as_strided(padded, (b, 2 * d - 1, d, d), strides, writeable=False)[:, ::-1]
        g1 = left.swapaxes(1, 2) @ left.conj()
        if targets is not None:
            # h[q, l, t, env] = sum_{A, f} left[A, q] target*[t, A, f] pair[l, env, f]
            n_t = len(labels)
            h = left.swapaxes(1, 2) @ targets.conj().swapaxes(1, 2).reshape(b, left.shape[1], -1)
            h = h.reshape(b, -1, d) @ far.reshape(b, -1, d).swapaxes(1, 2)
            h = np.ascontiguousarray(h.reshape(b, d, n_t, d, env).transpose(0, 1, 3, 2, 4))
            # h[q, s - q] sits at the flat (q, l) index s + q (d - 1): a strided view
            # over (s, q). Off block s it reads other cells of h, which the stack's
            # zeros cancel.
            cell = h.strides[2]
            strides = (h.strides[0], cell, h.strides[1] - cell, h.itemsize)
            diagonals = as_strided(h, (b, 2 * d - 1, d, n_t * env), strides, writeable=False)

        def fill(counts):
            block_rows = stack.reshape(-1, d)[counts.rows]
            kernel = (g1[:, None] * shifted[:, counts.blocks]).real
            probs = ((block_rows @ kernel) * block_rows).sum(axis=3).reshape(b, -1)[:, counts.cells]
            if targets is None:
                return probs, None
            overlap = block_rows @ diagonals[:, counts.blocks]
            weights = (np.abs(overlap) ** 2).reshape(b, -1, n_t, env).sum(axis=3)
            return probs, weights[:, counts.cells]

    # each fill gives (probabilities, weights) over (circuit, count[, label])
    tables = np.zeros((b, 1 + len(labels), d * d))
    for counts in count_lists:
        probs, weights = fill(counts)
        tables[:, 0, counts.flat] = probs
        if weights is not None:
            tables[:, 1:, counts.flat] = weights.transpose(0, 2, 1)
    return tables.reshape(b, -1, d, d), labels


def _targets(target, z_target, d):
    """(targets, labels): each circuit's comparison targets over (A, f), stacked, and the labels."""
    if target is None:
        return None, ()
    sign = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    targets = {"I": target, "X": sign * target}
    if z_target is not None:
        targets.update(Z=z_target, XZ=sign * z_target)
    stacked = np.stack(list(targets.values()), axis=1)
    return stacked.reshape(len(target), len(targets), -1, d), tuple(targets)


def _herald(tables, labels, weights, include_z=False):
    """(success, average) of every circuit of ``tables`` at every eta2 of its counters.

    Both are arrays over (circuit, eta2), the average NaN for a degenerate
    run, one with no accepted weight. Detector loss maps a table T to
    M T M^T, and a sum of that over a set S of counts is linear in T:
    <T, W_S>, with the count weight W_S = M^T 1_S M of ``weights``
    (``_responses``: one row that every circuit shares, or one per circuit).
    So the success probability is <T_0, W_accepted>, and the average fidelity
    is sum_l <T_l, W_l> / sum_l <T_0, W_l> over the averaged labels l, those
    with no Z unless ``include_z``: T_0 is the probability table and T_l the
    overlap table of label l of ``labels``. Behind lossless counters W_S is
    the mask of S, so lossless and lossy runs take this one route, and no
    outcome table is built. Each sum runs over one contiguous row of
    elementwise products, so a cell's bits depend on neither its batch nor
    the other eta2 of its row. The success probability is clipped to [0, 1]
    and the average at 1 after the sums, as rounding can leave them a few
    ulps outside.
    """
    b, d = len(tables), tables.shape[-1]
    averaged = [k for k, label in enumerate(labels) if include_z or "Z" not in label]
    t = tables.reshape(b, 1, -1, d * d)
    w = weights.reshape(*weights.shape[:2], -1, d * d)
    sets = [_COUNT_SETS.index(labels[k]) for k in averaged]
    w_averaged = w[:, :, sets].reshape(*w.shape[:2], -1)
    success = (t[:, :, 0] * w[:, :, 0]).sum(axis=2)
    weight = (np.tile(t[:, :, 0], len(averaged)) * w_averaged).sum(axis=2)
    overlap = (t[:, :, [1 + k for k in averaged]].reshape(b, 1, -1) * w_averaged).sum(axis=2)
    average = np.full(weight.shape, np.nan)
    np.divide(overlap, weight, out=average, where=weight > 0.0)
    return np.clip(success, 0.0, 1.0), np.minimum(average, 1.0)


def _heralded(left, pair, target, z_target, counters, parity, include_z=False, summaries=True):
    """The runs of a batch of circuits at every eta2 of ``counters``, a pair of ``_responses``.

    The circuits share a resource parity and a set of targets (``_tables``).
    Lossless counters fill only the accepted counts, and each summary builds
    its rejected ones from the same factors when it first reads one; lossy
    counters fill every count, since detector loss mixes them. Returns one
    list of summaries per circuit, one summary per eta2, or with
    ``summaries`` false ``_herald``'s arrays alone.
    """
    responses, weights = counters
    d = pair.shape[1]
    lossless = responses is None
    count_lists = (_edge_counts(d),) if lossless else (_edge_counts(d), _rejected_counts(d))
    tables, labels = _tables(count_lists, left, pair, target, z_target)
    success, average = _herald(tables, labels, weights, include_z)
    if not summaries:
        return success, average
    label_table = _label_table(d, parity)[0]
    runs = []
    for i, (p_row, f_row) in enumerate(zip(success.tolist(), average.tolist())):
        rejected = partial(_rejected_probabilities, left[i], pair[i]) if lossless else None
        row = [None] * len(p_row) if lossless else responses[i % len(responses)]
        runs.append([
            ProtocolSummary(
                p, None if math.isnan(f) else f, tables[i], labels, m, label_table, rejected
            )
            for p, f, m in zip(p_row, f_row, row)
        ])
    return runs


def _rejected_probabilities(left, pair):
    """One circuit's probabilities at its rejected counts, 0 elsewhere, clipped to [0, 1]."""
    [[probs]], _ = _tables((_rejected_counts(len(pair)),), left[None], pair[None])
    return np.clip(probs, 0.0, 1.0)


def build_teleporter_input(
    input_state: FockVector, resource: FockVector, cutoff: int
) -> MultiModeState:
    """Three-mode state just before the photon-number measurement.

    tensor(input_a, resource_b, vacuum_c), 50:50 beamsplitter on (b, c),
    then 50:50 on (a, b).
    """
    if input_state.cutoff != cutoff or resource.cutoff != cutoff:
        raise ValueError("input and resource must be built at the working cutoff")
    state = tensor([input_state, resource, fock_basis_state(0, cutoff)])
    return apply_beamsplitter(apply_beamsplitter(state, 1, 2, 0.5), 0, 1, 0.5)


def classify_outcome(n: int, m: int, parity: str = "odd"):
    """(accepted, correction label) for detector counts under a resource parity.

    Acceptance requires exactly one nonzero count. With an odd-parity
    resource, odd counts map to I/X and even counts to Z/XZ; with an
    even-parity resource the parities swap.
    """
    if (n == 0) == (m == 0):
        return False, "none"
    k = n if m == 0 else m
    needs_z = (k % 2 == 0) if parity == "odd" else (k % 2 == 1)
    if m == 0:
        return True, "Z" if needs_z else "I"
    return True, "XZ" if needs_z else "X"


def apply_correction(state: FockVector, n: int, m: int, parity: str = "odd"):
    """Apply the physical correction for an accepted outcome.

    I leaves the state alone; X is a pi phase shift. Z and XZ outcomes get
    only the X part applied here (the Z is never physically applied; fidelity
    for those outcomes is taken against a Z-flipped target instead).
    Raises on rejected outcomes.
    """
    accepted, label = classify_outcome(n, m, parity)
    if not accepted:
        raise ValueError(f"outcome (n={n}, m={m}) is not an accepted outcome")
    if "X" in label:
        state = state.phase_shifted(math.pi)
    return state, label


def enumerate_outcomes(state3: MultiModeState, parity: str = "odd"):
    """All (n, m) outcome records for detectors on modes a and b (no fidelities)."""
    if state3.num_modes != 3:
        raise ValueError("expected a 3-mode teleporter state")
    probs = np.sum(np.abs(state3.amps) ** 2, axis=2)
    labels = _label_table(len(probs), parity)[0]
    return list(ProtocolSummary(None, None, probs[None], _labels=labels).outcomes)


def _z_targets(spec, alphas, cutoff):
    """The Z-flipped qubit of each input, as rows, or None for a squeezed input.

    The ideal Z flips the sign of nu (``QubitSuperposition.z_flipped``). At
    alpha = 0 with mu = nu (the even cat) it is |1>, the limit ``_qubit_rows`` takes.
    """
    qubit = spec.qubit()
    return None if qubit is None else _qubit_rows(qubit.mu, -qubit.nu, alphas, cutoff)[0]


# A batch of circuits holds at most this many bytes, as ``_circuit_bytes``
# estimates them, or one circuit; every default grid of the CLI is one batch.
BATCH_BYTES = 4_500_000


def _circuit_bytes(cutoff: int, swap: bool, lossy: bool, n_eta2: int = 1) -> int:
    """The bytes one circuit adds to its batch's allocation peak, summaries included.

    A fit to tracemalloc peaks over cutoffs 3 to 30: a summary and its tables
    per eta2, plus the swapper's Gram kernel, or every count behind lossy counters.
    """
    d = cutoff + 1
    summaries = n_eta2 * (64 * d * d + 320)
    if lossy:
        return max((225 if swap else 100) * d**3, summaries)
    return (4 * (2 * d - 1) + 165 if swap else 56) * d * d + summaries


def _batches(count: int, circuit_bytes: int, pieces: int = 1) -> list:
    """Contiguous slices of ``count`` circuits within BATCH_BYTES, or of one; ``pieces`` or more."""
    size = max(1, min(BATCH_BYTES // circuit_bytes, -(-count // pieces)))
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def _batch(
    left, resources, kind, eta1s=1.0, eta2s=((1.0,),), target=None, z_target=None,
    include_z=False, summaries=True,
):
    """One list of summaries per circuit, one per eta2 of its counters, batch by batch.

    Circuit i mixes row i of ``left`` with the Bell pair of resource row i
    mod len(``resources``), of kind ``kind``, at its eta1 of ``eta1s`` (or one
    for all), in front of counters at its row of ``eta2s``: one row that every
    circuit shares, or one row per circuit (``_responses``). It compares with
    row i of ``target`` and of ``z_target`` (``_z_targets``), where given.
    Each batch builds its Bell pairs in one ``_bells`` call and heralds
    them in one ``_heralded`` call.
    With ``summaries`` false it returns ``_herald``'s (success, average)
    arrays over (circuit, eta2) instead, and builds no summary.
    """
    eta1s = np.asarray(eta1s, dtype=float)
    parity = resource_parity(kind)
    responses, weights = _responses(eta2s, len(resources[0]) - 1, parity)
    n_eta2 = weights.shape[1]
    lossy = responses is not None or bool((eta1s < 1.0).any())
    circuit = _circuit_bytes(len(resources[0]) - 1, left.ndim == 3, lossy, n_eta2)
    runs = []
    for piece in _batches(len(left), circuit):
        index = np.arange(len(left))[piece]
        pairs = _bells(resources[index % len(resources)], eta1s[piece] if eta1s.ndim else eta1s)
        t, z = (None if a is None else a[piece] for a in (target, z_target))
        counters = [a if a is None or len(a) == 1 else a[piece] for a in (responses, weights)]
        runs.append(_heralded(left[piece], pairs, t, z, counters, parity, include_z, summaries))
    if summaries:
        return [run for batch in runs for run in batch]
    empty = np.empty((0, n_eta2))
    return tuple(np.concatenate([empty] + [batch[k] for batch in runs]) for k in (0, 1))


def _runs(
    protocol, spec, alphas, resource_kind, betas, cutoff, eta1s=1.0, eta2s=((1.0,),),
    include_z=False, summaries=True,
):
    """Summaries per input of ``spec``'s family at each amplitude of ``alphas``, one per eta2.

    'teleport' teleports each input, its own target, with the Z-flipped input
    as Z target (``_z_targets``); 'entswap' swaps each phi, whose Bell pair
    enters the circuit and is the target, with no Z target. Only the kind, mu
    and nu of ``spec`` are read. Each input and target is matched to its lossy
    resource: built at sqrt(eta1) * alpha, exactly alpha at eta1 = 1, for one
    eta1 of ``eta1s`` per input or one for all. The resources, of kind
    ``resource_kind``, are at one amplitude of ``betas`` per input or one for
    all; ``eta2s`` and ``summaries`` are ``_batch``'s. Each is one batched build.
    """
    alphas = np.sqrt(eta1s) * np.asarray(alphas, dtype=float)
    if spec.kind == "superposition":
        qubit = spec.qubit()
        inputs = _qubit_rows(qubit.mu, qubit.nu, alphas, cutoff)[0]
    else:
        inputs = _state_kind(spec.kind, "input").rows(alphas, cutoff)[0]
    if protocol == "teleport":
        z_target = _z_targets(spec, alphas, cutoff)
    else:
        inputs, z_target = _bells(inputs), None
    resources = _state_kind(resource_kind, "resource").rows(betas, cutoff)[0]
    return _batch(
        inputs, resources, resource_kind, eta1s, eta2s, inputs, z_target, include_z, summaries
    )


def _betas(beta_grid) -> list:
    betas = list(beta_grid)
    if not betas:
        raise ValueError("beta grid must be nonempty")
    return betas


def run_teleportation(
    input_spec: InputSpec,
    resource_spec: ResourceSpec,
    cutoff: int = 15,
    include_z_outcomes: bool = False,
) -> ProtocolSummary:
    """Full teleportation run: outcome table, success probability, fidelity.

    Per-outcome fidelity compares the corrected conditional output against
    the input state (Z/XZ outcomes against the Z-flipped input, where the
    input has an exact qubit decomposition). The average covers the no-Z
    outcomes; pass ``include_z_outcomes=True`` to fold Z/XZ outcomes into the
    average as a diagnostic. This is the one-circuit case of
    ``teleportation_sweep``'s batch.
    """
    [[summary]] = _runs(
        "teleport", input_spec, [input_spec.alpha], resource_spec.kind, [resource_spec.beta],
        cutoff, include_z=include_z_outcomes,
    )
    return summary


def teleportation_sweep(
    beta_grid,
    input_kind: str = "squeezed-single-photon",
    resource_kind: str = "squeezed-single-photon",
    cutoff: int = 15,
) -> list:
    """``run_teleportation`` over a beta grid, every beta heralded in one batch.

    At each beta the input of kind ``input_kind`` has amplitude alpha = beta /
    sqrt(2), the resource of kind ``resource_kind`` amplitude beta, and the
    average covers the no-Z outcomes. Returns one ProtocolSummary per beta,
    each equal, bit for bit, to the run of its beta alone.
    """
    betas = _betas(beta_grid)
    alphas = np.array(betas, dtype=float) / math.sqrt(2.0)
    family = InputSpec(input_kind, None)
    runs = _runs("teleport", family, alphas, resource_kind, betas, cutoff)
    return [summary for [summary] in runs]


def per_outcome_fidelity(
    input_spec: InputSpec,
    resource_spec: ResourceSpec,
    m: int,
    cutoff: int = 15,
) -> float:
    """Fidelity conditioned on the single outcome (n=0, m).

    Returns None when the outcome has zero probability or no comparison
    target exists (Z-type outcome without a qubit decomposition).
    """
    if not 1 <= m <= cutoff:
        raise ValueError(f"m must be in [1, cutoff={cutoff}], got {m}")
    summary = run_teleportation(input_spec, resource_spec, cutoff)
    return summary.outcome(0, m).fidelity


def success_probability_sweep(
    beta_grid,
    input_families=None,
    resource_kinds=("ideal-odd-cat", "squeezed-single-photon"),
    cutoff: int = 15,
):
    """Success probability per (beta, input family, resource kind).

    Input families are (mu, nu) superpositions at alpha = beta / sqrt(2);
    defaults to the four standard families in INPUT_FAMILIES. Returns rows
    of (beta, family_name, resource_kind, p_success), each the
    ``success_probability`` of ``run_teleportation``. One batched build
    gives every family at every beta, and each resource kind is one batched
    build, heralded over every beta and family with no target.
    """
    betas = _betas(beta_grid)
    families = dict(INPUT_FAMILIES if input_families is None else input_families)
    resources = [_state_kind(kind, "resource").rows(betas, cutoff)[0] for kind in resource_kinds]
    if not families:
        return []
    # family-major rows: row j * len(betas) + i is family j at beta i
    mus, nus = np.array(list(families.values())).T
    alphas = np.array(betas, dtype=float) / math.sqrt(2.0)
    left = _qubit_rows(mus.repeat(len(betas)), nus.repeat(len(betas)), alphas, cutoff)[0]
    p_success = [
        _batch(left, rows, kind, summaries=False)[0][:, 0].tolist()
        for kind, rows in zip(resource_kinds, resources)
    ]
    return [
        (float(beta), name, kind, p[j * len(betas) + i])
        for i, beta in enumerate(betas)
        for j, name in enumerate(families)
        for kind, p in zip(resource_kinds, p_success)
    ]


def run_entanglement_swap(
    phi_spec: InputSpec,
    resource_spec: ResourceSpec,
    cutoff: int = 15,
) -> ProtocolSummary:
    """Entanglement swapping: teleport one half of a Bell pair.

    |phi> of amplitude beta is split with vacuum into a Bell pair on modes
    (a, b); the resource (same amplitude beta) is split into a Bell pair on
    (c, d); the teleporter beamsplitter mixes (b, c) and photon numbers
    (n, m) are counted there. Per-outcome fidelity compares the corrected
    conditional state on (a, d) against the reference Bell pair on (a, b),
    modes matched by position. Z-type outcomes carry no fidelity. This is
    the one-circuit case of ``entanglement_swap_sweep``'s batch.
    """
    [[summary]] = _runs(
        "entswap", phi_spec, [phi_spec.alpha], resource_spec.kind, [resource_spec.beta], cutoff
    )
    return summary


def entanglement_swap_sweep(
    beta_grid,
    phi_kind: str = "squeezed-single-photon",
    resource_kind: str = "squeezed-single-photon",
    cutoff: int = 15,
) -> list:
    """``run_entanglement_swap`` over a beta grid, every beta heralded in one batch.

    At each beta phi of kind ``phi_kind`` and the resource of kind
    ``resource_kind`` both have amplitude beta. Returns one ProtocolSummary
    per beta, each equal, bit for bit, to the run of its beta alone.
    """
    betas = _betas(beta_grid)
    family = InputSpec(phi_kind, None)
    runs = _runs("entswap", family, betas, resource_kind, betas, cutoff)
    return [summary for [summary] in runs]
