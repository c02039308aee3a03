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
included for diagnostics, in which case the comparison target absorbs an
ideal Z (sign flip of the |-alpha> component).

Both protocols, lossless and lossy, run through one engine: the prepared
single-mode vectors go through the protocol's circuit, and every outcome is
heralded at once from one probability table and one overlap table per
correction label. Loss (see ``cskit.loss``) couples a mode to a vacuum
environment mode and is applied only for eta < 1, so a lossless run is the
eta1 = eta2 = 1 case of the same engine, with no environment modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .catstates import cat_state, r_opt, r_opt_v, squeezed_single_photon, squeezed_vacuum
from .fock import (
    FockVector,
    MultiModeState,
    apply_beamsplitter,
    attenuate,
    coherent_state,
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
    "success_probability_sweep",
    "run_entanglement_swap",
]


@dataclass(frozen=True)
class StateKind:
    """A named single-mode state family, built at an amplitude and a cutoff.

    ``roles`` says where the kind is offered: 'input' (InputSpec), 'resource'
    (ResourceSpec) and 'wigner' (the CLI's Wigner views). ``build(amplitude,
    cutoff, r=None)`` returns the FockVector; squeezed kinds use the
    closed-form optimal squeezing for the amplitude unless ``r`` is given, and
    the other kinds ignore ``r``. ``parity`` is the photon-number parity, and
    ``qubit`` the exact coherent-qubit coefficients (mu, nu), or None.
    """

    roles: tuple
    build: Callable
    parity: str = None
    qubit: tuple = None


def _number(n):
    return lambda amplitude, cutoff, r=None: fock_basis_state(n, cutoff)


def _cat(parity):
    return lambda amplitude, cutoff, r=None: cat_state(amplitude, parity, cutoff)


def _squeezed(state, r_best):
    return lambda amplitude, cutoff, r=None: state(r_best(amplitude) if r is None else r, cutoff)


_SQ1 = _squeezed(squeezed_single_photon, r_opt)
_SQ0 = _squeezed(squeezed_vacuum, r_opt_v)

STATE_KINDS = {
    "vacuum": StateKind(("wigner",), _number(0), "even"),
    "single-photon": StateKind(("wigner",), _number(1), "odd"),
    "coherent": StateKind(
        ("input", "wigner"), lambda amplitude, cutoff, r=None: coherent_state(amplitude, cutoff),
        None, (1.0, 0.0),
    ),
    "odd-cat": StateKind(("input", "wigner"), _cat("odd"), "odd", (1.0, -1.0)),
    "even-cat": StateKind(("input", "wigner"), _cat("even"), "even", (1.0, 1.0)),
    "ideal-odd-cat": StateKind(("resource",), _cat("odd"), "odd", (1.0, -1.0)),
    "ideal-even-cat": StateKind(("resource",), _cat("even"), "even", (1.0, 1.0)),
    "squeezed-single-photon": StateKind(("input", "resource"), _SQ1, "odd"),
    "squeezed-vacuum": StateKind(("input", "resource"), _SQ0, "even"),
    "sq1": StateKind(("wigner",), _SQ1, "odd"),
    "sq0": StateKind(("wigner",), _SQ0, "even"),
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
        plus = coherent_state(self.alpha, cutoff)
        minus = coherent_state(-self.alpha, cutoff)
        amps = self.mu * plus.amps + self.nu * minus.amps
        return FockVector(cutoff, amps).normalized()

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
    """Aggregate of one protocol run.

    ``average_fidelity`` is probability-weighted over the accepted outcomes
    that need no Z correction (the odd detector counts for an odd-parity
    resource). ``degenerate`` flags a run with zero accepted weight.
    """

    success_probability: float
    average_fidelity: float
    outcomes: tuple
    config: dict = field(default_factory=dict)
    degenerate: bool = False

    def both_nonzero_weight(self) -> float:
        return sum(o.probability for o in self.outcomes if o.n > 0 and o.m > 0)

    def outcome(self, n: int, m: int) -> OutcomeRecord:
        for o in self.outcomes:
            if o.n == n and o.m == m:
                return o
        raise KeyError((n, m))


@dataclass(frozen=True)
class _Circuit:
    """Mode layout of a protocol circuit.

    Source loss acts on ``source`` first, then the 50:50 beamsplitters in
    ``splits`` run in order, then detector loss acts on each of the two
    ``detectors``, which count (n, m). The modes left after the detectors are
    the output modes in mode order, followed by the environment modes; the X
    correction is a pi phase on output ``x_output``.
    """

    source: int
    splits: tuple
    detectors: tuple
    x_output: int


# Modes (a, b, c): input, resource, vacuum; the output is c.
_TELEPORTER = _Circuit(source=1, splits=((1, 2), (0, 1)), detectors=(0, 1), x_output=0)
# Modes (a, b, c, d): phi, vacuum, resource, vacuum; the output is (a, d).
_SWAPPER = _Circuit(source=2, splits=((0, 1), (2, 3), (1, 2)), detectors=(1, 2), x_output=1)


def _prepare(vectors, circuit: _Circuit, loss: LossConfig) -> MultiModeState:
    """The state just before the photon-number measurement.

    Each loss appends one environment mode, in the order source, detector n,
    detector m; at eta = 1 none is added, as attenuation would leave the
    state times the environment vacuum.
    """
    st = tensor(vectors)
    if loss.eta1 < 1.0:
        st = attenuate(st, circuit.source, loss.eta1)
    for i, j in circuit.splits:
        st = apply_beamsplitter(st, i, j, 0.5)
    if loss.eta2 < 1.0:
        for mode in circuit.detectors:
            st = attenuate(st, mode, loss.eta2)
    return st


def _average(pairs):
    """Probability-weighted mean over (probability, fidelity) pairs."""
    weight = sum(p for p, _ in pairs)
    if weight == 0.0:
        return None
    return sum(p * f for p, f in pairs) / weight


def _herald(state, circuit, parity, target=None, z_target=None, include_z=False, config=None):
    """Every (n, m) outcome of ``state``, heralded at once.

    ``target`` and ``z_target`` are amplitude arrays over the output modes,
    compared against the no-Z and the Z-type outcomes; None gives those
    outcomes no fidelity. The probability table sums |amps|^2 over all
    non-detector axes. Each correction label's overlap table contracts its
    target (carrying the X correction's pi phase for X and XZ) with the
    output axes; the fidelity of an outcome sums |overlap|^2 over the
    environment axes and divides by the outcome's probability.
    """
    amps = np.moveaxis(state.amps, circuit.detectors, (0, 1))
    d = amps.shape[0]
    probs = np.sum(np.abs(amps) ** 2, axis=tuple(range(2, amps.ndim))).tolist()

    weights = {}
    if target is not None:
        shape = [1] * target.ndim
        shape[circuit.x_output] = d
        sign = np.where(np.arange(d) % 2 == 0, 1.0, -1.0).reshape(shape)
        targets = {"I": target, "X": sign * target}
        if z_target is not None:
            targets.update(Z=z_target, XZ=sign * z_target)
        outputs = range(target.ndim)
        overlap = np.tensordot(
            np.stack(list(targets.values())).conj(), amps,
            axes=([k + 1 for k in outputs], [k + 2 for k in outputs]),
        )
        tables = np.sum(np.abs(overlap) ** 2, axis=tuple(range(3, overlap.ndim)))
        weights = dict(zip(targets, tables.tolist()))

    records = []
    averaged = []
    success = 0.0
    for n in range(d):
        for m in range(d):
            p = probs[n][m]
            accepted, label = classify_outcome(n, m, parity)
            if not accepted or p == 0.0:
                records.append(OutcomeRecord(n, m, p, label, accepted))
                continue
            success += p
            fid = weights[label][n][m] / p if label in weights else None
            records.append(OutcomeRecord(n, m, p, label, accepted, fid))
            if fid is not None and ("Z" not in label or include_z):
                averaged.append((p, fid))

    avg = _average(averaged)
    return ProtocolSummary(success, avg, tuple(records), config or {}, degenerate=avg is None)


def build_teleporter_input(
    input_state: FockVector, resource: FockVector, cutoff: int
) -> MultiModeState:
    """Three-mode state just before the photon-number measurement.

    tensor(input_a, resource_b, vacuum_c), 50:50 beamsplitter on (b, c),
    then 50:50 on (a, b).
    """
    if input_state.cutoff != cutoff or resource.cutoff != cutoff:
        raise ValueError("input and resource must be built at the working cutoff")
    vectors = [input_state, resource, fock_basis_state(0, cutoff)]
    return _prepare(vectors, _TELEPORTER, LossConfig())


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
    return list(_herald(state3, _TELEPORTER, parity).outcomes)


def _teleport(input_spec, resource_spec, loss, cutoff, include_z, config):
    """Teleportation of ``input_spec`` as given: the caller matches its amplitude."""
    target = input_spec.to_fock(cutoff)
    vectors = [target, resource_spec.to_fock(cutoff), fock_basis_state(0, cutoff)]
    qubit = input_spec.qubit()
    z_target = None if qubit is None else qubit.z_flipped().to_fock(cutoff).amps
    return _herald(
        _prepare(vectors, _TELEPORTER, loss), _TELEPORTER, resource_spec.parity,
        target.amps, z_target, include_z, config,
    )


def _bell_pair(phi: FockVector, cutoff: int) -> MultiModeState:
    """Split phi on a 50:50 beamsplitter with vacuum: the two-mode Bell state."""
    st = tensor([phi, fock_basis_state(0, cutoff)])
    return apply_beamsplitter(st, 0, 1, 0.5)


def _swap(phi_spec, resource_spec, loss, cutoff, config):
    """Entanglement swapping of ``phi_spec`` as given: the caller matches amplitudes."""
    phi = phi_spec.to_fock(cutoff)
    vac = fock_basis_state(0, cutoff)
    state = _prepare([phi, vac, resource_spec.to_fock(cutoff), vac], _SWAPPER, loss)
    reference = _bell_pair(phi, cutoff)
    return _herald(state, _SWAPPER, resource_spec.parity, reference.amps, config=config)


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
    average as a diagnostic.
    """
    config = {
        "protocol": "teleportation",
        "input": input_spec,
        "resource": resource_spec,
        "cutoff": cutoff,
        "include_z_outcomes": include_z_outcomes,
    }
    return _teleport(input_spec, resource_spec, LossConfig(), cutoff, include_z_outcomes, config)


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
    of (beta, family_name, resource_kind, p_success).
    """
    betas = list(beta_grid)
    if not betas:
        raise ValueError("beta grid must be nonempty")
    families = dict(INPUT_FAMILIES if input_families is None else input_families)
    rows = []
    for beta in betas:
        alpha = beta / math.sqrt(2.0)
        for name, (mu, nu) in families.items():
            spec = InputSpec("superposition", alpha, mu, nu)
            for kind in resource_kinds:
                summary = run_teleportation(spec, ResourceSpec(kind, beta), cutoff)
                rows.append((float(beta), name, kind, summary.success_probability))
    return rows


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
    modes matched by position. Z-type outcomes carry no fidelity.
    """
    config = {
        "protocol": "entanglement-swap",
        "phi": phi_spec,
        "resource": resource_spec,
        "cutoff": cutoff,
    }
    return _swap(phi_spec, resource_spec, LossConfig(), cutoff, config)
