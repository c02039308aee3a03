"""Cat states and their squeezed-state approximations.

Even/odd cat states N±(|beta> ± |-beta>), squeezed vacuum and squeezed single
photon in the photon-number basis, plus the closed-form squeezing parameters
that maximize the approximation fidelity at a given cat amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    FockVector, TruncationError, _check_weight, _renormalized, fidelity, fock_basis_state,
)

__all__ = [
    "cat_state",
    "squeezed_vacuum",
    "squeezed_single_photon",
    "r_opt",
    "r_opt_v",
    "annihilate",
    "approximation_fidelity_sweep",
    "SweepRow",
]


def _check_beta(beta: float, cutoff: int):
    if beta < 0:
        raise ValueError("beta must be >= 0")
    # beta > cutoff implies beta^2 > cutoff / 3, and keeps beta**2 from overflowing
    if beta > cutoff or beta**2 > cutoff / 3:
        raise TruncationError(
            f"cutoff {cutoff} too small for beta={beta:.4g} (need beta^2 <= cutoff/3)"
        )
    _check_weight(beta, "beta")


def _every_other(cutoff, offset, first, ratio):
    """Amplitudes over 0..cutoff that are zero but at offset, offset + 2, ...

    The one at ``offset`` is ``first``, and the one at n is the one at n - 2
    times ``ratio(n)``. A term ratio has no power or factorial to overflow,
    at any cutoff.
    """
    amps = np.zeros(cutoff + 1, dtype=complex)
    for n in range(offset, cutoff + 1, 2):
        amps[n] = first
        first *= ratio(n + 2)
    return amps


def cat_state(beta: float, parity: str, cutoff: int) -> FockVector:
    """Cat state N±(|beta> ± |-beta>) with real amplitude beta >= 0.

    Built from the parity-pure Fock expansion, so the odd state is exactly
    |1> in the beta -> 0 limit (where the coherent form degenerates to 0/0).
    Renormalized over the truncated support; discarded weight in ``leakage``.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    _check_beta(beta, cutoff)
    # Where beta^2 is below the smallest normal float, the next term of the
    # expansion is too, and the limit is exact to double precision.
    if beta**2 < np.finfo(float).tiny:
        return fock_basis_state(0 if parity == "even" else 1, cutoff)
    offset = 0 if parity == "even" else 1
    if parity == "even":
        norm_sq = 2.0 * (1.0 + math.exp(-2.0 * beta**2))
    else:
        # 2 (1 - exp(-2 beta^2)) by expm1; the difference rounds to 0 below beta ~ 1e-8
        norm_sq = -2.0 * math.expm1(-2.0 * beta**2)
    first = 2.0 * math.exp(-(beta**2) / 2.0) / math.sqrt(norm_sq) * beta**offset
    amps = _every_other(cutoff, offset, first, lambda n: beta**2 / math.sqrt(n * (n - 1)))
    return _renormalized(cutoff, amps)


def _check_r(r: float, photons: int):
    """Refuse r < 0, and an r at which S_r|photons> has no weight a float can hold.

    The |photons> amplitude squares to 1 / cosh(r)^(2 photons + 1), which is
    at least exp(-(2 photons + 1) r). Where that bound is below the smallest
    normal float the state is refused, before cosh(r) can overflow or the
    kept weight underflow to 0.
    """
    if r < 0:
        raise ValueError("squeezing parameter r must be >= 0")
    if math.exp(-(2 * photons + 1) * r) < np.finfo(float).tiny:
        raise TruncationError(f"squeezing r={r:g} leaves S_r|{photons}> no representable weight")


def squeezed_vacuum(r: float, cutoff: int) -> FockVector:
    """Squeezed vacuum S_r|0>: even photon numbers only.

    amps_{2n} = (tanh r)^n sqrt((2n)!) / (sqrt(cosh r) 2^n n!), built by
    its term ratio tanh r sqrt((2n - 1) / 2n) and renormalized over the
    truncation.
    """
    _check_r(r, 0)
    if cutoff < 2 and r > 0:
        raise ValueError("cutoff must be >= 2 to hold a squeezed vacuum")
    t = math.tanh(r)
    amps = _every_other(cutoff, 0, math.cosh(r) ** -0.5, lambda n: t * math.sqrt((n - 1) / n))
    return _renormalized(cutoff, amps)


def squeezed_single_photon(r: float, cutoff: int) -> FockVector:
    """Squeezed single photon S_r|1>: odd photon numbers only.

    amps_{2n+1} = (tanh r)^n sqrt((2n+1)!) / ((cosh r)^{3/2} 2^n n!), built
    by its term ratio tanh r sqrt((2n + 1) / 2n) and renormalized over the
    truncation. Equals |1> at r = 0.
    """
    _check_r(r, 1)
    t = math.tanh(r)
    amps = _every_other(cutoff, 1, math.cosh(r) ** -1.5, lambda n: t * math.sqrt(n / (n - 1)))
    return _renormalized(cutoff, amps)


# Above this amplitude 4 beta^4 swamps the constant under each closed form's
# root to double precision, while beta**4 is still far from overflowing.
_LARGE_BETA = 1e50


def r_opt(beta: float) -> float:
    """Squeezing that maximizes F(S_r|1>, odd cat of amplitude beta).

    Closed form: ln sqrt(2 beta^2/3 + sqrt(9 + 4 beta^4)/3). Zero at beta=0.
    Above _LARGE_BETA, where the 9 is lost to rounding, it is ln(beta sqrt(4/3)),
    which keeps beta^4 from overflowing.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if beta > _LARGE_BETA:
        return math.log(beta) + math.log(4.0 / 3.0) / 2.0
    return math.log(math.sqrt(2.0 * beta**2 / 3.0 + math.sqrt(9.0 + 4.0 * beta**4) / 3.0))


def r_opt_v(beta: float) -> float:
    """Squeezing that maximizes F(S_r|0>, even cat of amplitude beta).

    Closed form: ln sqrt(2 beta^2 + sqrt(1 + 4 beta^4)), which is ln(2 beta)
    above _LARGE_BETA.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if beta > _LARGE_BETA:
        return math.log(2.0 * beta)
    return math.log(math.sqrt(2.0 * beta**2 + math.sqrt(1.0 + 4.0 * beta**4)))


def annihilate(vec: FockVector) -> FockVector:
    """Apply the annihilation operator and renormalize.

    Used to check that a photon-subtracted squeezed vacuum equals the
    squeezed single photon.
    """
    n = np.arange(1, vec.cutoff + 1)
    amps = np.zeros(vec.cutoff + 1, dtype=complex)
    amps[:-1] = np.sqrt(n) * vec.amps[1:]
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError("annihilation of the vacuum is the zero vector")
    return FockVector(vec.cutoff, amps / norm)


@dataclass(frozen=True)
class SweepRow:
    beta: float
    r: float
    fidelity: float


def approximation_fidelity_sweep(kind: str, beta_grid, cutoff: int = 15):
    """Fidelity of the squeezed approximation to a cat state across beta.

    kind='odd' compares S_{r_opt(beta)}|1> against the odd cat; kind='even'
    compares S_{r_opt_v(beta)}|0> against the even cat. Returns one SweepRow
    per grid point.
    """
    if kind not in ("even", "odd"):
        raise ValueError(f"kind must be 'even' or 'odd', got {kind!r}")
    betas = list(beta_grid)
    if not betas:
        raise ValueError("beta grid must be nonempty")
    rows = []
    for beta in betas:
        if kind == "odd":
            r = r_opt(beta)
            approx = squeezed_single_photon(r, cutoff)
        else:
            r = r_opt_v(beta)
            approx = squeezed_vacuum(r, cutoff)
        cat = cat_state(beta, kind, cutoff)
        rows.append(SweepRow(float(beta), r, fidelity(cat, approx)))
    return rows
