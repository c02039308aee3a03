"""Cat states and their squeezed-state approximations.

Even/odd cat states N±(|beta> ± |-beta>), squeezed vacuum and squeezed single
photon in the photon-number basis, plus the closed-form squeezing parameters
that maximize the approximation fidelity at a given cat amplitude. The
batched cat rows are ``fock._cat_rows``, which the coherent states of
``cskit.fock`` are built from too; ``cat_state`` is their one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockVector, TruncationError, _cat_rows, _every_other, _one_row, _refuse

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


def cat_state(beta: float, parity: str, cutoff: int) -> FockVector:
    """Cat state N±(|beta> ± |-beta>) with real amplitude beta >= 0.

    Built from the parity-pure Fock expansion, so the odd state is exactly
    |1> in the beta -> 0 limit (where the coherent form degenerates to 0/0).
    Renormalized over the truncated support; discarded weight in ``leakage``.
    The one-row case of ``_cat_rows``.
    """
    return _one_row(_cat_rows([beta], parity, cutoff))


def _squeezed_rows(rs, photons: int, cutoff: int):
    """(amps, leakage) of S_r|photons>, photons 0 or 1, at each r of ``rs``, checked as vectors.

    The term ratio at n is tanh r sqrt((n - 1) / n) for the vacuum and tanh r
    sqrt(n / (n - 1)) for the photon (tanh, cosh per row from ``math``). The
    |photons> amplitude squares to 1 / cosh(r)^(2 photons + 1) >= exp(-(2
    photons + 1) r): r is refused where that bound is not a normal float.
    """
    rs = np.asarray(rs, dtype=float)
    _refuse(~(rs >= 0), lambda i: ValueError(f"squeezing parameter r must be >= 0, got {rs[i]}"))
    _refuse(np.exp(-(2 * photons + 1) * rs) < np.finfo(float).tiny, lambda i: TruncationError(
        f"squeezing r={rs[i]:g} leaves S_r|{photons}> no representable weight"
    ))
    if photons == 0 and cutoff < 2:
        _refuse(rs > 0, lambda i: ValueError("cutoff must be >= 2 to hold a squeezed vacuum"))
    values = rs.tolist()
    n = np.arange(photons + 2, cutoff + 1, 2)
    factors = np.sqrt((n - 1) / n if photons == 0 else n / (n - 1))
    ratios = np.array([math.tanh(r) for r in values])[:, None] * factors
    return _every_other(cutoff, photons, [math.cosh(r) ** -(photons + 0.5) for r in values], ratios)


def squeezed_vacuum(r: float, cutoff: int) -> FockVector:
    """Squeezed vacuum S_r|0>, the one-row case of ``_squeezed_rows``.

    amps_{2n} = (tanh r)^n sqrt((2n)!) / (sqrt(cosh r) 2^n n!), renormalized.
    """
    return _one_row(_squeezed_rows([r], 0, cutoff))


def squeezed_single_photon(r: float, cutoff: int) -> FockVector:
    """Squeezed single photon S_r|1>, the one-row case of ``_squeezed_rows``.

    amps_{2n+1} = (tanh r)^n sqrt((2n+1)!) / ((cosh r)^{3/2} 2^n n!),
    renormalized; |1> at r = 0.
    """
    return _one_row(_squeezed_rows([r], 1, cutoff))


# Above this amplitude 4 beta^4 swamps the constant under each closed form's
# root to double precision, while beta**4 is still far from overflowing.
_LARGE_BETA = 1e50


def r_opt(beta: float) -> float:
    """Squeezing that maximizes F(S_r|1>, odd cat of amplitude beta).

    Closed form: ln sqrt(2 beta^2/3 + sqrt(9 + 4 beta^4)/3). Zero at beta=0.
    Above _LARGE_BETA, where the 9 is lost to rounding, it is ln(beta sqrt(4/3)),
    which keeps beta^4 from overflowing.
    """
    if not beta >= 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if beta > _LARGE_BETA:
        return math.log(beta) + math.log(4.0 / 3.0) / 2.0
    return math.log(math.sqrt(2.0 * beta**2 / 3.0 + math.sqrt(9.0 + 4.0 * beta**4) / 3.0))


def r_opt_v(beta: float) -> float:
    """Squeezing that maximizes F(S_r|0>, even cat of amplitude beta).

    Closed form: ln sqrt(2 beta^2 + sqrt(1 + 4 beta^4)), which is ln(2 beta)
    above _LARGE_BETA.
    """
    if not beta >= 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
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
    per grid point. The cats and the approximations are two batched builds,
    and each fidelity is |<cat|approx>|^2 of its rows, as ``fidelity`` takes it.
    """
    if kind not in ("even", "odd"):
        raise ValueError(f"kind must be 'even' or 'odd', got {kind!r}")
    betas = list(beta_grid)
    if not betas:
        raise ValueError("beta grid must be nonempty")
    photons, r_of = (1, r_opt) if kind == "odd" else (0, r_opt_v)
    rs = [r_of(beta) for beta in betas]
    approx, _ = _squeezed_rows(rs, photons, cutoff)
    cats, _ = _cat_rows(betas, kind, cutoff)
    overlaps = (cats.conj()[:, None, :] @ approx[:, :, None]).ravel().tolist()
    return [SweepRow(float(beta), r, abs(o) ** 2) for beta, r, o in zip(betas, rs, overlaps)]
