"""Wigner function evaluation via the displaced-parity construction.

W(x, p) = (1/pi) Tr[rho P(ac)] where P(ac) = D(ac) Pi D(ac)^dag is the
displaced photon-number parity operator and ac = (x + i p) / sqrt(2). With
this quadrature convention a coherent state |beta> (real beta) peaks at
x = sqrt(2) beta and the grid integral of W over dx dp equals trace(rho).

The function evaluated is the closed form of the displaced-parity matrix
elements,

    <m| P(a) |n> = (-1)^n sqrt(n!/m!) (2a)^{m-n} e^{-2|a|^2} L_n^{m-n}(4|a|^2)

for m >= n (Hermitian conjugate below the diagonal), so the kernel is exact
on the state's truncated support and no cutoff padding is needed, at any
displacement. A displacement operator built by truncated matrix
exponentiation loses unitarity once |a|^2 approaches the cutoff, which
corrupts the far wings of the grid; it survives in the test suite as a
small-displacement oracle, next to the closed form summed term by term.

How it is evaluated: each diagonal k = m - n of rho contributes
(2a)^k e^{-2|a|^2} / sqrt(k!) times sum_n (-1)^n rho_{n,n+k} l_n^k(4|a|^2),
where l_n^k = sqrt(n! k!/(n+k)!) L_n^k are normalized Laguerre functions
with l_0^k = 1. That sum is taken by Clenshaw's backward recurrence (as in
QuTiP's ``wigner(method="clenshaw")``; Johansson, Nation & Nori,
Comput. Phys. Commun. 184, 1234 (2013)). The recurrence reads the grid
only through x = 4|a|^2, so it runs once per distinct x; only the powers
(2a)^k e^{-x/2} / sqrt(k!) and the final sum run on the full grid. With U
distinct radii among N points a surface costs O(d^2 U + d N) and holds a few
arrays of either size at a time. A square grid centred on the origin repeats
most radii: the default grid holds U/N = 22% (2,269 of 10,201 points), the
201-step one 21%. A grid whose radii never repeat pays for the sort and
the gathers and saves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, FockVector, density_matrix

__all__ = ["PhaseGrid", "wigner_point", "wigner_grid"]


@dataclass(frozen=True)
class PhaseGrid:
    """Rectangular quadrature grid: ``steps`` points per axis, ends inclusive."""

    x_range: tuple = (-5.0, 5.0)
    p_range: tuple = (-5.0, 5.0)
    steps: int = 201

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        for lo, hi in (self.x_range, self.p_range):
            # a width that overflows breaks linspace, even between finite ends
            if not (lo < hi and math.isfinite(float(hi) - float(lo))):
                raise ValueError("grid ranges must be finite with lo < hi and a finite width")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.steps)

    @property
    def ps(self) -> np.ndarray:
        return np.linspace(self.p_range[0], self.p_range[1], self.steps)

    @property
    def cell_area(self) -> float:
        dx = (self.x_range[1] - self.x_range[0]) / (self.steps - 1)
        dp = (self.p_range[1] - self.p_range[0]) / (self.steps - 1)
        return dx * dp


def _as_density(rho) -> DensityMatrix:
    if isinstance(rho, FockVector):
        return density_matrix(rho)
    if isinstance(rho, DensityMatrix):
        return rho
    raise TypeError(f"expected FockVector or DensityMatrix, got {type(rho).__name__}")


def _parity_sum(rho: DensityMatrix, alpha_c: np.ndarray) -> np.ndarray:
    """(1/pi) Tr[rho P(alpha_c)], vectorized over an array of displacements."""
    dim = rho.dim
    # x = 4|a|^2 and (2a)^k e^{-x/2} / sqrt(k!), one multiplication per
    # diagonal. e^{-x/2} is 0 in double precision from |a| ~ 19.3 on, so the
    # clip at 1e3 changes nothing and keeps the square finite. There W is 0:
    # a is set to 0 once per surface, so x and the recurrence stay finite.
    x = np.abs(alpha_c)
    power = np.minimum(x, 1e3)
    power *= power
    power *= -2.0
    power = np.exp(power, out=power).astype(complex)
    far = power == 0.0
    if far.any():
        alpha_c = np.where(far, 0.0, alpha_c)
        x[far] = 0.0
    x *= x
    x *= 4.0
    # The recurrence reads the grid only through x, and most x values of a
    # square grid repeat (hypot is symmetric, and the axes mirror), so it runs
    # once per distinct x and each sum is read back at every point by index.
    x, where = np.unique(x, return_inverse=True)
    where = where.reshape(alpha_c.shape)
    two_a = 2.0 * alpha_c
    signs = (-1.0) ** np.arange(dim)
    total = np.zeros(alpha_c.shape)
    for k in range(dim):
        if k:
            power *= two_a / math.sqrt(k)
        # c_n = (-1)^n rho[n, n+k]; an all-zero diagonal adds nothing, and a
        # real one (as from real Fock amplitudes) runs in float
        coeffs = signs[: dim - k] * np.diagonal(rho.elems, k)
        if not coeffs.any():
            continue
        if not coeffs.imag.any():
            coeffs = coeffs.real
        # b_n = c_n + A_n b_{n+1} - B_n b_{n+2} from n = dim-1-k down to 0,
        # with A_n = (2n+1+k-x)/s1 and B_n = s1/s2; b2 takes b_n in place,
        # then the two swap
        b1 = np.zeros(x.shape, coeffs.dtype)
        b2 = np.zeros_like(b1)
        term = np.empty_like(b1)
        for n in range(dim - 1 - k, -1, -1):
            s1 = math.sqrt((n + 1) * (n + k + 1))
            s2 = math.sqrt((n + 2) * (n + k + 2))
            np.subtract(2 * n + 1 + k, x, out=term)
            term *= b1
            term /= s1
            b2 *= -s1 / s2
            b2 += term
            b2 += coeffs[n]
            b1, b2 = b2, b1
        weight = 1.0 if k == 0 else 2.0
        total += weight * np.real(b1.take(where) * power)
    return total / math.pi


def wigner_point(rho, x: float, p: float) -> float:
    """W(x, p) for a single-mode state (FockVector or DensityMatrix)."""
    alpha_c = np.array([(x + 1j * p) / math.sqrt(2.0)])
    return float(_parity_sum(_as_density(rho), alpha_c)[0])


def wigner_grid(rho, grid: PhaseGrid) -> np.ndarray:
    """W over the full grid; result[i, j] = W(xs[i], ps[j])."""
    alpha_c = (grid.xs[:, None] + 1j * grid.ps[None, :]) / math.sqrt(2.0)
    return _parity_sum(_as_density(rho), alpha_c)
