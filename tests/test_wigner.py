import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from cskit.catstates import cat_state, r_opt, squeezed_single_photon
from cskit.fock import DensityMatrix, coherent_state, density_matrix, fock_basis_state
from cskit.loss import LossConfig, conditional_output_density
from cskit.protocols import InputSpec, ResourceSpec
from cskit.wigner import PhaseGrid, wigner_grid, wigner_point

TOL = 1e-12
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _closed_form_parity_sum(rho, alpha_c):
    """(1/pi) Tr[rho P(alpha_c)] summed term by term from the closed form

        <m| P(a) |n> = (-1)^n sqrt(n!/m!) (2a)^{m-n} e^{-2|a|^2} L_n^{m-n}(4|a|^2),

    one Laguerre polynomial per (n, m >= n), as cskit evaluated it before the
    Clenshaw sum. Zero elements of rho are skipped, which changes no sum."""
    dim = rho.dim
    asq4 = 4.0 * np.abs(alpha_c) ** 2
    envelope = np.exp(-asq4 / 2.0)
    total = np.zeros(alpha_c.shape)
    for n in range(dim):
        for m in range(n, dim):
            if rho.elems[n, m] == 0:
                continue
            k = m - n
            coeff = (-1.0) ** n * math.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)))
            term = coeff * (2.0 * alpha_c) ** k * envelope * eval_genlaguerre(n, k, asq4)
            if m == n:
                total += np.real(rho.elems[n, n] * term)
            else:
                # rho_{nm} P_{mn} + rho_{mn} P_{nm} = 2 Re(rho_{nm} P_{mn})
                total += 2.0 * np.real(rho.elems[n, m] * term)
    return total / math.pi


def _closed_form_grid(rho, grid):
    return _closed_form_parity_sum(rho, _alphas(grid))


def _full_grid_parity_sum(rho, alpha_c):
    """(1/pi) Tr[rho P(alpha_c)] by the Clenshaw sum run on every point of the
    grid, as cskit evaluated it before the recurrence ran once per distinct
    radius. Every float operation per point is the kernel's, so the two agree
    bit for bit."""
    dim = rho.dim
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
    signs = (-1.0) ** np.arange(dim)
    total = np.zeros(alpha_c.shape)
    for k in range(dim):
        if k:
            power *= 2.0 * alpha_c / math.sqrt(k)
        coeffs = signs[: dim - k] * np.diagonal(rho.elems, k)
        if not coeffs.any():
            continue
        if not coeffs.imag.any():
            coeffs = coeffs.real
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
        total += weight * np.real(b1 * power)
    return total / math.pi


def _alphas(grid):
    return (grid.xs[:, None] + 1j * grid.ps[None, :]) / math.sqrt(2.0)


def _oracle_wigner_point(rho_elems, x, p, margin=10):
    """Small-displacement oracle: displacement by truncated expm of the
    generator with a cutoff margin, then parity expectation. Only accurate
    while |alpha_c|^2 stays well below the padded cutoff."""
    dim = rho_elems.shape[0]
    big = dim + margin
    alpha_c = (x + 1j * p) / math.sqrt(2.0)
    adag = np.diag(np.sqrt(np.arange(1, big)), -1)
    disp = expm(alpha_c * adag - np.conj(alpha_c) * adag.T.conj())
    parity = np.diag((-1.0) ** np.arange(big))
    kernel = disp @ parity @ disp.conj().T
    padded = np.zeros((big, big), dtype=complex)
    padded[:dim, :dim] = rho_elems
    return float(np.real(np.trace(padded @ kernel))) / math.pi


GRID = PhaseGrid((-5.0, 5.0), (-5.0, 5.0), 201)


class TestPhaseGrid:
    def test_properties(self):
        assert GRID.xs[0] == -5.0 and GRID.xs[-1] == 5.0
        assert GRID.cell_area == pytest.approx(0.05**2)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseGrid((-1.0, 1.0), (-1.0, 1.0), 1)
        with pytest.raises(ValueError):
            PhaseGrid((1.0, -1.0), (-1.0, 1.0), 10)
        # finite ends whose width hi - lo overflows would give nan and inf points
        with pytest.raises(ValueError):
            PhaseGrid((-1.7e308, 1.7e308), (-1.0, 1.0), 3)
        with pytest.raises(ValueError):
            PhaseGrid((-1.0, 1.0), (-1e308, 1e308), 3)


class TestPointValues:
    def test_vacuum_origin(self):
        assert wigner_point(fock_basis_state(0, 15), 0.0, 0.0) == pytest.approx(
            1.0 / math.pi, abs=1e-12
        )

    def test_single_photon_origin(self):
        assert wigner_point(fock_basis_state(1, 15), 0.0, 0.0) == pytest.approx(
            -1.0 / math.pi, abs=1e-6
        )

    def test_accepts_density_matrix(self):
        rho = density_matrix(fock_basis_state(1, 15))
        assert wigner_point(rho, 0.0, 0.0) == pytest.approx(-1.0 / math.pi)

    def test_oracle_agreement_small_displacements(self):
        states = [
            fock_basis_state(0, 10),
            fock_basis_state(2, 10),
            coherent_state(0.7, 10),
            cat_state(0.8, "odd", 10),
        ]
        for vec in states:
            rho = density_matrix(vec)
            for x, p in ((0.0, 0.0), (0.5, -0.3), (1.0, 1.0), (-1.2, 0.4)):
                got = wigner_point(vec, x, p)
                want = _oracle_wigner_point(rho.elems, x, p)
                assert abs(got - want) < 1e-10


class TestSurfaces:
    def test_integral_is_trace(self):
        for vec in (
            fock_basis_state(0, 15),
            fock_basis_state(1, 15),
            coherent_state(1.0, 15),
        ):
            surface = wigner_grid(vec, GRID)
            assert abs(np.sum(surface) * GRID.cell_area - 1.0) < 1e-3

    def test_cat_integral(self):
        surface = wigner_grid(cat_state(2.0, "odd", 15), GRID)
        assert abs(np.sum(surface) * GRID.cell_area - 1.0) < 1e-3

    def test_coherent_peak_location(self):
        beta = 1.0
        surface = wigner_grid(coherent_state(beta, 15), GRID)
        i, j = np.unravel_index(np.argmax(surface), surface.shape)
        dx = GRID.xs[1] - GRID.xs[0]
        assert abs(GRID.xs[i] - math.sqrt(2.0) * beta) <= dx
        assert abs(GRID.ps[j]) <= dx

    def test_vacuum_everywhere_positive(self):
        surface = wigner_grid(fock_basis_state(0, 15), GRID)
        assert np.min(surface) > -1e-15

    def test_everywhere_real_and_p_symmetric(self):
        # real Fock amplitudes give W(x, p) = W(x, -p)
        surface = wigner_grid(cat_state(1.0, "odd", 15), GRID)
        assert np.max(np.abs(surface - surface[:, ::-1])) < 1e-12

    def test_cat_vs_squeezed_photon_surfaces(self):
        grid = PhaseGrid((-4.0, 4.0), (-4.0, 4.0), 161)
        cat = wigner_grid(cat_state(1.0, "odd", 15), grid)
        sq = wigner_grid(squeezed_single_photon(r_opt(1.0), 15), grid)
        assert np.max(np.abs(cat - sq)) < 0.02

    def test_large_cat_fringes(self):
        # two separated lobes along x plus negative interference fringes
        surface = wigner_grid(cat_state(2.0, "odd", 15), GRID)
        x_lobe = 2.0 * math.sqrt(2.0)
        i_pos = np.argmin(np.abs(GRID.xs - x_lobe))
        i_neg = np.argmin(np.abs(GRID.xs + x_lobe))
        j0 = np.argmin(np.abs(GRID.ps))
        assert surface[i_pos, j0] > 0.1
        assert surface[i_neg, j0] > 0.1
        mid = surface[np.argmin(np.abs(GRID.xs)), :]
        assert np.min(mid) < -0.1  # fringe negativity at x = 0

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            wigner_point(np.eye(3), 0.0, 0.0)


CLOSED_FORM_GRID = PhaseGrid((-5.0, 5.0), (-5.0, 5.0), 21)


@st.composite
def hermitian_densities(draw):
    """A random complex Hermitian positive rho of trace 1, cutoff 0-30."""
    cutoff = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(cutoff + 1,) * 2) + 1j * rng.normal(size=(cutoff + 1,) * 2)
    rho = a @ a.conj().T
    return DensityMatrix(cutoff, rho / np.trace(rho).real)


class TestClosedFormOracle:
    """The Clenshaw sum against the closed form summed term by term."""

    def test_every_number_state_pair(self):
        # |n><m| + |m><n| for n <= m <= 30: one diagonal k = m - n, real
        worst = 0.0
        for n in range(31):
            for m in range(n, 31):
                elems = np.zeros((31, 31))
                elems[n, m] = elems[m, n] = 1.0
                rho = DensityMatrix(30, elems)
                got = wigner_grid(rho, CLOSED_FORM_GRID)
                want = _closed_form_grid(rho, CLOSED_FORM_GRID)
                worst = max(worst, np.max(np.abs(got - want)))
        assert worst <= TOL

    @PROPERTY
    @given(rho=hermitian_densities())
    def test_complex_hermitian_densities(self, rho):
        got = wigner_grid(rho, CLOSED_FORM_GRID)
        want = _closed_form_grid(rho, CLOSED_FORM_GRID)
        assert np.max(np.abs(got - want)) <= TOL

    def test_only_odd_diagonals(self):
        # every even diagonal, the main one included, is skipped as zero
        rng = np.random.default_rng(7)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        n, m = np.indices(a.shape)
        elems = np.where((m - n) % 2 == 1, a, 0.0)
        rho = DensityMatrix(15, elems + elems.conj().T)
        got = wigner_grid(rho, CLOSED_FORM_GRID)
        want = _closed_form_grid(rho, CLOSED_FORM_GRID)
        assert np.max(np.abs(want)) > 0.1
        assert np.max(np.abs(got - want)) <= TOL

    def test_point_at_cutoff_zero(self):
        vac = fock_basis_state(0, 0)
        for x, p in ((0.0, 0.0), (1.5, -0.5), (-4.0, 3.0)):
            want = math.exp(-(x * x + p * p)) / math.pi
            assert wigner_point(vac, x, p) == pytest.approx(want, abs=TOL)
            alpha_c = np.array([(x + 1j * p) / math.sqrt(2.0)])
            oracle = _closed_form_parity_sum(density_matrix(vac), alpha_c)[0]
            assert abs(wigner_point(vac, x, p) - oracle) <= TOL


def _distinct_radii(grid):
    x = np.abs(_alphas(grid))
    return np.unique(4.0 * x * x).size


def _assert_full_grid_bits(rho, grid):
    rho = density_matrix(rho) if not isinstance(rho, DensityMatrix) else rho
    got = wigner_grid(rho, grid)
    want = _full_grid_parity_sum(rho, _alphas(grid))
    assert np.array_equal(got, want)


class TestFullGridOracle:
    """The recurrence run once per distinct radius against the one run on every point, bit for bit."""

    def test_benchmark_surfaces(self):
        # the odd-cat CLI grid and the two library grids of the wigner-views workload
        _, lossy = conditional_output_density(
            InputSpec("squeezed-single-photon", 0.5),
            ResourceSpec("squeezed-single-photon", math.sqrt(2.0) * 0.5),
            LossConfig(0.8, 0.7),
            1,
            0,
            6,
        )
        assert _distinct_radii(GRID) == 8426
        for rho in (
            cat_state(2.0, "odd", 15),
            squeezed_single_photon(r_opt(1.2), 30),
            lossy,
        ):
            _assert_full_grid_bits(rho, GRID)

    @settings(derandomize=True, database=None, deadline=None, max_examples=12)
    @given(rho=hermitian_densities())
    def test_complex_hermitian_densities(self, rho):
        _assert_full_grid_bits(rho, PhaseGrid((-4.0, 4.0), (-4.0, 4.0), 41))

    def test_grid_whose_radii_hardly_repeat(self):
        grid = PhaseGrid((-3.1, 4.7), (-2.3, 5.9), 121)
        assert _distinct_radii(grid) > 0.99 * grid.steps**2
        for rho in (cat_state(1.0, "odd", 15), coherent_state(1.3 + 0.4j, 20)):
            _assert_full_grid_bits(rho, grid)

    @pytest.mark.parametrize(
        "x_range, p_range",
        [
            ((1e154, 2e154), (1e154, 2e154)),
            # |a| = |x + ip| / sqrt(2) crosses ~19.3, where e^{-2|a|^2} underflows
            ((20.0, 35.0), (-5.0, 5.0)),
        ],
    )
    def test_far_field_clip(self, x_range, p_range):
        grid = PhaseGrid(x_range, p_range, 41)
        for rho in (fock_basis_state(0, 3), coherent_state(0.5j, 10), cat_state(1.0, "even", 15)):
            _assert_full_grid_bits(rho, grid)
        surface = wigner_grid(fock_basis_state(0, 3), grid)
        assert np.all(surface[-1] == 0.0)

    def test_points(self):
        rho = density_matrix(cat_state(1.5, "odd", 12))
        for x, p in ((0.0, 0.0), (1.5, -0.5), (-4.0, 3.0), (30.0, 0.0)):
            want = _full_grid_parity_sum(rho, np.array([(x + 1j * p) / math.sqrt(2.0)]))[0]
            assert wigner_point(rho, x, p) == want
