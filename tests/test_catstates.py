import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cskit.catstates import (
    annihilate,
    approximation_fidelity_sweep,
    cat_state,
    r_opt,
    r_opt_v,
    squeezed_single_photon,
    squeezed_vacuum,
)
from cskit.fock import TruncationError, fidelity, fock_basis_state
from cskit.protocols import STATE_KINDS


def _closed_form(cutoff, terms):
    """(amplitudes renormalized over 0..cutoff, leakage) of the closed-form terms {n: a_n}."""
    amps = np.zeros(cutoff + 1)
    for n, term in terms.items():
        amps[n] = term
    captured = float(np.sum(amps**2))
    return amps / math.sqrt(captured), max(0.0, 1.0 - captured)


def _cat_closed_form(beta, parity, cutoff):
    offset = 0 if parity == "even" else 1
    sign = 1.0 if parity == "even" else -1.0
    norm_const = 1.0 / math.sqrt(2.0 * (1.0 + sign * math.exp(-2.0 * beta**2)))
    prefactor = 2.0 * norm_const * math.exp(-(beta**2) / 2.0)
    return _closed_form(cutoff, {
        n: prefactor * beta**n / math.sqrt(math.factorial(n)) for n in range(offset, cutoff + 1, 2)
    })


def _squeezed_vacuum_closed_form(r, cutoff):
    t, c = math.tanh(r), math.cosh(r)
    return _closed_form(cutoff, {
        2 * n: t**n * math.sqrt(math.factorial(2 * n)) / (math.sqrt(c) * 2**n * math.factorial(n))
        for n in range(cutoff // 2 + 1)
    })


def _squeezed_single_photon_closed_form(r, cutoff):
    t, c = math.tanh(r), math.cosh(r)
    return _closed_form(cutoff, {
        2 * n + 1: t**n * math.sqrt(math.factorial(2 * n + 1)) / (c**1.5 * 2**n * math.factorial(n))
        for n in range((cutoff - 1) // 2 + 1)
    })


def _argmax_r(objective, lo=0.0, hi=2.0):
    """Golden-section search for the squeezing that maximizes a fidelity."""
    res = minimize_scalar(
        lambda r: -objective(r), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-8},
    )
    return float(res.x)


class TestCatStates:
    def test_odd_limit_is_single_photon(self):
        assert fidelity(cat_state(0.0, "odd", 10), fock_basis_state(1, 10)) == 1.0

    def test_even_limit_is_vacuum(self):
        assert fidelity(cat_state(0.0, "even", 10), fock_basis_state(0, 10)) == 1.0

    @pytest.mark.parametrize("beta", [1e-9, 1e-100, 1e-160, 5e-324])
    def test_small_beta_approaches_the_limits(self, beta):
        # 1 - exp(-2 beta^2) rounds to 0 here, which divided by zero for the odd cat
        for parity, n in (("odd", 1), ("even", 0)):
            vec = cat_state(beta, parity, 10)
            assert fidelity(vec, fock_basis_state(n, 10)) == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= vec.leakage <= 1e-12

    def test_odd_amps_closed_form(self):
        beta, cutoff = 1.0, 15
        vec = cat_state(beta, "odd", cutoff)
        norm_const = 1.0 / math.sqrt(2.0 * (1.0 - math.exp(-2.0 * beta**2)))
        scale = math.sqrt(1.0 - vec.leakage)  # undo renormalization
        for n in range(0, cutoff + 1):
            if n % 2 == 0:
                assert vec.amps[n] == 0.0
            else:
                want = 2.0 * norm_const * math.exp(-0.5) * beta**n / math.sqrt(math.factorial(n))
                assert abs(vec.amps[n] * scale - want) <= 1e-12

    def test_parity_purity(self):
        for beta in (0.3, 0.8, 1.4):
            odd = cat_state(beta, "odd", 15)
            even = cat_state(beta, "even", 15)
            assert np.all(odd.amps[0::2] == 0.0)
            assert np.all(even.amps[1::2] == 0.0)

    def test_normalized(self):
        for beta in (0.2, 1.0, 1.5):
            for parity in ("even", "odd"):
                assert abs(cat_state(beta, parity, 15).norm() - 1.0) < 1e-12

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            cat_state(-0.5, "odd", 15)
        with pytest.raises(ValueError):
            cat_state(0.5, "sideways", 15)
        with pytest.raises(TruncationError):
            cat_state(3.0, "odd", 10)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_no_representable_weight(self, parity):
        # exp(-39^2 / 2) is below the smallest normal float; 39^2 <= 4600 / 3
        with pytest.raises(TruncationError):
            cat_state(39.0, parity, 4600)
        vec = cat_state(37.4, parity, 4200)
        assert np.all(np.isfinite(vec.amps))
        assert abs(vec.norm() - 1.0) <= 1e-12


class TestTermRatios:
    """The builders' term-ratio recurrences against the closed forms, and where those overflow."""

    @pytest.mark.parametrize(
        "beta, cutoff",
        [
            (beta, cutoff)
            for beta in (0.3, 1.0, 2.5, 4.0)
            for cutoff in (5, 15, 30, 60)
            if beta**2 <= cutoff / 3
        ],
    )
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_cat_matches_closed_form(self, parity, beta, cutoff):
        vec = cat_state(beta, parity, cutoff)
        amps, leakage = _cat_closed_form(beta, parity, cutoff)
        assert np.max(np.abs(vec.amps - amps)) <= 1e-14
        assert abs(vec.leakage - leakage) <= 1e-14

    @pytest.mark.parametrize("cutoff", [5, 15, 30, 60])
    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.5])
    @pytest.mark.parametrize(
        "state, closed_form",
        [
            (squeezed_vacuum, _squeezed_vacuum_closed_form),
            (squeezed_single_photon, _squeezed_single_photon_closed_form),
        ],
    )
    def test_squeezed_matches_closed_form(self, state, closed_form, r, cutoff):
        vec = state(r, cutoff)
        amps, leakage = closed_form(r, cutoff)
        assert np.max(np.abs(vec.amps - amps)) <= 1e-14
        assert abs(vec.leakage - leakage) <= 1e-14

    @pytest.mark.parametrize("kind", list(STATE_KINDS))
    @pytest.mark.parametrize("amplitude", [0.5, 2.0, 8.0])
    def test_finite_and_normalized_at_cutoff_200(self, kind, amplitude):
        # past n = 170, where sqrt(n!) leaves the float range of the closed forms
        vec = STATE_KINDS[kind].build(amplitude, 200)
        assert np.all(np.isfinite(vec.amps))
        assert abs(vec.norm() - 1.0) <= 1e-12
        assert 0.0 <= vec.leakage <= 1.0


class TestSqueezedStates:
    def test_r_zero_identities(self):
        assert fidelity(squeezed_vacuum(0.0, 10), fock_basis_state(0, 10)) == 1.0
        assert fidelity(squeezed_single_photon(0.0, 10), fock_basis_state(1, 10)) == 1.0

    def test_support_parity(self):
        sv = squeezed_vacuum(0.6, 15)
        sp = squeezed_single_photon(0.6, 15)
        assert np.all(sv.amps[1::2] == 0.0)
        assert np.all(sp.amps[0::2] == 0.0)

    def test_normalized(self):
        for r in (0.1, 0.31, 0.7):
            assert abs(squeezed_vacuum(r, 15).norm() - 1.0) < 1e-12
            assert abs(squeezed_single_photon(r, 15).norm() - 1.0) < 1e-12

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            squeezed_vacuum(-0.1, 15)
        with pytest.raises(ValueError):
            squeezed_single_photon(-0.1, 15)

    @pytest.mark.parametrize("state, r", [(squeezed_single_photon, 240.0), (squeezed_vacuum, 710.0)])
    def test_unrepresentable_squeezing_raises(self, state, r):
        # the weight bounds exp(-3 r) at r = 240 and exp(-r) at r = 710 are below every normal float
        with pytest.raises(TruncationError):
            state(r, 15)
        with pytest.raises(TruncationError):
            state(math.inf, 15)

    def test_kept_weight_floor(self):
        # at cutoff 2 the squeezed vacuum keeps (1 + tanh(r)^2 / 2) / cosh(r) of its weight:
        # 1.5e-6 at r = 14.5, above the 1e-6 floor, and 7.5e-7 at r = 15.2, below it
        assert 1.0 - squeezed_vacuum(14.5, 2).leakage == pytest.approx(1.513e-6, rel=1e-3)
        with pytest.raises(TruncationError, match="keeps 7.51e-07 of the state's weight"):
            squeezed_vacuum(15.2, 2)

    def test_even_approximation_threshold(self):
        vec = squeezed_vacuum(r_opt_v(0.5), 15)
        assert fidelity(vec, cat_state(0.5, "even", 15)) > 0.99

    def test_odd_approximation_threshold(self):
        vec = squeezed_single_photon(r_opt(1.0), 15)
        assert fidelity(vec, cat_state(1.0, "odd", 15)) > 0.99


class TestOptimalSqueezing:
    def test_r_opt_endpoints(self):
        assert r_opt(0.0) == 0.0
        assert 0.305 <= r_opt(1.0) <= 0.320

    def test_r_opt_v_closed_value(self):
        assert r_opt_v(0.0) == 0.0
        assert r_opt_v(1.0) == pytest.approx(
            math.log(math.sqrt(2.0 + math.sqrt(5.0))), abs=1e-12
        )
        assert r_opt_v(1.0) == pytest.approx(0.7216, abs=5e-4)

    @pytest.mark.parametrize("beta", [1e49, 1e51, 1e200, 1e308])
    def test_closed_forms_at_huge_beta(self, beta):
        # ln sqrt(4 beta^2 / 3) and ln(2 beta): the constants under the roots round away
        assert r_opt(beta) == pytest.approx(math.log(beta) + math.log(4.0 / 3.0) / 2.0, rel=1e-15)
        assert r_opt_v(beta) == pytest.approx(math.log(2.0 * beta), rel=1e-15)

    def test_r_opt_matches_numeric_maximizer(self):
        cutoff = 25
        for beta in (0.25, 0.5, 1.0):
            cat = cat_state(beta, "odd", cutoff)
            best = _argmax_r(lambda r: fidelity(squeezed_single_photon(r, cutoff), cat))
            assert abs(best - r_opt(beta)) < 1e-4

    def test_r_opt_v_matches_numeric_maximizer(self):
        cutoff = 25
        for beta in (0.25, 0.5, 0.75):
            cat = cat_state(beta, "even", cutoff)
            best = _argmax_r(lambda r: fidelity(squeezed_vacuum(r, cutoff), cat))
            assert abs(best - r_opt_v(beta)) < 1e-4

    def test_closed_forms_across_full_range(self):
        # cutoff 100 keeps the heavy-tailed squeezed vacuum near beta=1.5
        # from biasing the numeric argmax
        cutoff = 100
        for beta in np.arange(0.0, 1.5 + 1e-9, 0.25):
            cat_o = cat_state(beta, "odd", cutoff)
            cat_e = cat_state(beta, "even", cutoff)
            best_o = _argmax_r(lambda r: fidelity(squeezed_single_photon(r, cutoff), cat_o))
            best_e = _argmax_r(lambda r: fidelity(squeezed_vacuum(r, cutoff), cat_e))
            assert abs(best_o - r_opt(beta)) < 1e-4
            assert abs(best_e - r_opt_v(beta)) < 1e-4


class TestSweep:
    def test_odd_threshold(self):
        rows = approximation_fidelity_sweep("odd", [0.0, 1.2], 15)
        assert rows[0].fidelity == pytest.approx(1.0)
        assert rows[1].fidelity > 0.99

    def test_even_row(self):
        (row,) = approximation_fidelity_sweep("even", [0.5], 15)
        assert row.fidelity > 0.99
        assert row.r == pytest.approx(r_opt_v(0.5))

    def test_monotone_nonincreasing(self):
        grid = np.arange(0.0, 1.5 + 1e-9, 0.05)
        for kind in ("odd", "even"):
            fids = [row.fidelity for row in approximation_fidelity_sweep(kind, grid, 15)]
            assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            approximation_fidelity_sweep("odd", [], 15)


class TestPhotonSubtraction:
    def test_subtracted_squeezed_vacuum(self):
        # needs a large cutoff: the annihilation helper loses the boundary term
        cutoff = 81
        for r in (0.1, 0.31, 0.7):
            sub = annihilate(squeezed_vacuum(r, cutoff))
            assert fidelity(sub, squeezed_single_photon(r, cutoff)) > 1 - 1e-10

    def test_vacuum_rejected(self):
        with pytest.raises(ValueError):
            annihilate(fock_basis_state(0, 5))

    def test_lowering_action(self):
        out = annihilate(fock_basis_state(3, 5))
        assert fidelity(out, fock_basis_state(2, 5)) == pytest.approx(1.0)
