import math

import numpy as np
import pytest
from scipy.linalg import expm

from cskit.fock import (
    DensityMatrix,
    FockVector,
    MultiModeState,
    TruncationError,
    apply_beamsplitter,
    apply_phase_shift,
    coherent_state,
    density_matrix,
    fidelity,
    fock_basis_state,
    partial_trace,
    project_photon_number,
    tensor,
)


def _oracle_beamsplitter(dim: int, eta: float) -> np.ndarray:
    """Independent construction: exponentiate the full two-mode generator.

    Builds a dagger b - a b dagger as explicit kron products on an extended
    cutoff (so the exponential does not suffer truncation in the tested
    block), applies the pi phase on mode b, and restricts to the dim x dim
    lattice.
    """
    big = 2 * dim
    n = np.arange(big)
    adag = np.diag(np.sqrt(n[1:]), -1)
    a = adag.T.conj()
    eye = np.eye(big)
    gen = np.kron(adag, a) - np.kron(a, adag)
    theta = math.atan2(math.sqrt(1 - eta), math.sqrt(eta))
    u = expm(theta * gen)
    parity_b = np.kron(eye, np.diag((-1.0) ** n))
    u = parity_b @ u
    full = u.reshape(big, big, big, big)
    small = full[:dim, :dim, :dim, :dim].reshape(dim * dim, dim * dim)
    return small


def _bs_matrix_from_apply(dim: int, eta: float) -> np.ndarray:
    """Recover the implementation's two-mode matrix column by column."""
    cutoff = dim - 1
    cols = []
    for m in range(dim):
        for n in range(dim):
            st = tensor([fock_basis_state(m, cutoff), fock_basis_state(n, cutoff)])
            out = apply_beamsplitter(st, 0, 1, eta)
            cols.append(out.amps.reshape(-1))
    return np.array(cols).T


class TestConstructors:
    def test_vacuum(self):
        vec = coherent_state(0.0, 10)
        assert vec.amps[0] == 1.0
        assert np.all(vec.amps[1:] == 0.0)

    def test_coherent_closed_form(self):
        vec = coherent_state(1.0, 15)
        # amps_0 = e^{-1/2} before renormalization; renormalization is tiny
        unnorm = vec.amps[0] * math.sqrt(1.0 - vec.leakage)
        assert abs(unnorm - math.exp(-0.5)) < 1e-10

    def test_coherent_normalized_and_low_leakage(self):
        for alpha, cutoff in ((0.3, 15), (1.0, 15), (2.0, 30)):
            vec = coherent_state(alpha, cutoff)
            assert abs(vec.norm() - 1.0) < 1e-12
            assert vec.leakage < 1e-10

    def test_coherent_overlap_nearly_orthogonal(self):
        a = coherent_state(2.0, 20)
        b = coherent_state(-2.0, 20)
        ov = abs(a.overlap(b))
        assert ov < 4e-4
        assert abs(ov - math.exp(-8.0)) < 1e-8

    @pytest.mark.parametrize(
        "alpha, cutoff",
        [
            (alpha, cutoff)
            for alpha in (0.0, 0.5, 1.0 - 0.7j, -2.0, 4.0)
            for cutoff in (3, 15, 30, 60)
            if abs(alpha) ** 2 <= cutoff / 3
        ],
    )
    def test_coherent_matches_closed_form(self, alpha, cutoff):
        n = np.arange(cutoff + 1)
        terms = np.array(
            [math.exp(-abs(alpha) ** 2 / 2) * alpha**k / math.sqrt(math.factorial(k)) for k in n]
        )
        captured = float(np.sum(np.abs(terms) ** 2))
        vec = coherent_state(alpha, cutoff)
        assert np.max(np.abs(vec.amps - terms / math.sqrt(captured))) <= 1e-14
        assert abs(vec.leakage - max(0.0, 1.0 - captured)) <= 1e-14

    @pytest.mark.parametrize("alpha, cutoff", [(3, 40), (-2, 30), (10, 300)])
    def test_integer_alpha_is_the_float_state(self, alpha, cutoff):
        # alpha**n in int64 wraps: (3, 40) by 2.3e-7, and (10, 300) to no kept weight
        vec, want = coherent_state(alpha, cutoff), coherent_state(float(alpha), cutoff)
        assert np.array_equal(vec.amps, want.amps)
        assert vec.leakage == want.leakage < 1e-10

    @pytest.mark.parametrize("alpha, cutoff", [(9.9, 600), (-7.0 + 7.0j, 600)])
    def test_coherent_finite_where_the_power_overflows(self, alpha, cutoff):
        vec = coherent_state(alpha, cutoff)
        assert np.all(np.isfinite(vec.amps))
        assert abs(vec.norm() - 1.0) <= 1e-12
        assert vec.leakage < 1e-10

    def test_leakage_guard(self):
        with pytest.raises(TruncationError):
            coherent_state(3.0, 15)

    def test_no_representable_weight(self):
        # exp(-39^2 / 2) is below the smallest normal float; 39^2 <= 4600 / 3
        with pytest.raises(TruncationError):
            coherent_state(39.0, 4600)
        with pytest.raises(TruncationError):
            coherent_state(27.0 + 28.0j, 4600)

    def test_largest_representable_weight_is_finite(self):
        # exp(-37.4^2 / 2) ~ 1.5e-304 is a normal float; the largest terms are ~1e304
        vec = coherent_state(37.4, 4200)
        assert np.all(np.isfinite(vec.amps))
        assert abs(vec.norm() - 1.0) <= 1e-12

    def test_nonfinite_alpha(self):
        with pytest.raises(ValueError):
            coherent_state(float("nan"), 10)

    def test_fock_basis(self):
        vec = fock_basis_state(1, 15)
        assert vec.amps[1] == 1.0
        assert fock_basis_state(1, 5).overlap(fock_basis_state(2, 5)) == 0.0
        with pytest.raises(ValueError):
            fock_basis_state(6, 5)

    def test_tensor_product(self):
        v0 = fock_basis_state(0, 3)
        st = tensor([v0, v0])
        assert st.amps[0, 0] == 1.0
        assert abs(st.norm() - 1.0) < 1e-12

    def test_tensor_norm_multiplicative(self):
        a = coherent_state(0.7, 8)
        b = coherent_state(0.4, 8)
        st = tensor([a, b])
        assert abs(st.norm() - a.norm() * b.norm()) < 1e-12

    def test_tensor_empty(self):
        with pytest.raises(ValueError):
            tensor([])


class TestBeamsplitter:
    def test_oracle_agreement_small_cutoffs(self):
        for dim in (2, 3, 4):
            for eta in (0.0, 0.3, 0.5, 0.8, 1.0):
                impl = _bs_matrix_from_apply(dim, eta)
                oracle = _oracle_beamsplitter(dim, eta)
                assert np.max(np.abs(impl - oracle)) <= 1e-12

    def test_coherent_splitting(self):
        beta = 1.0
        st = tensor([coherent_state(beta, 15), coherent_state(0.0, 15)])
        out = apply_beamsplitter(st, 0, 1, 0.5)
        want = tensor(
            [coherent_state(beta / math.sqrt(2), 15), coherent_state(beta / math.sqrt(2), 15)]
        )
        assert fidelity(want, out) > 1 - 1e-10

    def test_equal_amplitude_merging(self):
        # |alpha, alpha> -> |sqrt(2) alpha, 0> under the chosen convention
        alpha = 0.6
        st = tensor([coherent_state(alpha, 15), coherent_state(alpha, 15)])
        out = apply_beamsplitter(st, 0, 1, 0.5)
        want = tensor(
            [coherent_state(math.sqrt(2) * alpha, 15), coherent_state(0.0, 15)]
        )
        assert fidelity(want, out) > 1 - 1e-10

    def test_opposite_amplitude_merging(self):
        alpha = 0.6
        st = tensor([coherent_state(alpha, 15), coherent_state(-alpha, 15)])
        out = apply_beamsplitter(st, 0, 1, 0.5)
        want = tensor(
            [coherent_state(0.0, 15), coherent_state(math.sqrt(2) * alpha, 15)]
        )
        assert fidelity(want, out) > 1 - 1e-10

    @staticmethod
    def _random_block_state(cutoff, seed=0xC57):
        # support restricted to total photon number <= cutoff, where the
        # beamsplitter is exactly unitary (no truncation clipping)
        rng = np.random.default_rng(seed)
        d = cutoff + 1
        amps = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        i, j = np.indices((d, d))
        amps[i + j > cutoff] = 0.0
        amps /= np.linalg.norm(amps)
        return MultiModeState((cutoff, cutoff), amps)

    def test_norm_preserved(self):
        st = self._random_block_state(6)
        for eta in (0.15, 0.5, 0.95):
            out = apply_beamsplitter(st, 0, 1, eta)
            assert abs(out.norm() - 1.0) < 1e-10

    def test_involution(self):
        # applying the same beamsplitter twice recovers the input
        st = self._random_block_state(5)
        for eta in (0.3, 0.5, 0.9):
            back = apply_beamsplitter(apply_beamsplitter(st, 0, 1, eta), 0, 1, eta)
            assert fidelity(st, back) > 1 - 1e-10

    def test_eta_one_sign_convention(self):
        st = tensor([fock_basis_state(0, 4), fock_basis_state(1, 4)])
        out = apply_beamsplitter(st, 0, 1, 1.0)
        # b -> -b at eta=1: |0,1> picks up a minus sign
        assert abs(out.amps[0, 1] + 1.0) < 1e-12

    def test_input_validation(self):
        st = tensor([fock_basis_state(0, 3), fock_basis_state(0, 3)])
        with pytest.raises(ValueError):
            apply_beamsplitter(st, 0, 0, 0.5)
        with pytest.raises(ValueError):
            apply_beamsplitter(st, 0, 1, 1.5)
        mismatched = tensor([fock_basis_state(0, 3), fock_basis_state(0, 4)])
        with pytest.raises(ValueError):
            apply_beamsplitter(mismatched, 0, 1, 0.5)


class TestPhaseShift:
    def test_pi_flips_coherent(self):
        st = tensor([coherent_state(0.8, 12), fock_basis_state(0, 12)])
        out = apply_phase_shift(st, 0, math.pi)
        want = tensor([coherent_state(-0.8, 12), fock_basis_state(0, 12)])
        assert fidelity(want, out) > 1 - 1e-12

    def test_zero_is_identity(self):
        st = tensor([coherent_state(0.5, 10)])
        out = apply_phase_shift(st, 0, 0.0)
        assert np.allclose(out.amps, st.amps)

    def test_pi_twice_is_identity(self):
        st = tensor([coherent_state(0.5, 10)])
        out = apply_phase_shift(apply_phase_shift(st, 0, math.pi), 0, math.pi)
        assert fidelity(st, out) > 1 - 1e-12

    def test_norm_preserved(self):
        st = tensor([coherent_state(0.9, 12)])
        assert abs(apply_phase_shift(st, 0, 1.234).norm() - 1.0) < 1e-10


class TestMeasurement:
    def test_full_projection(self):
        st = tensor([fock_basis_state(1, 5)])
        prob, cond = project_photon_number(st, [(0, 1)])
        assert prob == pytest.approx(1.0)
        assert cond is None

    def test_zero_probability_flagged(self):
        st = tensor([fock_basis_state(1, 5), fock_basis_state(0, 5)])
        prob, cond = project_photon_number(st, [(0, 0)])
        assert prob == 0.0 and cond is None

    def test_completeness(self):
        rng = np.random.default_rng(0xC57)
        amps = rng.normal(size=(5, 5, 5)) + 1j * rng.normal(size=(5, 5, 5))
        amps /= np.linalg.norm(amps)
        st = MultiModeState((4, 4, 4), amps)
        total = 0.0
        for n in range(5):
            for m in range(5):
                prob, _ = project_photon_number(st, [(0, n), (1, m)])
                total += prob
        assert abs(total - 1.0) < 1e-10

    def test_conditional_normalized(self):
        st = tensor([coherent_state(0.8, 8), coherent_state(0.3, 8)])
        prob, cond = project_photon_number(st, [(0, 1)])
        assert prob > 0
        assert abs(cond.norm() - 1.0) < 1e-12

    def test_invalid_inputs(self):
        st = tensor([fock_basis_state(0, 3), fock_basis_state(0, 3)])
        with pytest.raises(ValueError):
            project_photon_number(st, [(5, 0)])
        with pytest.raises(ValueError):
            project_photon_number(st, [(0, 9)])
        with pytest.raises(ValueError):
            project_photon_number(st, [(0, 1), (0, 2)])


class TestPartialTrace:
    def test_product_state_is_pure(self):
        psi = coherent_state(0.7, 8)
        phi = coherent_state(0.2, 8)
        rho = partial_trace(tensor([psi, phi]), 0)
        want = density_matrix(psi)
        assert np.max(np.abs(rho.elems - want.elems)) < 1e-12

    def test_split_single_photon(self):
        # tracing one arm of a 50:50-split photon gives diag(1/2, 1/2)
        st = tensor([fock_basis_state(1, 4), fock_basis_state(0, 4)])
        out = apply_beamsplitter(st, 0, 1, 0.5)
        rho = partial_trace(out, 0)
        assert rho.elems[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert rho.elems[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert abs(rho.elems[0, 1]) < 1e-12

    def test_hermitian_unit_trace_psd(self):
        rng = np.random.default_rng(0xC57)
        amps = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
        amps /= np.linalg.norm(amps)
        st = MultiModeState((3, 3, 3), amps)
        for mode in range(3):
            rho = partial_trace(st, mode)
            assert np.max(np.abs(rho.elems - rho.elems.conj().T)) < 1e-12
            assert abs(rho.trace() - 1.0) < 1e-10
            assert np.min(np.linalg.eigvalsh(rho.elems)) > -1e-10


class TestFidelity:
    def test_self_fidelity(self):
        psi = coherent_state(0.9, 12)
        assert fidelity(psi, psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(fock_basis_state(0, 5), fock_basis_state(1, 5)) == 0.0

    def test_coherent_pair(self):
        a = coherent_state(2.0, 25)
        b = coherent_state(-2.0, 25)
        assert fidelity(a, b) == pytest.approx(math.exp(-16.0), rel=1e-6)

    def test_pure_mixed(self):
        psi = coherent_state(0.3, 8)
        rho = density_matrix(psi)
        assert fidelity(psi, rho) == pytest.approx(1.0)
        mixed = DensityMatrix(8, 0.5 * rho.elems + 0.5 * density_matrix(fock_basis_state(8, 8)).elems)
        assert fidelity(psi, mixed) == pytest.approx(0.5, abs=1e-10)

    def test_symmetry(self):
        a = coherent_state(0.4, 10)
        b = coherent_state(-0.4, 10)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(coherent_state(0.1, 5), coherent_state(0.1, 6))
