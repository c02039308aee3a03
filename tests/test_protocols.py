import math

import numpy as np
import pytest

from cskit.catstates import cat_state, r_opt, squeezed_single_photon
from cskit.fock import (
    FockVector,
    coherent_state,
    fidelity,
    fock_basis_state,
    tensor,
)
from cskit.protocols import (
    INPUT_FAMILIES,
    InputSpec,
    QubitSuperposition,
    ResourceSpec,
    apply_correction,
    build_teleporter_input,
    classify_outcome,
    enumerate_outcomes,
    per_outcome_fidelity,
    run_entanglement_swap,
    run_teleportation,
    success_probability_sweep,
)

CUTOFF = 15


def _random_qubits(count, alpha, seed=0xC57):
    """Superposition specs drawn uniformly on the nonorthogonal Bloch sphere."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        theta = math.acos(rng.uniform(-1.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        mu = math.cos(theta / 2.0)
        nu = math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))
        specs.append(InputSpec("superposition", alpha, mu, nu))
    return specs


def _eq3_reference(mu, nu, alpha, cutoff):
    """Three-mode state just before measurement, built directly from
    coherent vectors: mu|b,0,a> - mu|0,b,-a> + nu|0,-b,a> - nu|-b,0,-a>
    with b = sqrt(2) alpha."""
    beta = math.sqrt(2.0) * alpha

    def ket(x, y, z):
        return tensor(
            [coherent_state(x, cutoff), coherent_state(y, cutoff), coherent_state(z, cutoff)]
        ).amps

    amps = (
        mu * ket(beta, 0, alpha)
        - mu * ket(0, beta, -alpha)
        + nu * ket(0, -beta, alpha)
        - nu * ket(-beta, 0, -alpha)
    )
    return amps / np.linalg.norm(amps)


class TestClassification:
    def test_odd_resource_table(self):
        assert classify_outcome(1, 0, "odd") == (True, "I")
        assert classify_outcome(0, 3, "odd") == (True, "X")
        assert classify_outcome(2, 0, "odd") == (True, "Z")
        assert classify_outcome(0, 4, "odd") == (True, "XZ")

    def test_even_resource_table_swaps_roles(self):
        assert classify_outcome(2, 0, "even") == (True, "I")
        assert classify_outcome(0, 2, "even") == (True, "X")
        assert classify_outcome(1, 0, "even") == (True, "Z")
        assert classify_outcome(0, 3, "even") == (True, "XZ")

    def test_failure_outcomes(self):
        assert classify_outcome(0, 0) == (False, "none")
        assert classify_outcome(2, 1) == (False, "none")

    def test_apply_correction(self):
        vec = coherent_state(0.5, 10)
        out, label = apply_correction(vec, 1, 0, "odd")
        assert label == "I" and fidelity(vec, out) == pytest.approx(1.0)
        out, label = apply_correction(vec, 0, 3, "odd")
        assert label == "X"
        assert fidelity(coherent_state(-0.5, 10), out) == pytest.approx(1.0)
        # X twice is the identity
        twice, _ = apply_correction(out, 0, 3, "odd")
        assert fidelity(vec, twice) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            apply_correction(vec, 0, 0, "odd")


class TestCircuitAssembly:
    def test_vacuum_passthrough(self):
        vac = fock_basis_state(0, CUTOFF)
        st = build_teleporter_input(vac, vac, CUTOFF)
        assert abs(st.amps[0, 0, 0]) == pytest.approx(1.0)

    def test_output_normalized(self):
        st = build_teleporter_input(
            coherent_state(0.4, CUTOFF), cat_state(0.4 * math.sqrt(2), "odd", CUTOFF), CUTOFF
        )
        assert abs(st.norm() - 1.0) < 1e-10

    def test_structural_superposition(self):
        # the pre-measurement state matches the direct coherent-vector build
        for alpha in (0.3, 0.6):
            for mu, nu in ((1.0, -1.0), (0.5, -math.sqrt(3) / 2), (0.8, 0.6j)):
                spec = QubitSuperposition(mu, nu, alpha)
                res = cat_state(math.sqrt(2.0) * alpha, "odd", CUTOFF)
                st = build_teleporter_input(spec.to_fock(CUTOFF), res, CUTOFF)
                ref = _eq3_reference(mu, nu, alpha, CUTOFF)
                assert abs(np.vdot(ref, st.amps)) ** 2 > 1 - 1e-8

    def test_qubit_normalization_and_its_zero_norm_cases(self):
        # mu = -nu at alpha = 0 is the odd cat's limit |1>; mu = nu = 0 has no state
        qubit = QubitSuperposition(0.8, 0.6j, 0.5).to_fock(CUTOFF)
        assert np.linalg.norm(qubit.amps) == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(
            QubitSuperposition(1.0, -1.0, 0.0).to_fock(CUTOFF).amps,
            fock_basis_state(1, CUTOFF).amps,
        )
        with pytest.raises(ValueError, match="zero vector"):
            QubitSuperposition(0.0, 0.0, 0.5).to_fock(CUTOFF)

    @pytest.mark.parametrize("mu, nu", [(0.6 + 0.3j, 0.2 - 0.7j), (1.0, 0.5j), (0.3j, -0.8j)])
    def test_complex_qubit_leakage_uses_the_exact_norm(self, mu, nu):
        """The leakage is what the cutoff loses of |mu|^2 + |nu|^2 + 2 Re(mu* nu) e^(-2 alpha^2).

        The cross term takes the conjugate of mu; Re(mu nu) differs from it
        for each of these pairs.
        """
        alpha, cutoff = 1.0, 4
        coherent = [
            math.exp(-alpha**2 / 2) * alpha**n / math.sqrt(math.factorial(n))
            for n in range(cutoff + 1)
        ]
        captured = sum(abs((mu + (-1) ** n * nu) * c) ** 2 for n, c in enumerate(coherent))
        cross = 2 * (mu.conjugate() * nu).real * math.exp(-2 * alpha**2)
        exact = abs(mu) ** 2 + abs(nu) ** 2 + cross
        qubit = QubitSuperposition(mu, nu, alpha).to_fock(cutoff)
        assert qubit.leakage == pytest.approx(1.0 - captured / exact, abs=1e-14)
        assert qubit.leakage > 1e-3

    def test_cutoff_mismatch(self):
        with pytest.raises(ValueError):
            build_teleporter_input(
                coherent_state(0.3, 10), coherent_state(0.3, CUTOFF), CUTOFF
            )


class TestOutcomeEnumeration:
    def test_distribution_sums_to_one(self):
        st = build_teleporter_input(
            coherent_state(0.5, CUTOFF), cat_state(math.sqrt(2) * 0.5, "odd", CUTOFF), CUTOFF
        )
        records = enumerate_outcomes(st)
        assert abs(sum(r.probability for r in records) - 1.0) < 1e-10

    def test_ideal_resource_failure_weights(self):
        alpha = 0.5
        res = cat_state(math.sqrt(2.0) * alpha, "odd", CUTOFF)
        st = build_teleporter_input(cat_state(alpha, "odd", CUTOFF), res, CUTOFF)
        records = enumerate_outcomes(st)
        zero_zero = next(r for r in records if r.n == 0 and r.m == 0)
        both = sum(r.probability for r in records if r.n > 0 and r.m > 0)
        assert zero_zero.probability < 1e-10
        assert both < 1e-10


class TestIdealTeleportation:
    def test_unity_fidelity_random_inputs(self):
        # cutoff 21 so the probability-1e-17 boundary outcomes (n or m at
        # the cutoff) converge below the 1e-8 tolerance
        for alpha in (0.3, 0.5, 0.8):
            for spec in _random_qubits(10, alpha):
                summary = run_teleportation(
                    spec, ResourceSpec("ideal-odd-cat", math.sqrt(2.0) * alpha), 21
                )
                for rec in summary.outcomes:
                    if rec.accepted and rec.fidelity is not None:
                        assert rec.fidelity > 1 - 1e-8

    def test_odd_cat_input_success_probability_one(self):
        for alpha in (0.3, 0.5, 0.8):
            summary = run_teleportation(
                InputSpec("odd-cat", alpha),
                ResourceSpec("ideal-odd-cat", math.sqrt(2.0) * alpha),
                CUTOFF,
            )
            assert abs(summary.success_probability - 1.0) < 1e-10

    def test_even_resource_unity_fidelity(self):
        # parity-swapped correction table makes the even cat an exact resource
        alpha = 0.4
        summary = run_teleportation(
            InputSpec("even-cat", alpha),
            ResourceSpec("ideal-even-cat", math.sqrt(2.0) * alpha),
            CUTOFF,
        )
        assert summary.average_fidelity > 1 - 1e-8

    def test_fidelities_never_above_one(self):
        # Exact resources round the overlap weight a few ulps above the
        # probability: the even cat at beta = 0.45 averaged 1.0000000000000007.
        for kind in ("even", "odd"):
            for beta in (0.2, 0.45, 0.8):
                spec = InputSpec(f"{kind}-cat", beta / math.sqrt(2.0))
                resource = ResourceSpec(f"ideal-{kind}-cat", beta)
                for summary in (
                    run_teleportation(spec, resource, CUTOFF),
                    run_entanglement_swap(InputSpec(f"{kind}-cat", beta), resource, CUTOFF),
                ):
                    assert summary.average_fidelity <= 1.0
                    assert all(
                        rec.fidelity <= 1.0 for rec in summary.outcomes if rec.fidelity is not None
                    )


class TestSqueezedResource:
    def test_fidelity_above_threshold(self):
        # all input kinds stay above 0.99 up to beta = 1.2
        for beta in (0.4, 0.8, 1.2):
            alpha = beta / math.sqrt(2.0)
            for kind in ("coherent", "odd-cat", "even-cat", "squeezed-single-photon", "squeezed-vacuum"):
                summary = run_teleportation(
                    InputSpec(kind, alpha),
                    ResourceSpec("squeezed-single-photon", beta),
                    CUTOFF,
                )
                assert summary.average_fidelity > 0.99

    def test_even_resource_window(self):
        # squeezed-vacuum resource works only at small amplitude
        lo = run_teleportation(
            InputSpec("squeezed-vacuum", 0.45 / math.sqrt(2.0)),
            ResourceSpec("squeezed-vacuum", 0.45),
            CUTOFF,
        )
        hi = run_teleportation(
            InputSpec("squeezed-vacuum", 0.7 / math.sqrt(2.0)),
            ResourceSpec("squeezed-vacuum", 0.7),
            CUTOFF,
        )
        assert lo.average_fidelity > 0.99
        assert hi.average_fidelity < 0.99

    def test_resource_better_than_approximation(self):
        # teleporting with the approximate resource beats the raw
        # approximation fidelity of that resource to the ideal cat
        for beta in (0.8, 1.0, 1.2):
            summary = run_teleportation(
                InputSpec("odd-cat", beta / math.sqrt(2.0)),
                ResourceSpec("squeezed-single-photon", beta),
                CUTOFF,
            )
            approx = fidelity(
                squeezed_single_photon(r_opt(beta), CUTOFF), cat_state(beta, "odd", CUTOFF)
            )
            assert summary.average_fidelity > approx

    def test_input_dependence_is_minor(self):
        for beta in (0.6, 1.2):
            alpha = beta / math.sqrt(2.0)
            fids = []
            for mu, nu in INPUT_FAMILIES.values():
                summary = run_teleportation(
                    InputSpec("superposition", alpha, mu, nu),
                    ResourceSpec("squeezed-single-photon", beta),
                    CUTOFF,
                )
                fids.append(summary.average_fidelity)
            assert max(fids) - min(fids) < 0.05

    def test_include_z_outcomes_flag(self):
        summary = run_teleportation(
            InputSpec("odd-cat", 0.5),
            ResourceSpec("squeezed-single-photon", 0.5 * math.sqrt(2.0)),
            CUTOFF,
            include_z_outcomes=True,
        )
        assert 0.0 < summary.average_fidelity <= 1.0


class TestPerOutcome:
    def test_ideal_resource_all_m(self):
        alpha = 0.5
        for m in range(1, 6):
            fid = per_outcome_fidelity(
                InputSpec("odd-cat", alpha),
                ResourceSpec("ideal-odd-cat", math.sqrt(2.0) * alpha),
                m,
                CUTOFF,
            )
            assert fid == pytest.approx(1.0, abs=1e-8)

    def test_decreasing_in_m(self):
        beta = 1.0
        fids = [
            per_outcome_fidelity(
                InputSpec("odd-cat", beta / math.sqrt(2.0)),
                ResourceSpec("squeezed-single-photon", beta),
                m,
                CUTOFF,
            )
            for m in (1, 3, 5)
        ]
        assert fids[0] > fids[1] > fids[2]

    def test_small_beta_limit(self):
        fid = per_outcome_fidelity(
            InputSpec("odd-cat", 0.01),
            ResourceSpec("squeezed-single-photon", 0.01 * math.sqrt(2.0)),
            1,
            CUTOFF,
        )
        assert fid > 1 - 1e-6

    def test_m_validation(self):
        with pytest.raises(ValueError):
            per_outcome_fidelity(
                InputSpec("odd-cat", 0.5), ResourceSpec("ideal-odd-cat", 0.5), 0, CUTOFF
            )


class TestSuccessProbability:
    def test_ideal_resource_odd_cat_input(self):
        rows = success_probability_sweep(
            [0.3, 0.8, 1.2], {"odd-cat-superposition": (1.0, -1.0)}, ("ideal-odd-cat",), CUTOFF
        )
        for _, _, _, p in rows:
            assert abs(p - 1.0) < 1e-10

    def test_squeezed_resource_beats_half(self):
        grid = np.arange(0.1, 1.2 + 1e-9, 0.1)
        rows = success_probability_sweep(grid, None, ("squeezed-single-photon",), CUTOFF)
        for _, _, _, p in rows:
            assert p > 0.5

    def test_small_beta_coherent_limit(self):
        # coherent input against an ideal odd cat: P -> 1/2 as beta -> 0
        rows = success_probability_sweep(
            [1e-3], {"coherent": (1.0, 0.0)}, ("ideal-odd-cat",), CUTOFF
        )
        assert rows[0][3] == pytest.approx(0.5, abs=1e-3)

    def test_never_above_one(self):
        # the beamsplitters can round the retained norm a few ulps above 1
        rows = success_probability_sweep([0.1, 0.2, 0.3])
        assert all(0.0 <= p <= 1.0 for _, _, _, p in rows)

    def test_both_nonzero_weight(self):
        beta = 1.0
        ideal = run_teleportation(
            InputSpec("odd-cat", beta / math.sqrt(2.0)),
            ResourceSpec("ideal-odd-cat", beta),
            CUTOFF,
        )
        squeezed = run_teleportation(
            InputSpec("odd-cat", beta / math.sqrt(2.0)),
            ResourceSpec("squeezed-single-photon", beta),
            CUTOFF,
        )
        assert ideal.both_nonzero_weight() < 1e-10
        assert squeezed.both_nonzero_weight() > 1e-6

    def test_both_nonzero_grows_with_beta(self):
        weights = []
        for beta in (0.4, 0.8, 1.2):
            summary = run_teleportation(
                InputSpec("odd-cat", beta / math.sqrt(2.0)),
                ResourceSpec("squeezed-single-photon", beta),
                CUTOFF,
            )
            weights.append(summary.both_nonzero_weight())
        assert weights[0] < weights[1] < weights[2]


class TestEntanglementSwap:
    def test_ideal_cat_unity(self):
        summary = run_entanglement_swap(
            InputSpec("odd-cat", 0.5), ResourceSpec("ideal-odd-cat", 0.5), CUTOFF
        )
        for rec in summary.outcomes:
            if rec.fidelity is not None:
                assert rec.fidelity > 1 - 1e-8

    def test_squeezed_single_photon_threshold(self):
        for beta in (0.5, 1.0):
            summary = run_entanglement_swap(
                InputSpec("squeezed-single-photon", beta),
                ResourceSpec("squeezed-single-photon", beta),
                CUTOFF,
            )
            assert summary.average_fidelity > 0.99

    def test_squeezed_vacuum_window(self):
        lo = run_entanglement_swap(
            InputSpec("squeezed-vacuum", 0.4),
            ResourceSpec("squeezed-vacuum", 0.4),
            CUTOFF,
        )
        hi = run_entanglement_swap(
            InputSpec("squeezed-vacuum", 0.7),
            ResourceSpec("squeezed-vacuum", 0.7),
            CUTOFF,
        )
        assert lo.average_fidelity > 0.99
        assert hi.average_fidelity < 0.99

    def test_summary_bookkeeping(self):
        summary = run_entanglement_swap(
            InputSpec("squeezed-single-photon", 0.5),
            ResourceSpec("squeezed-single-photon", 0.5),
            CUTOFF,
        )
        accepted = sum(r.probability for r in summary.outcomes if r.accepted)
        assert summary.success_probability == pytest.approx(accepted)
        assert not summary.degenerate
