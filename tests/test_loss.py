import math

import numpy as np
import pytest

from cskit.fock import coherent_state, fidelity, partial_trace, tensor
from cskit.loss import (
    LossConfig,
    attenuate,
    conditional_output_density,
    loss_contour_sweep,
    loss_diagonal_sweep,
    run_lossy_entswap,
    run_lossy_teleportation,
)
from cskit.protocols import InputSpec, ResourceSpec, run_entanglement_swap, run_teleportation


class TestLossConfig:
    def test_validation(self):
        LossConfig(0.0, 1.0)
        with pytest.raises(ValueError):
            LossConfig(1.2, 0.5)
        with pytest.raises(ValueError):
            LossConfig(0.5, -0.1)


class TestAttenuate:
    def test_eta_one_keeps_state(self):
        st = tensor([coherent_state(0.6, 10)])
        out = attenuate(st, 0, 1.0)
        assert out.num_modes == 2
        rho = partial_trace(out, 0)
        assert fidelity(coherent_state(0.6, 10), rho) > 1 - 1e-12

    def test_eta_zero_gives_vacuum(self):
        st = tensor([coherent_state(0.6, 10)])
        rho = partial_trace(attenuate(st, 0, 0.0), 0)
        assert abs(rho.elems[0, 0] - 1.0) < 1e-12

    def test_coherent_loss_rule(self):
        # reduced state of a lossy coherent state is |sqrt(eta) alpha>
        alpha, eta = 0.8, 0.6
        st = tensor([coherent_state(alpha, 15)])
        rho = partial_trace(attenuate(st, 0, eta), 0)
        want = coherent_state(math.sqrt(eta) * alpha, 15)
        assert fidelity(want, rho) > 1 - 1e-10


class TestLossyTeleportation:
    def test_lossless_reduction(self):
        spec = InputSpec("squeezed-single-photon", 0.4)
        res = ResourceSpec("squeezed-single-photon", 0.4 * math.sqrt(2.0))
        lossless = run_teleportation(spec, res, 6)
        lossy = run_lossy_teleportation(spec, res, LossConfig(1.0, 1.0), 6)
        assert abs(lossy.average_fidelity - lossless.average_fidelity) < 1e-10
        assert abs(lossy.success_probability - lossless.success_probability) < 1e-10
        for a, b in zip(lossless.outcomes, lossy.outcomes):
            assert (a.n, a.m) == (b.n, b.m)
            assert abs(a.probability - b.probability) < 1e-10

    def test_eta1_to_zero_limits(self):
        # matched squeezed input collapses to near-vacuum overlap, coherent
        # input tends to the vacuum which teleports trivially
        loss = LossConfig(1e-3, 1.0)
        matched = run_lossy_teleportation(
            InputSpec("squeezed-single-photon", 0.5),
            ResourceSpec("squeezed-single-photon", 0.5 * math.sqrt(2.0)),
            loss, 6,
        )
        coherent = run_lossy_teleportation(
            InputSpec("coherent", 0.5),
            ResourceSpec("squeezed-single-photon", 0.5 * math.sqrt(2.0)),
            loss, 6,
        )
        assert matched.average_fidelity < 0.05
        assert coherent.average_fidelity > 0.95

    @pytest.mark.xfail(
        strict=True,
        reason="the eta = 0 beamsplitter built by expm keeps ~1e-16 entries, so at "
        "eta2 = 0 the detectors see rounding noise (P ~ 4e-32) and the cell reports "
        "a fidelity made of that noise instead of being degenerate",
    )
    def test_dark_detectors_are_degenerate(self):
        # with eta2 = 0 no photon reaches a detector, so no outcome is accepted
        summary = run_lossy_teleportation(
            InputSpec("squeezed-single-photon", 0.5),
            ResourceSpec("squeezed-single-photon", 0.5 * math.sqrt(2.0)),
            LossConfig(0.5, 0.0), 6,
        )
        assert summary.degenerate

    def test_mode_count(self):
        # 3 working + 3 environment modes, asserted inside the run
        summary = run_lossy_teleportation(
            InputSpec("coherent", 0.3),
            ResourceSpec("squeezed-single-photon", 0.3 * math.sqrt(2.0)),
            LossConfig(0.8, 0.9), 6,
        )
        assert 0.0 < summary.success_probability <= 1.0

    def test_purification_matches_partial_trace(self):
        spec = InputSpec("odd-cat", 0.4)
        res = ResourceSpec("squeezed-single-photon", 0.4 * math.sqrt(2.0))
        loss = LossConfig(0.85, 0.9)
        cutoff = 5
        summary = run_lossy_teleportation(spec, res, loss, cutoff)
        matched = spec.at_alpha(math.sqrt(loss.eta1) * spec.alpha)
        target = matched.to_fock(cutoff)
        checked = 0
        for rec in summary.outcomes:
            if rec.fidelity is None or "Z" in rec.correction:
                continue
            prob, rho = conditional_output_density(spec, res, loss, rec.n, rec.m, cutoff)
            assert abs(prob - rec.probability) < 1e-12
            t = target if "X" not in rec.correction else target.phase_shifted(math.pi)
            assert abs(fidelity(t, rho) - rec.fidelity) < 1e-10
            checked += 1
        assert checked > 0


class TestLossyEntswap:
    def test_lossless_reduction(self):
        phi = InputSpec("squeezed-single-photon", 0.5)
        res = ResourceSpec("squeezed-single-photon", 0.5)
        lossless = run_entanglement_swap(phi, res, 5)
        lossy = run_lossy_entswap(phi, res, LossConfig(1.0, 1.0), beta=0.5, cutoff=5)
        assert abs(lossy.average_fidelity - lossless.average_fidelity) < 1e-10
        assert abs(lossy.success_probability - lossless.success_probability) < 1e-10

    def test_family_closeness(self):
        # ideal odd cat and squeezed single photon give nearly the same
        # lossy surface at beta = 0.5
        for eta in ((0.9, 0.9), (0.7, 0.8)):
            loss = LossConfig(*eta)
            a = run_lossy_entswap(
                InputSpec("odd-cat", 0.5), ResourceSpec("ideal-odd-cat", 0.5),
                loss, beta=0.5, cutoff=5,
            )
            b = run_lossy_entswap(
                InputSpec("squeezed-single-photon", 0.5),
                ResourceSpec("squeezed-single-photon", 0.5),
                loss, beta=0.5, cutoff=5,
            )
            assert abs(a.average_fidelity - b.average_fidelity) < 0.02

    def test_even_variant_more_loss_tolerant(self):
        loss = LossConfig(0.9, 0.9)
        odd = run_lossy_entswap(
            InputSpec("squeezed-single-photon", 0.5),
            ResourceSpec("squeezed-single-photon", 0.5),
            loss, beta=0.5, cutoff=5,
        )
        even = run_lossy_entswap(
            InputSpec("squeezed-vacuum", 0.5),
            ResourceSpec("squeezed-vacuum", 0.5),
            loss, beta=0.5, cutoff=5,
        )
        assert even.average_fidelity > odd.average_fidelity


class TestSweeps:
    def test_diagonal_endpoint_matches_lossless(self):
        spec = InputSpec("squeezed-single-photon", 0.5)
        res = ResourceSpec("squeezed-single-photon", 0.5 * math.sqrt(2.0))
        rows = loss_diagonal_sweep("teleport", spec, res, 0.5, eta_grid=[1.0], cutoff=6)
        lossless = run_teleportation(spec, res, 6)
        assert abs(rows[0][1] - lossless.average_fidelity) < 1e-10

    def test_diagonal_monotone_nondecreasing(self):
        spec = InputSpec("odd-cat", 0.5)
        res = ResourceSpec("ideal-odd-cat", 0.5 * math.sqrt(2.0))
        rows = loss_diagonal_sweep(
            "teleport", spec, res, 0.5, eta_grid=np.arange(0.1, 1.0 + 1e-9, 0.1), cutoff=5
        )
        fids = [f for _, f in rows]
        assert all(b >= a - 1e-6 for a, b in zip(fids, fids[1:]))

    def test_family_closeness_along_diagonal(self):
        # ideal+ideal, approx resource+ideal input, approx+approx at alpha=0.5
        alpha = 0.5
        beta = math.sqrt(2.0) * alpha
        families = [
            (InputSpec("odd-cat", alpha), ResourceSpec("ideal-odd-cat", beta)),
            (InputSpec("odd-cat", alpha), ResourceSpec("squeezed-single-photon", beta)),
            (
                InputSpec("squeezed-single-photon", alpha),
                ResourceSpec("squeezed-single-photon", beta),
            ),
        ]
        etas = [0.3, 0.6, 0.9]
        curves = [
            [f for _, f in loss_diagonal_sweep("teleport", spec, res, alpha, etas, 5)]
            for spec, res in families
        ]
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                gap = max(abs(a - b) for a, b in zip(curves[i], curves[j]))
                assert gap < 0.01

    def test_coherent_input_dominates_odd_cat(self):
        alpha = 0.5
        beta = math.sqrt(2.0) * alpha
        etas = [0.5, 0.7, 0.9, 1.0]
        coh = loss_diagonal_sweep(
            "teleport", InputSpec("coherent", alpha),
            ResourceSpec("squeezed-single-photon", beta), alpha, etas, 5,
        )
        cat = loss_diagonal_sweep(
            "teleport", InputSpec("odd-cat", alpha),
            ResourceSpec("squeezed-single-photon", beta), alpha, etas, 5,
        )
        for (_, fc), (_, fo) in zip(coh, cat):
            assert fc > 0.95
            assert fc >= fo - 1e-12

    def test_contour_shape(self):
        rows = loss_contour_sweep(
            "entswap",
            InputSpec("squeezed-single-photon", 0.5),
            ResourceSpec("squeezed-single-photon", 0.5),
            0.5,
            eta1_grid=[0.8, 1.0],
            eta2_grid=[0.9, 1.0],
            cutoff=4,
        )
        assert len(rows) == 4
        assert all(0.0 <= f <= 1.0 + 1e-12 for _, _, f in rows)

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            loss_diagonal_sweep(
                "beam-me-up", InputSpec("coherent", 0.3),
                ResourceSpec("ideal-odd-cat", 0.3), 0.3, [1.0], 4,
            )
