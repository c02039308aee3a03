import math
from functools import partial

import numpy as np
import pytest
from dense_circuit import mixed, tables
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_engine import _assert_matches, _reference_teleport

from cskit import fock, loss, protocols
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
from cskit.protocols import (
    RESOURCE_KINDS,
    InputSpec,
    ResourceSpec,
    _bells,
    _edge_counts,
    _rejected_counts,
    _tables,
    run_entanglement_swap,
    run_teleportation,
    state_kinds,
)


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

    @pytest.mark.parametrize("include_z", [False, True])
    def test_even_cat_without_source(self, include_z):
        # the matched even cat at eta1 = 0 is the vacuum, whose Z flip is |1>,
        # the odd cat's alpha -> 0 limit: Z-type outcomes get its fidelity
        spec, loss_config = InputSpec("even-cat", 0.5), LossConfig(0.0, 0.7)
        res = ResourceSpec("squeezed-single-photon", 0.5 * math.sqrt(2.0))
        summary = run_lossy_teleportation(spec, res, loss_config, 6, include_z)
        z_type = [o for o in summary.outcomes if o.accepted and "Z" in o.correction]
        assert z_type and all(o.fidelity is not None for o in z_type if o.probability)
        reference = _reference_teleport(spec.at_alpha(0.0), res, loss_config, 6, include_z)
        _assert_matches(summary, *reference)

    def test_mode_count(self):
        # The dense circuit's axes are the counters, the outputs, then the
        # source's environment: detector loss adds no mode. The engine's
        # probability table is that circuit's, summed over everything else.
        cutoff, eta1 = 6, 0.3
        d = cutoff + 1
        qubit = InputSpec("coherent", 0.3).to_fock(cutoff)
        resource = ResourceSpec("squeezed-single-photon", 0.3).to_fock(cutoff)
        lost = fock.detector_response(cutoff, 1.0 - eta1) @ np.abs(resource.amps) ** 2
        for left, outputs in ((qubit.amps, 1), (_bells(qubit.amps), 2)):
            assert mixed(left, resource, 1.0).shape == (d,) * (2 + outputs)
            amps = mixed(left, resource, eta1)
            assert amps.shape == (d,) * (3 + outputs)
            # the last axis holds the photons the source lost
            env = np.sum(np.abs(amps) ** 2, axis=tuple(range(amps.ndim - 1)))
            assert np.abs(env - lost).max() < 1e-9
            counts = (_edge_counts(d), _rejected_counts(d))
            [[probs]], _ = _tables(counts, left[None], _bells(resource.amps, eta1)[None])
            assert np.abs(probs - tables(amps)[0][0]).max() < 1e-13

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
        lossy = run_lossy_entswap(phi, res, LossConfig(1.0, 1.0), cutoff=5)
        assert abs(lossy.average_fidelity - lossless.average_fidelity) < 1e-10
        assert abs(lossy.success_probability - lossless.success_probability) < 1e-10

    def test_family_closeness(self):
        # ideal odd cat and squeezed single photon give nearly the same
        # lossy surface at beta = 0.5
        for eta in ((0.9, 0.9), (0.7, 0.8)):
            loss = LossConfig(*eta)
            a = run_lossy_entswap(
                InputSpec("odd-cat", 0.5), ResourceSpec("ideal-odd-cat", 0.5),
                loss, cutoff=5,
            )
            b = run_lossy_entswap(
                InputSpec("squeezed-single-photon", 0.5),
                ResourceSpec("squeezed-single-photon", 0.5),
                loss, cutoff=5,
            )
            assert abs(a.average_fidelity - b.average_fidelity) < 0.02

    def test_even_variant_more_loss_tolerant(self):
        loss = LossConfig(0.9, 0.9)
        odd = run_lossy_entswap(
            InputSpec("squeezed-single-photon", 0.5),
            ResourceSpec("squeezed-single-photon", 0.5),
            loss, cutoff=5,
        )
        even = run_lossy_entswap(
            InputSpec("squeezed-vacuum", 0.5),
            ResourceSpec("squeezed-vacuum", 0.5),
            loss, cutoff=5,
        )
        assert even.average_fidelity > odd.average_fidelity


class TestLosslessIsTheLossyRunAtEtaOne:
    """The lossy runners at LossConfig() return the lossless runners' summaries, bit for bit."""

    @pytest.mark.parametrize("amplitude", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize(
        "input_kind, resource_kind",
        [
            ("squeezed-single-photon", "squeezed-single-photon"),
            ("odd-cat", "ideal-odd-cat"),
            ("even-cat", "ideal-even-cat"),
            ("coherent", "squeezed-vacuum"),
        ],
    )
    def test_teleport(self, input_kind, resource_kind, amplitude):
        spec = InputSpec(input_kind, amplitude)
        res = ResourceSpec(resource_kind, math.sqrt(2.0) * amplitude)
        lossless = run_teleportation(spec, res, 6)
        lossy = run_lossy_teleportation(spec, res, LossConfig(), 6)
        assert lossy == lossless
        assert lossy.outcomes == lossless.outcomes

    # away from 0.5, as the runners take alpha and beta from the specs alone
    @pytest.mark.parametrize("amplitude", [0.0, 0.3, 0.8, 0.9])
    @pytest.mark.parametrize(
        "phi_kind, resource_kind",
        [
            ("squeezed-single-photon", "squeezed-single-photon"),
            ("odd-cat", "ideal-odd-cat"),
            ("even-cat", "ideal-even-cat"),
            ("squeezed-vacuum", "squeezed-vacuum"),
        ],
    )
    def test_entswap(self, phi_kind, resource_kind, amplitude):
        phi = InputSpec(phi_kind, amplitude)
        res = ResourceSpec(resource_kind, amplitude)
        lossless = run_entanglement_swap(phi, res, 5)
        lossy = run_lossy_entswap(phi, res, LossConfig(), 5)
        assert lossy == lossless
        assert lossy.outcomes == lossless.outcomes

    def test_contour_cell_at_one_is_the_lossless_run(self):
        """The (1, 1) cell of a contour among lossy cells reads alpha and beta from the specs."""
        spec = InputSpec("squeezed-single-photon", 0.3)
        res = ResourceSpec("squeezed-single-photon", 0.3 * math.sqrt(2.0))
        rows = loss_contour_sweep("teleport", spec, res, [0.5, 1.0], [0.5, 1.0], 6)
        assert rows[-1] == (1.0, 1.0, run_teleportation(spec, res, 6).average_fidelity)

    @pytest.mark.parametrize("protocol", ["teleport", "entswap"])
    def test_eta2_row_of_ones_is_the_lossless_run(self, protocol):
        """A row of several eta2 values, every one 1, maps the tables through identity responses.

        Each cell of the contour and each summary of the row, outcomes
        included, is the lossless run's, bit for bit.
        """
        spec = InputSpec("odd-cat", 0.4)
        if protocol == "teleport":
            res = ResourceSpec("squeezed-single-photon", 0.4 * math.sqrt(2.0))
            lossless = run_teleportation(spec, res, 5)
        else:
            res = ResourceSpec("squeezed-single-photon", 0.4)
            lossless = run_entanglement_swap(spec, res, 5)
        rows = loss_contour_sweep(protocol, spec, res, [1.0], [1.0, 1.0], 5)
        assert rows == [(1.0, 1.0, lossless.average_fidelity)] * 2
        assert protocols._responses(((1.0, 1.0),), 5, res.parity)[0] is not None
        [[summaries]] = protocols._runs(
            protocol, spec, [spec.alpha], res.kind, [res.beta], 5, [1.0], ((1.0, 1.0),)
        )
        assert len(summaries) == 2
        for summary in summaries:
            assert summary == lossless
            assert summary.outcomes == lossless.outcomes


def test_default_cutoffs_come_from_loss_cutoffs(monkeypatch):
    monkeypatch.setattr(loss, "LOSS_CUTOFFS", {"teleport": 4, "entswap": 3})
    spec = InputSpec("squeezed-single-photon", 0.4)
    res = ResourceSpec("squeezed-single-photon", 0.4 * math.sqrt(2.0))
    config = LossConfig(0.9, 0.8)
    assert len(run_lossy_teleportation(spec, res, config).outcomes) == 5 * 5
    swapped = run_lossy_entswap(spec, ResourceSpec("squeezed-single-photon", 0.4), config)
    assert len(swapped.outcomes) == 4 * 4
    prob, rho = conditional_output_density(spec, res, config, 0, 1)
    assert prob > 0.0
    assert rho.elems.shape == (5, 5)


class TestSweeps:
    def test_diagonal_endpoint_matches_lossless(self):
        spec = InputSpec("squeezed-single-photon", 0.5)
        res = ResourceSpec("squeezed-single-photon", 0.5 * math.sqrt(2.0))
        rows = loss_diagonal_sweep("teleport", spec, res, eta_grid=[1.0], cutoff=6)
        lossless = run_teleportation(spec, res, 6)
        assert abs(rows[0][1] - lossless.average_fidelity) < 1e-10

    def test_diagonal_monotone_nondecreasing(self):
        spec = InputSpec("odd-cat", 0.5)
        res = ResourceSpec("ideal-odd-cat", 0.5 * math.sqrt(2.0))
        rows = loss_diagonal_sweep(
            "teleport", spec, res, eta_grid=np.arange(0.1, 1.0 + 1e-9, 0.1), cutoff=5
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
            [f for _, f in loss_diagonal_sweep("teleport", spec, res, etas, 5)]
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
            ResourceSpec("squeezed-single-photon", beta), etas, 5,
        )
        cat = loss_diagonal_sweep(
            "teleport", InputSpec("odd-cat", alpha),
            ResourceSpec("squeezed-single-photon", beta), etas, 5,
        )
        for (_, fc), (_, fo) in zip(coh, cat):
            assert fc > 0.95
            assert fc >= fo - 1e-12

    def test_contour_shape(self):
        rows = loss_contour_sweep(
            "entswap",
            InputSpec("squeezed-single-photon", 0.5),
            ResourceSpec("squeezed-single-photon", 0.5),
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
                ResourceSpec("ideal-odd-cat", 0.3), [1.0], 4,
            )

    def test_empty_grids_give_no_rows(self):
        spec = InputSpec("coherent", 0.3)
        res = ResourceSpec("ideal-odd-cat", 0.3 * math.sqrt(2.0))
        assert loss_contour_sweep("teleport", spec, res, [], [0.5], 3) == []
        assert loss_contour_sweep("teleport", spec, res, [0.5], [], 3) == []
        assert loss_diagonal_sweep("teleport", spec, res, [], 3) == []

    @pytest.mark.parametrize(
        "grids",
        [{"eta2_grid": [0.5, 1.5]}, {"eta1_grid": [1.0, -0.1]}, {"eta2_grid": [float("nan")]}],
    )
    def test_grid_outside_unit_interval_raises_before_any_run(self, monkeypatch, grids):
        def no_run(*args):
            raise AssertionError("a circuit ran before the grid was checked")

        monkeypatch.setattr(loss, "_runs", no_run)
        with pytest.raises(ValueError):
            loss_contour_sweep(
                "teleport", InputSpec("coherent", 0.3),
                ResourceSpec("ideal-odd-cat", 0.3 * math.sqrt(2.0)), cutoff=3, **grids,
            )

    def test_fine_grid_builds_each_response_once(self):
        # 101 etas cycle through the 64-entry response cache, so a response
        # built per row rather than per sweep would miss on every cell
        fock.detector_response.cache_clear()
        fock._loss_amplitudes.cache_clear()
        grid = [i / 100 for i in range(101)]
        rows = loss_contour_sweep(
            "teleport", InputSpec("squeezed-single-photon", 0.5),
            ResourceSpec("squeezed-single-photon", 0.5 * math.sqrt(2.0)),
            eta1_grid=grid, eta2_grid=grid, cutoff=2,
        )
        assert len(rows) == 101 * 101
        assert fock.detector_response.cache_info().misses <= 101


mixed_eta_grids = st.lists(
    st.sampled_from([0.0, 0.3, 0.65, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=3
).map(lambda etas: [0.0, *etas, 1.0])


@pytest.mark.parametrize("resource_kind", RESOURCE_KINDS)
@pytest.mark.parametrize("input_kind", state_kinds("input"))
@pytest.mark.parametrize("protocol", ["teleport", "entswap"])
@settings(derandomize=True, database=None, deadline=None, max_examples=3)
@given(amplitude=st.sampled_from([0.0, 0.3, 0.5]), etas=mixed_eta_grids)
@example(amplitude=0.5, etas=[0.0, 0.3, 1.0])
def test_sweep_cells_are_their_single_runs_bit_for_bit(
    protocol, input_kind, resource_kind, amplitude, etas
):
    """Every cell of a batched sweep is the same bits as its own lossy run.

    The grids mix eta = 0, interior values and 1, so circuits with and
    without source loss share one batch, and so does the even cat's input at
    eta1 = 0, which has no Z target, with the same input at other eta1.
    """
    cutoff = 4 if protocol == "teleport" else 3
    spec = InputSpec(input_kind, amplitude)
    if protocol == "teleport":
        resource = ResourceSpec(resource_kind, math.sqrt(2.0) * amplitude)
        run = partial(run_lossy_teleportation, spec, resource, cutoff=cutoff)
    else:
        resource = ResourceSpec(resource_kind, amplitude)
        run = partial(run_lossy_entswap, spec, resource, cutoff=cutoff)

    def single(eta1, eta2):
        return run(LossConfig(eta1, eta2)).average_fidelity

    sweep_args = (protocol, spec, resource)
    contour = loss_contour_sweep(*sweep_args, etas, etas, cutoff)
    assert [cell[:2] for cell in contour] == [(e1, e2) for e1 in etas for e2 in etas]
    for eta1, eta2, fid in contour:
        assert fid == single(eta1, eta2)
    diagonal = loss_diagonal_sweep(*sweep_args, etas, cutoff)
    assert diagonal == [(eta, single(eta, eta)) for eta in etas]
