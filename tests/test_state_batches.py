"""Every row of a batched state build is the bits of its own one-row build.

Each kind of STATE_KINDS builds a batch of states as one (b, d) array
(``StateKind.rows``), and its public one-row build (``StateKind.build``, the
builders of ``cskit.catstates`` and ``cskit.fock``) is that batch's one-row
case. The qubit families of INPUT_FAMILIES are built the same way, from one
batch of even and one of odd cat rows, and match the closed form of
mu|alpha> + nu|-alpha>. A batch that holds one refused amplitude raises what
that amplitude's own build raises, and no build warns.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskit import fock, protocols
from cskit.catstates import cat_state, r_opt, r_opt_v, squeezed_single_photon, squeezed_vacuum
from cskit.fock import coherent_state, fock_basis_state
from cskit.protocols import INPUT_FAMILIES, STATE_KINDS, QubitSuperposition

CUTOFFS = (1, 2, 5, 15, 30, 200)
SQUEEZED = ("squeezed-single-photon", "squeezed-vacuum", "sq1", "sq0")


def _odd(amplitude, cutoff):
    return cat_state(amplitude, "odd", cutoff)


def _even(amplitude, cutoff):
    return cat_state(amplitude, "even", cutoff)


def _sq1(amplitude, cutoff):
    return squeezed_single_photon(r_opt(amplitude), cutoff)


def _sq0(amplitude, cutoff):
    return squeezed_vacuum(r_opt_v(amplitude), cutoff)


# The public one-row build of each kind, at an amplitude and a cutoff.
PUBLIC = {
    "vacuum": lambda amplitude, cutoff: fock_basis_state(0, cutoff),
    "single-photon": lambda amplitude, cutoff: fock_basis_state(1, cutoff),
    "coherent": coherent_state,
    "odd-cat": _odd,
    "even-cat": _even,
    "ideal-odd-cat": _odd,
    "ideal-even-cat": _even,
    "squeezed-single-photon": _sq1,
    "squeezed-vacuum": _sq0,
    "sq1": _sq1,
    "sq0": _sq0,
}


def _amplitudes(cutoff):
    """0, subnormals, the beta^2 = cutoff/3 edge and its neighbours, inside values, refused ones.

    The boundary values are refused by the coherent and cat kinds on one side only.
    """
    edge = math.sqrt(cutoff / 3)
    special = st.sampled_from(
        [0.0, 5e-324, 1e-160, edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    )
    refused = st.sampled_from([-0.5, 1e200, 2 * edge + 1, 40.0])
    inside = st.floats(0.0, edge)
    return st.one_of(special, inside, inside, refused)


def _squeezings():
    return st.one_of(
        st.sampled_from([0.0, 5e-324, 240.0, 710.0, math.inf, -0.1, 30.0]), st.floats(0.0, 3.0)
    )


def _quietly(build, *args):
    """What ``build(*args)`` returns, or the ValueError it raises; a RuntimeWarning fails."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build(*args)
        except ValueError as exc:
            result = exc
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    return result


def _same(a, b):
    """The same FockVector bits, or the same error."""
    if isinstance(a, ValueError) or isinstance(b, ValueError):
        return (type(a), str(a)) == (type(b), str(b))
    return a.amps.tobytes() == b.amps.tobytes() and a.leakage == b.leakage


def _check_batch(batched, one_rows, values):
    """Every accepted value's row of ``batched`` is its one-row FockVector, bit for bit.

    Each builder of ``one_rows`` is a one-row build, and they agree. A batch
    of the accepted values with one refused value put in at each position
    raises what the refused value's one-row build raises.
    """
    singles = [_quietly(one_rows[0], value) for value in values]
    for one_row in one_rows[1:]:
        assert all(_same(_quietly(one_row, v), single) for v, single in zip(values, singles))
    accepted = [v for v, single in zip(values, singles) if not isinstance(single, ValueError)]
    if accepted:
        amps, leakage = _quietly(batched, accepted)
        rows = [single for single in singles if not isinstance(single, ValueError)]
        assert amps.shape == (len(rows), rows[0].dim)
        for row, single, leak in zip(amps, rows, leakage):
            assert np.asarray(row, dtype=complex).tobytes() == single.amps.tobytes()
            assert float(leak) == single.leakage
    for value, single in zip(values, singles):
        if not isinstance(single, ValueError):
            continue
        for at in range(len(accepted) + 1):
            raised = _quietly(batched, accepted[:at] + [value] + accepted[at:])
            assert isinstance(raised, ValueError)
            assert (type(raised), str(raised)) == (type(single), str(single))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(list(STATE_KINDS)),
    values=st.sampled_from(CUTOFFS).flatmap(
        lambda cutoff: st.tuples(st.just(cutoff), st.lists(_amplitudes(cutoff), max_size=4))
    ),
)
def test_kind_rows_are_their_one_row_builds(kind, values):
    cutoff, amplitudes = values
    rows = STATE_KINDS[kind].rows
    _check_batch(
        lambda batch: rows(batch, cutoff),
        [
            lambda amplitude: PUBLIC[kind](amplitude, cutoff),
            lambda amplitude: STATE_KINDS[kind].build(amplitude, cutoff),
        ],
        amplitudes,
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(SQUEEZED),
    cutoff=st.sampled_from(CUTOFFS),
    rs=st.lists(_squeezings(), max_size=4),
)
def test_squeezed_rows_at_given_squeezings(kind, cutoff, rs):
    rows = STATE_KINDS[kind].rows
    odd = kind in ("squeezed-single-photon", "sq1")
    public = squeezed_single_photon if odd else squeezed_vacuum
    _check_batch(
        lambda batch: rows([1.0] * len(batch), cutoff, batch),
        [lambda r: public(r, cutoff), lambda r: STATE_KINDS[kind].build(1.0, cutoff, r)],
        rs,
    )


@pytest.mark.parametrize("kind", [k for k in STATE_KINDS if k not in ("vacuum", "single-photon")])
def test_nan_amplitude_is_refused(kind):
    """A NaN amplitude raises a ValueError naming it, alone and at every place in a batch."""
    cutoff = 5
    refused = _quietly(PUBLIC[kind], math.nan, cutoff)
    assert isinstance(refused, ValueError) and str(refused).endswith("got nan")
    _check_batch(
        lambda batch: STATE_KINDS[kind].rows(batch, cutoff),
        [
            lambda amplitude: PUBLIC[kind](amplitude, cutoff),
            lambda amplitude: STATE_KINDS[kind].build(amplitude, cutoff),
        ],
        [0.0, 0.7, math.nan],
    )


@pytest.mark.parametrize("kind", SQUEEZED)
def test_nan_squeezing_is_refused(kind):
    public = squeezed_single_photon if kind in ("squeezed-single-photon", "sq1") else squeezed_vacuum
    refused = _quietly(public, math.nan, 5)
    assert isinstance(refused, ValueError) and str(refused).endswith("got nan")
    _check_batch(
        lambda batch: STATE_KINDS[kind].rows([1.0] * len(batch), 5, batch),
        [lambda r: public(r, 5), lambda r: STATE_KINDS[kind].build(1.0, 5, r)],
        [0.0, 0.4, math.nan],
    )


def test_nan_cat_resource_is_refused():
    with pytest.raises(ValueError, match="^beta must be >= 0, got nan$"):
        cat_state(math.nan, "odd", 5)
    with pytest.raises(ValueError, match="^beta must be >= 0, got nan$"):
        protocols.ResourceSpec("ideal-odd-cat", math.nan).to_fock(5)


def _closed_form(mu, nu, alpha, cutoff):
    """mu|alpha> + nu|-alpha> over 0..cutoff from its terms exp(-|alpha|^2 / 2) alpha^n / sqrt(n!),
    renormalized; |1> where every term of the superposition is 0 (mu = -nu at alpha -> 0).

    The terms run by the ratio alpha / sqrt(n) in Python complex arithmetic;
    the row is scaled by its largest entry before the norm, so no square underflows.
    """
    terms = [math.exp(-abs(alpha) ** 2 / 2)]
    for n in range(1, cutoff + 1):
        terms.append(terms[-1] * alpha / math.sqrt(n))
    amps = np.array([(mu + (-1) ** n * nu) * t for n, t in enumerate(terms)], dtype=complex)
    largest = np.max(np.abs(amps))
    if largest == 0.0:
        return np.eye(cutoff + 1)[1]
    amps = amps / largest
    return amps / np.linalg.norm(amps)


def _check_closed_form(mu, nu, alphas, cutoff, rows):
    for alpha, row in zip(alphas, rows):
        assert np.max(np.abs(row - _closed_form(mu, nu, alpha, cutoff))) <= 1e-14, alpha


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(list(INPUT_FAMILIES)),
    values=st.sampled_from(CUTOFFS).flatmap(
        lambda cutoff: st.tuples(st.just(cutoff), st.lists(_amplitudes(cutoff), max_size=4))
    ),
)
def test_qubit_family_rows_are_their_one_row_builds(family, values):
    """A batch row is the bits of its one-row build, and the closed form to within 1e-14."""
    cutoff, alphas = values
    mu, nu = INPUT_FAMILIES[family]

    def batched(batch):
        return fock._qubit_rows(mu, nu, batch, cutoff)

    one_row = [lambda alpha: QubitSuperposition(mu, nu, alpha).to_fock(cutoff)]
    _check_batch(batched, one_row, alphas)
    for alpha in alphas:
        built = _quietly(one_row[0], alpha)
        if not isinstance(built, ValueError):
            _check_closed_form(mu, nu, [alpha], cutoff, [built.amps])


@pytest.mark.parametrize("cutoff", [3, 6, 15])
@pytest.mark.parametrize("alpha", [0.0, 1e-9, 0.3, 0.7, 1.0])
def test_qubit_leakage_is_the_cats(cutoff, alpha):
    """mu|alpha> + nu|-alpha> loses the weight of the cat it is: odd for mu = -nu, even for mu = nu.

    The kept weight is taken over the exact norm of the superposition, so a
    scaled pair of coefficients reports the same leakage.
    """
    for (mu, nu), parity in (((1.0, -1.0), "odd"), ((1.0, 1.0), "even"), ((-2.5, -2.5), "even")):
        qubit = QubitSuperposition(mu, nu, alpha).to_fock(cutoff)
        assert abs(qubit.leakage - cat_state(alpha, parity, cutoff).leakage) <= 1e-15


@pytest.mark.parametrize("cutoff", [2, 15])
def test_qubit_families_over_one_grid_build_each_cat_row_once(cutoff, monkeypatch):
    """Row i of a family-major batch reads alpha i mod len(alphas): the bits of the tiled build.

    The grid's even and odd cat rows are built once each, for every family,
    and every row is the closed form of its family at its alpha.
    """
    alphas = np.array([0.0, 1e-160, 0.3, 0.7, 0.9 * math.sqrt(cutoff / 3)])
    mus, nus = np.array(list(INPUT_FAMILIES.values())).T
    mus, nus = mus.repeat(len(alphas)), nus.repeat(len(alphas))
    tiled = fock._qubit_rows(mus, nus, np.tile(alphas, len(INPUT_FAMILIES)), cutoff)
    built = []
    rows = fock._cat_rows
    monkeypatch.setattr(
        fock, "_cat_rows", lambda a, p, c: built.append((len(a), p)) or rows(a, p, c)
    )
    gathered = fock._qubit_rows(mus, nus, alphas, cutoff)
    assert built == [(len(alphas), "even"), (len(alphas), "odd")]
    for got, want in zip(gathered, tiled):
        assert np.array_equal(got, want)
    family_rows = gathered[0].reshape(len(INPUT_FAMILIES), len(alphas), -1)
    for (mu, nu), rows in zip(INPUT_FAMILIES.values(), family_rows):
        _check_closed_form(mu, nu, alphas, cutoff, rows)


@pytest.mark.parametrize("mu", [1.0, 2.5, 1j])
@pytest.mark.parametrize("alpha", [1e-157, 1e-160, 1e-162])
def test_tiny_odd_superposition_is_the_single_photon(mu, alpha):
    """mu|alpha> - mu|-alpha> keeps norm 1 and is |1> up to a phase where alpha^2 is subnormal or 0.

    Its odd cat weight is about 2 mu alpha: sqrt(alpha^2) of a subnormal square,
    and 0 once the square underflows.
    """
    vec = _quietly(lambda: QubitSuperposition(mu, -mu, alpha).to_fock(10))
    assert abs(np.linalg.norm(vec.amps) - 1.0) <= 1e-15
    assert abs(abs(vec.amps[1]) - 1.0) <= 1e-15
    assert np.array_equal(np.delete(vec.amps, 1), np.zeros(10))
    assert vec.leakage == 0.0
