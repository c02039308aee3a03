"""The dense circuit the heralding engine replaced, kept as the oracle of its tables.

``mixed`` builds the whole amplitude array at the counters: the outer product
of the left factor and the resource's Bell pair, d^4 amplitudes for the
swapper (d^5 with source loss), through one 50:50 ``apply_beamsplitter``.
``tables`` sums |amps|^2 for the probability table and contracts each target
with the output axes by ``tensordot`` for the overlap tables.
"""

import numpy as np

from cskit.fock import FockVector, MultiModeState, apply_beamsplitter
from cskit.protocols import _bells


def mixed(left: np.ndarray, resource: FockVector, eta1: float) -> np.ndarray:
    """Amplitudes at the counters, axes (counter, counter, outputs..., [env]).

    The circuit's one full beamsplitter mixes ``left``'s last axis with the
    near half of the resource's Bell pair at 50:50, and a counter sits on
    each of its ports. ``left`` is the input (teleporter) or phi's Bell pair
    (swapper), whose near half is then the first output; the resource
    pair's far half is the last output.
    """
    pair = _bells(resource.amps, eta1)
    amps = np.multiply.outer(left, pair)
    k = left.ndim - 1
    state = MultiModeState((resource.cutoff,) * amps.ndim, amps)
    amps = apply_beamsplitter(state, k, k + 1, 0.5).amps
    env = (k + 2,) if pair.ndim == 3 else ()
    return amps.transpose(k, k + 1, *range(k), amps.ndim - 1, *env)


def tables(amps, target=None, z_target=None):
    """(tables, labels) over the (k, l) counts, from the amplitudes ``mixed`` gives.

    ``tables[0]`` sums |amps|^2 over all non-counter axes. Each further table
    contracts its label's target with the output axes and sums |overlap|^2
    over the environment axis; X and XZ targets carry a sign along their last
    axis, the X correction's pi phase.
    """
    d = amps.shape[0]
    probs = np.sum(np.abs(amps) ** 2, axis=tuple(range(2, amps.ndim)))
    if target is None:
        return probs[None], ()
    sign = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    targets = {"I": target, "X": sign * target}
    if z_target is not None:
        targets.update(Z=z_target, XZ=sign * z_target)
    outputs = range(target.ndim)
    overlap = np.tensordot(
        np.stack(list(targets.values())).conj(), amps,
        axes=([k + 1 for k in outputs], [k + 2 for k in outputs]),
    )
    overlaps = np.sum(np.abs(overlap) ** 2, axis=tuple(range(3, overlap.ndim)))
    return np.concatenate([probs[None], overlaps]), tuple(targets)
