"""The masked-reduction herald: an oracle for the engine's count-weight contraction.

``protocols._herald`` sums each lossless outcome table T against count
weights, <T, W_S> with W_S = M^T 1_S M. This is the route it replaced: map
every table through the counters (M T M^T), clip every probability to
[0, 1], build the fidelity table, and sum over the label masks, with
outcomes of zero probability adding nothing to the average. It shares
nothing with the engine past the tables, so the tests compare the two.
"""

import math
from dataclasses import dataclass

import numpy as np

from cskit.protocols import OutcomeRecord, classify_outcome


@dataclass(frozen=True)
class MaskedRun:
    """One run as the masked reduction gives it, read as a ``ProtocolSummary`` is read."""

    success_probability: float
    average_fidelity: float
    probabilities: np.ndarray
    fidelities: np.ndarray
    labels: np.ndarray

    @property
    def degenerate(self) -> bool:
        return self.average_fidelity is None

    def outcome(self, n: int, m: int) -> OutcomeRecord:
        label = str(self.labels[n, m])
        fidelity = float(self.fidelities[n, m])
        return OutcomeRecord(
            n, m, float(self.probabilities[n, m]), label, label != "none",
            None if math.isnan(fidelity) else fidelity,
        )

    @property
    def outcomes(self) -> tuple:
        counts = range(len(self.labels))
        return tuple(self.outcome(n, m) for n in counts for m in counts)

    def both_nonzero_weight(self) -> float:
        return float(self.probabilities[1:, 1:].sum())


def herald(tables, labels, responses, parity, include_z=False) -> list:
    """One list of MaskedRuns per circuit of ``tables``, one per eta2 of its counters.

    ``tables``, ``labels`` and ``include_z`` are as ``protocols._herald``
    reads them; ``responses`` is the engine's stack of detector responses,
    one row shared by every circuit or one row per circuit, or None for
    lossless counters.
    """
    n_eta = 1 if responses is None else responses.shape[1]
    if responses is not None:
        responses = responses[:, :, None]
        tables = responses @ tables[:, None] @ responses.swapaxes(-1, -2)
        tables = tables.reshape(-1, *tables.shape[2:])
    probs = np.clip(tables[:, 0], 0.0, 1.0)
    d = probs.shape[-1]
    label_table = np.array(
        [[classify_outcome(n, m, parity)[1] for m in range(d)] for n in range(d)]
    )
    success = np.minimum(probs[:, label_table != "none"].sum(axis=1), 1.0)
    fids = np.full(probs.shape, np.nan)
    weight = np.zeros(len(probs))
    overlap = np.zeros(len(probs))
    nonzero = probs != 0.0
    for label, table in zip(labels, tables[:, 1:].swapaxes(0, 1)):
        mask = label_table == label
        np.divide(table, probs, out=fids, where=mask & nonzero)
        if include_z or "Z" not in label:
            weight += probs[:, mask].sum(axis=1)
            overlap += np.where(nonzero, table, 0.0)[:, mask].sum(axis=1)
    np.minimum(fids, 1.0, out=fids)
    runs = [
        MaskedRun(float(p), min(o / w, 1.0) if w else None, table, f, label_table)
        for p, w, o, table, f in zip(success, weight, overlap, probs, fids)
    ]
    return [runs[i : i + n_eta] for i in range(0, len(runs), n_eta)]
