"""Evaluation metrics: pooled coordinate deviation, per-segment recall, and
the noise-robustness index combining clean and noisy scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HIGHER_BETTER = "higher_better"
LOWER_BETTER = "lower_better"

DEFAULT_RECALL_TOLERANCE_M = 0.5


@dataclass(frozen=True)
class EvalReport:
    """Pooled metrics.

    ``acd`` pools deviations over all points; ``ar`` averages per-segment
    recall without weighting by segment size.  Predictions are matched to
    ground truth by index.
    """

    acd: float
    ar: float


def evaluate_segments(pred, truth, tau: float = DEFAULT_RECALL_TOLERANCE_M) -> EvalReport:
    """Point-pooled ACD (meters) and segment-averaged AR.

    ``pred`` and ``truth`` are sequences of (M_i, 2) arrays of local-frame
    meters, index-aligned within each segment.  A point counts toward recall
    when it lies strictly within ``tau`` meters of its truth.
    """
    if not 0 < tau < np.inf:
        raise ValueError("tau must be positive and finite")
    if len(pred) != len(truth):
        raise ValueError(f"segment count mismatch: {len(pred)} vs {len(truth)}")
    if len(pred) == 0:
        raise ValueError("no segments to evaluate")
    devs = []
    for i, (p, t) in enumerate(zip(pred, truth)):
        p = np.asarray(p, dtype=float)
        t = np.asarray(t, dtype=float)
        if p.shape != t.shape or p.ndim != 2 or p.shape[1] != 2:
            raise ValueError(f"segment {i}: point arrays must share an (M, 2) shape")
        if p.shape[0] == 0:
            raise ValueError(f"segment {i}: empty point list")
        devs.append(np.hypot(*(p - t).T))
    recalls = [float((d < tau).mean()) for d in devs]
    pooled_acd = float(sum(d.sum() for d in devs) / sum(d.size for d in devs))
    return EvalReport(acd=pooled_acd, ar=float(np.mean(recalls)))


def robustness_index(r_noisy: float, r_clean: float, direction: str) -> float:
    """Unified robustness score from a metric's clean and noisy values.

    For higher-is-better metrics (recall): the relative change, reported in
    percent (scale-invariant, so fractions and percentages give the same
    result).  For lower-is-better metrics (deviation): the square root of the
    absolute change times the clean value.  Smaller is more robust.
    """
    if direction == HIGHER_BETTER:
        if r_clean == 0:
            raise ValueError("clean reference must be nonzero for a relative change")
        return 100.0 * abs(r_noisy - r_clean) / abs(r_clean)
    if direction == LOWER_BETTER:
        return float(np.sqrt(abs(r_noisy - r_clean)) * r_clean)
    raise ValueError(f"unknown direction {direction!r}")
