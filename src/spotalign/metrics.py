"""Evaluation metrics: pooled coordinate deviation, per-segment recall, and
the noise-robustness index combining clean and noisy scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HIGHER_BETTER = "higher_better"
LOWER_BETTER = "lower_better"

DEFAULT_RECALL_TOLERANCE_M = 0.5


@dataclass(frozen=True)
class SegmentScore:
    segment_id: str
    acd: float
    ar: float


@dataclass(frozen=True)
class EvalReport:
    """Pooled metrics plus the per-segment breakdown they were pooled from.

    ``acd`` pools deviations over all points; ``ar`` averages per-segment
    recall without weighting by segment size.  Predictions are matched to
    ground truth by index.
    """

    acd: float
    ar: float
    per_segment: tuple[SegmentScore, ...]
    tau: float = DEFAULT_RECALL_TOLERANCE_M


def _deviations(pred, truth) -> list[np.ndarray]:
    if len(pred) != len(truth):
        raise ValueError(f"segment count mismatch: {len(pred)} vs {len(truth)}")
    if len(pred) == 0:
        raise ValueError("no segments to evaluate")
    out = []
    for i, (p, t) in enumerate(zip(pred, truth)):
        p = np.asarray(p, dtype=float)
        t = np.asarray(t, dtype=float)
        if p.shape != t.shape or p.ndim != 2 or p.shape[1] != 2:
            raise ValueError(f"segment {i}: point arrays must share an (M, 2) shape")
        if p.shape[0] == 0:
            raise ValueError(f"segment {i}: empty point list")
        out.append(np.hypot(*(p - t).T))
    return out


def acd(pred, truth) -> float:
    """Average point coordinate deviation in meters, pooled over all points.

    ``pred`` and ``truth`` are sequences of (M_i, 2) arrays of local-frame
    meters, index-aligned within each segment.
    """
    return evaluate_segments(range(len(pred)), pred, truth).acd


def ar(pred, truth, tau: float = DEFAULT_RECALL_TOLERANCE_M) -> float:
    """Average recall: per-segment fraction of points within ``tau`` meters,
    averaged over segments without size weighting."""
    return evaluate_segments(range(len(pred)), pred, truth, tau).ar


def evaluate_segments(ids, pred, truth, tau: float = DEFAULT_RECALL_TOLERANCE_M) -> EvalReport:
    """Per-segment scores plus point-pooled ACD and segment-averaged AR.

    ``ids`` names the segments of ``pred`` and ``truth``, one id each.
    """
    if not 0 < tau < np.inf:
        raise ValueError("tau must be positive and finite")
    devs = _deviations(pred, truth)
    if len(ids) != len(devs):
        raise ValueError(f"id count mismatch: {len(ids)} ids for {len(devs)} segments")
    per = tuple(
        SegmentScore(segment_id=str(sid), acd=float(d.mean()), ar=float((d < tau).mean()))
        for sid, d in zip(ids, devs)
    )
    pooled_acd = float(sum(d.sum() for d in devs) / sum(d.size for d in devs))
    mean_ar = float(np.mean([s.ar for s in per]))
    return EvalReport(acd=pooled_acd, ar=mean_ar, per_segment=per, tau=tau)


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
