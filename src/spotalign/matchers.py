"""Baseline point-set matchers used in the comparison study.

Four classics: nearest-candidate euclidean matching (ED), chamfer distance
(CD), the Hungarian assignment (HA), and exact discrete optimal transport
(WD).  ED and WD match against the full candidate set; CD and HA score
sliding windows of candidates, mirroring the window search of the main
method, and snap to the best window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from .roads import CandidateSet

ED = "ed"
CD = "cd"
HA = "ha"
WD = "wd"
BASELINE_METHODS = (ED, CD, HA, WD)


@dataclass(frozen=True)
class Assignment:
    """Point pairing (collected index -> candidate index) and its total cost."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def _as_xy(points) -> np.ndarray:
    xy = np.asarray(points, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError("expected an (N, 2) point array")
    return xy


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def ed_match(collected, candidates) -> Assignment:
    """Match each collected point to its nearest candidate (ties: lower index)."""
    a = _as_xy(collected)
    b = _as_xy(candidates)
    if a.size == 0 or b.size == 0:
        raise ValueError("ed_match needs non-empty point sets")
    dist = _pairwise_distances(a, b)
    idx = np.argmin(dist, axis=1)  # argmin returns the first (lowest) index on ties
    cost = float(dist[np.arange(len(a)), idx].sum())
    return Assignment(tuple((i, int(j)) for i, j in enumerate(idx)), cost)


def cd_distance(set_a, set_b) -> float:
    """Chamfer distance: symmetric sum of nearest-neighbor distances."""
    a = _as_xy(set_a)
    b = _as_xy(set_b)
    if a.size == 0 or b.size == 0:
        raise ValueError("cd_distance needs non-empty point sets")
    dist = _pairwise_distances(a, b)
    return float(dist.min(axis=1).sum() + dist.min(axis=0).sum())


def hungarian_assign(cost: np.ndarray) -> Assignment:
    """Minimum-cost bijective assignment; ties resolved to the
    lexicographically smallest pair list.

    The optimum value comes from the standard O(n^3) solver; the
    lexicographic refinement fixes rows in order, keeping the smallest
    column that still extends to an optimal completion.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    n = cost.shape[0]
    rows, cols = linear_sum_assignment(cost)
    optimum = float(cost[rows, cols].sum())
    tol = 1e-9 * max(1.0, abs(optimum))

    chosen: list[int] = []
    free = list(range(n))
    remaining = optimum
    for i in range(n):
        for j in sorted(free):
            rest = [c for c in free if c != j]
            if rest:
                rr, cc = linear_sum_assignment(cost[np.ix_(range(i + 1, n), rest)])
                completion = float(cost[np.ix_(range(i + 1, n), rest)][rr, cc].sum())
            else:
                completion = 0.0
            if cost[i, j] + completion <= remaining + tol:
                chosen.append(j)
                free.remove(j)
                remaining -= cost[i, j]
                break
        else:  # numerically possible only if tol was too tight; fall back
            j = free.pop(0)
            chosen.append(j)
            remaining -= cost[i, j]
    total = float(sum(cost[i, j] for i, j in enumerate(chosen)))
    return Assignment(tuple((i, j) for i, j in enumerate(chosen)), total)


def wd_match(collected, candidates) -> tuple[Assignment, float]:
    """Exact discrete optimal transport with uniform weights.

    Mass 1/M per collected point against 1/K per candidate; the reported
    mapping sends each collected point to the candidate receiving its largest
    mass share (ties: lower index).  Returns the assignment and the transport
    cost.
    """
    a = _as_xy(collected)
    b = _as_xy(candidates)
    if a.size == 0 or b.size == 0:
        raise ValueError("wd_match needs non-empty point sets")
    m, k = len(a), len(b)
    cost = _pairwise_distances(a, b)

    # marginals as equality constraints on the m*k transport variables
    row_marginal = np.zeros((m, m * k))
    for i in range(m):
        row_marginal[i, i * k:(i + 1) * k] = 1.0
    col_marginal = np.zeros((k, m * k))
    for j in range(k):
        col_marginal[j, j::k] = 1.0
    # drop one redundant constraint to keep the system full-rank
    a_eq = np.vstack([row_marginal, col_marginal[:-1]])
    b_eq = np.concatenate([np.full(m, 1.0 / m), np.full(k - 1, 1.0 / k)])
    res = linprog(cost.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(m, k)
    mapping = np.argmax(plan, axis=1)
    pairs = tuple((i, int(j)) for i, j in enumerate(mapping))
    return Assignment(pairs, float((plan * cost).sum())), float(res.fun)


def baseline_rectify(collected, candidate_set: CandidateSet, method: str) -> tuple[np.ndarray, int]:
    """Snap collected points to candidates using one of the four baselines.

    ED and WD pick per-point candidates from the full set.  CD and HA slide an
    M-wide window over the candidates (stride 1), score each window with the
    chamfer distance or the Hungarian optimum, and return the best window's
    candidates in order (ties: smaller start index).  Returns the snapped
    points as an (M, 2) array of candidate rows and the window start index
    (0 for the full-set methods).
    """
    pts = _as_xy(collected)
    cand = candidate_set.xy()
    m, k = len(pts), len(cand)
    if m == 0:
        raise ValueError("no collected points to rectify")

    if method == ED:
        return cand[[j for _, j in ed_match(pts, cand).pairs]], 0
    if method == WD:
        assignment, _ = wd_match(pts, cand)
        return cand[[j for _, j in assignment.pairs]], 0

    if k < m:
        raise ValueError(f"{k} candidates cannot window {m} collected points")
    if method == CD:
        scores = [cd_distance(pts, cand[i:i + m]) for i in range(k - m + 1)]
    elif method == HA:
        scores = []
        for i in range(k - m + 1):
            cost = _pairwise_distances(pts, cand[i:i + m])
            rows, cols = linear_sum_assignment(cost)
            scores.append(float(cost[rows, cols].sum()))
    else:
        raise ValueError(f"unknown baseline method {method!r}")
    best = int(np.argmin(scores))  # argmin keeps the smaller index on ties
    return cand[best:best + m], best
