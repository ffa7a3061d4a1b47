"""Baseline point-set matchers used in the comparison study.

Four classics: nearest-candidate euclidean matching (ED), chamfer distance
(CD), the Hungarian assignment (HA), and exact discrete optimal transport
(WD).  ED and WD match against the full candidate set; CD and HA score
sliding windows of candidates, mirroring the window search of the main
method, and snap to the best window.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass

import numpy as np

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


# scipy.optimize takes most of a second to import and only HA and WD need it,
# so scipy modules load on first use.  The matchers look the two solvers up at
# call time, which keeps them replaceable (e.g. by wrappers that time them).
@functools.cache
def _scipy(name: str):
    return importlib.import_module(f"scipy.{name}")


def linear_sum_assignment(cost):
    """:func:`scipy.optimize.linear_sum_assignment`."""
    return _scipy("optimize").linear_sum_assignment(cost)


def linprog(c, **kwargs):
    """:func:`scipy.optimize.linprog`."""
    return _scipy("optimize").linprog(c, **kwargs)


def _as_xy(points) -> np.ndarray:
    xy = np.asarray(points, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError("expected an (N, 2) point array")
    if not np.isfinite(xy).all():
        raise ValueError("point coordinates must be finite")
    return xy


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def _distances(set_a, set_b, name: str) -> np.ndarray:
    a = _as_xy(set_a)
    b = _as_xy(set_b)
    if a.size == 0 or b.size == 0:
        raise ValueError(f"{name} needs non-empty point sets")
    return _pairwise_distances(a, b)


def _nearest(dist: np.ndarray) -> Assignment:
    idx = np.argmin(dist, axis=1)  # argmin returns the first (lowest) index on ties
    cost = float(dist[np.arange(len(idx)), idx].sum())
    return Assignment(tuple((i, int(j)) for i, j in enumerate(idx)), cost)


def ed_match(collected, candidates) -> Assignment:
    """Match each collected point to its nearest candidate (ties: lower index)."""
    return _nearest(_distances(collected, candidates, "ed_match"))


def _chamfer(dist: np.ndarray) -> float:
    return float(dist.min(axis=1).sum() + dist.min(axis=0).sum())


def cd_distance(set_a, set_b) -> float:
    """Chamfer distance: symmetric sum of nearest-neighbor distances."""
    return _chamfer(_distances(set_a, set_b, "cd_distance"))


def _optimum(cost: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


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
    optimum = _optimum(cost)
    tol = 1e-9 * max(1.0, abs(optimum))

    chosen: list[int] = []
    free = list(range(n))
    remaining = optimum
    for i in range(n):
        for j in sorted(free):
            rest = [c for c in free if c != j]
            completion = _optimum(cost[np.ix_(range(i + 1, n), rest)]) if rest else 0.0
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


def _transport(cost: np.ndarray) -> tuple[Assignment, float]:
    m, k = cost.shape
    # transport variable i*k + j enters the marginal of collected point i (row
    # i) and of candidate j (row m + j)
    rows = (np.column_stack(np.divmod(np.arange(m * k), k)) + (0, m)).ravel()
    marginals = _scipy("sparse").csc_array(
        (np.ones(2 * m * k), rows, np.arange(0, 2 * m * k + 1, 2)), shape=(m + k, m * k)
    )
    # drop one redundant constraint to keep the system full-rank
    a_eq = marginals[:-1]
    b_eq = np.concatenate([np.full(m, 1.0 / m), np.full(k - 1, 1.0 / k)])
    res = linprog(cost.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(m, k)
    mapping = np.argmax(plan, axis=1)
    pairs = tuple((i, int(j)) for i, j in enumerate(mapping))
    return Assignment(pairs, float((plan * cost).sum())), float(res.fun)


def wd_match(collected, candidates) -> tuple[Assignment, float]:
    """Exact discrete optimal transport with uniform weights.

    Mass 1/M per collected point against 1/K per candidate; the reported
    mapping sends each collected point to the candidate receiving its largest
    mass share.  Exact ties are settled by float noise in the LP solver's
    plan, often toward the higher index.  Returns the assignment and the
    transport cost.
    """
    return _transport(_distances(collected, candidates, "wd_match"))


def baseline_rectify(collected, candidate_set: CandidateSet, method: str) -> tuple[np.ndarray, int]:
    """Snap collected points to candidates using one of the four baselines.

    ED and WD pick per-point candidates from the full set.  CD and HA slide an
    M-wide window over the candidates (stride 1), score each window with the
    chamfer distance or the Hungarian optimum, and return the best window's
    candidates in order (ties: smaller start index).  Returns the snapped
    points as an (M, 2) array of candidate rows and the window start index
    (0 for the full-set methods).  All four work from one point-to-candidate
    distance matrix; a window's scores use its column slice.  CD and HA raise
    :class:`InsufficientCandidatesError` when K < M.
    """
    pts = _as_xy(collected)
    cand = candidate_set.xy()
    m, k = len(pts), len(cand)
    if m == 0:
        raise ValueError("no collected points to rectify")
    if k == 0:
        raise ValueError("no candidates to snap to")
    dist = _pairwise_distances(pts, cand)

    if method == ED:
        return cand[[j for _, j in _nearest(dist).pairs]], 0
    if method == WD:
        return cand[[j for _, j in _transport(dist)[0].pairs]], 0

    n_windows = candidate_set.window_count(m)
    if method == CD:
        score = _chamfer
    elif method == HA:
        score = _optimum
    else:
        raise ValueError(f"unknown baseline method {method!r}")
    scores = [score(dist[:, i:i + m]) for i in range(n_windows)]
    best = int(np.argmin(scores))  # argmin keeps the smaller index on ties
    return cand[best:best + m], best
