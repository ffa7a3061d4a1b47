"""Baseline point-set matchers used in the comparison study.

Four classics: nearest-candidate euclidean matching (ED), chamfer distance
(CD), the Hungarian assignment (HA), and exact discrete optimal transport
(WD), all run by :func:`baseline_rectify` from one point-to-candidate
distance matrix.  ED and WD match against the full candidate set; CD and HA
score sliding windows of candidates, mirroring the window search of the main
method, and snap to the best window; HA solves only the windows that two
lower bounds on the assignment optimum cannot rule out.  WD snaps by
capacity-1 transport, which is one rectangular assignment, so no transport
LP is solved.
:func:`hungarian_assign` is the square assignment with lexicographic ties.
"""

from __future__ import annotations

import functools
import importlib
import math
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
# so it loads on first use.  The matchers look the solver up at call time,
# which keeps it replaceable (e.g. by wrappers that time it).
@functools.cache
def _optimize():
    return importlib.import_module("scipy.optimize")


def linear_sum_assignment(cost):
    """:func:`scipy.optimize.linear_sum_assignment`."""
    return _optimize().linear_sum_assignment(cost)


# no library caller: perfbench's tracer wraps it until ROADMAP item 2 drops matchers.linprog.ms_p50
def linprog(c, **kwargs):
    """:func:`scipy.optimize.linprog`."""
    return _optimize().linprog(c, **kwargs)


def _as_xy(points) -> np.ndarray:
    xy = np.asarray(points, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError("expected an (N, 2) point array")
    if not np.isfinite(xy).all():
        raise ValueError("point coordinates must be finite")
    return xy


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


def _window_sums(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per M-wide window of candidate columns: the sum of the M row minima
    and the sum of the M column minima (the chamfer distance's two halves).

    The row minima come by doubling: after the step with width w, column j
    of ``block`` holds each row's minimum over columns j .. j + 2w - 1, and
    two overlapping blocks of the largest such width cover any M columns.
    A minimum is exact whatever the order of its operands, so the (M, W)
    array of window row minima, and its sums, are bitwise those of a
    direct scan, at O(MK log M) cost instead of O(M^2 W).
    """
    m, k = dist.shape
    block, w = dist, 1
    while 2 * w <= m:
        block = np.minimum(block[:, :-w], block[:, w:])
        w *= 2
    rows = np.minimum(block[:, :k - m + 1], block[:, m - w:])
    return rows.sum(axis=0), np.lib.stride_tricks.sliding_window_view(dist.min(axis=0), m).sum(axis=1)


def _reduction_bound(cost: np.ndarray) -> float:
    """Lower bound on the assignment optimum of a square ``cost``: subtract
    each row's minimum, then add each column's smallest remainder (and the
    same with rows and columns swapped; the larger of the two)."""
    u = cost.min(axis=1)
    v = cost.min(axis=0)
    return max(u.sum() + (cost - u[:, None]).min(axis=0).sum(), v.sum() + (cost - v).min(axis=1).sum())


def _best_window(dist: np.ndarray) -> int:
    """Start of the window with the smallest Hungarian optimum (ties: smaller start).

    Two lower bounds rule windows out.  Every window gets a cheap one
    first: the larger of its two :func:`_window_sums`.  Windows are solved
    in order of increasing cheap bound until one exceeds the best optimum
    so far.  After the first solve, each further window also gets its
    :func:`_reduction_bound`, the value of a feasible dual (Kuhn's row and
    column reduction), and is skipped, not solved, when that bound exceeds
    the best optimum; the loop goes on, since it is ordered by the cheap
    bound only.  Each bound, like each optimum, is a sum of M non-negative
    terms whose rounding errors are relative to the window's own cost: a
    remainder c_ij - u_i is exactly >= 0 and rounds relative to c_ij.  So
    the 1e-9 margin covers them, and every window that could win or tie is
    solved.  (A prefix-sum difference would err relative to the whole row
    of columns, which the margin does not cover when the best cost is near
    0.)
    """
    m = dist.shape[0]
    bound = np.maximum(*_window_sums(dist))
    best, best_score, limit = 0, math.inf, math.inf
    for i in np.argsort(bound, kind="stable"):
        if bound[i] > limit:
            break
        window = dist[:, i:i + m]
        if limit < math.inf and _reduction_bound(window) > limit:
            continue
        score = _optimum(window)
        if score < best_score or (score == best_score and i < best):
            best, best_score, limit = int(i), score, score * (1 + 1e-9)
    return best


def baseline_rectify(collected, candidate_set: CandidateSet, method: str) -> tuple[np.ndarray, int]:
    """Snap collected points to candidates using one of the four baselines.

    ED and WD pick per-point candidates from the full set: ED the nearest
    one, WD the minimum-total-distance assignment of the points to distinct
    candidates.  CD and HA slide an M-wide window over the candidates
    (stride 1), score each window with the chamfer distance or the Hungarian
    optimum, and return the best window's candidates in order (ties: smaller
    start index); HA solves only the windows whose lower bound does not rule
    them out.  Returns the snapped points as an (M, 2) array of candidate
    rows and the window start index (0 for the full-set methods).  All four
    work from one point-to-candidate distance matrix; a window's scores use
    its column slice.  CD, HA and WD raise
    :class:`InsufficientCandidatesError` when K < M.
    """
    pts = _as_xy(collected)
    cand = candidate_set.xy()
    m, k = len(pts), len(cand)
    if m == 0:
        raise ValueError("no collected points to rectify")
    if k == 0:
        raise ValueError("no candidates to snap to")
    dist = np.hypot(np.subtract.outer(pts[:, 0], cand[:, 0]), np.subtract.outer(pts[:, 1], cand[:, 1]))

    if method == ED:
        return cand[np.argmin(dist, axis=1)], 0  # ties: lower index
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown baseline method {method!r}")
    candidate_set.window_count(m)  # InsufficientCandidatesError when K < M
    if method == WD:
        return cand[linear_sum_assignment(dist)[1]], 0
    if method == HA:
        best = _best_window(dist)
    else:
        rows, cols = _window_sums(dist)
        best = int(np.argmin(rows + cols))  # ties: smaller start
    return cand[best:best + m], best
