import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spotalign.matchers
from spotalign.matchers import Assignment, baseline_rectify, hungarian_assign
from spotalign.geo import GeoPoint, make_frame, project_points, unproject_points
from spotalign.pipeline import CollectedSet, rectify, synth_corpus
from spotalign.roads import CandidateSet, SpotType, sample_candidates

from conftest import straight_segment


def brute_force_assignment(cost: np.ndarray) -> Assignment:
    """Oracle: lexicographic scan over all permutations, keep the first strict minimum."""
    n = cost.shape[0]
    best_perm, best_cost = None, math.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, j] for i, j in enumerate(perm))
        if total < best_cost - 1e-15:
            best_perm, best_cost = perm, total
    return Assignment(tuple(enumerate(best_perm)), float(best_cost))


def chamfer_double_loop(pts: np.ndarray, cand: np.ndarray) -> float:
    """Oracle: summed nearest-neighbor distances from each set to the other."""
    rows = sum(min(math.hypot(*(p - q)) for q in cand) for p in pts)
    cols = sum(min(math.hypot(*(p - q)) for p in pts) for q in cand)
    return rows + cols


def window_sums_sliding(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference: every window's row minima read off a sliding view, O(M^2 W)."""
    m = dist.shape[0]
    windows = np.lib.stride_tricks.sliding_window_view
    return windows(dist, m, axis=1).min(axis=2).sum(axis=0), windows(dist.min(axis=0), m).sum(axis=1)


def broadcast_distances(pts: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Reference: hypot of one broadcast (M, K, 2) difference."""
    diff = pts[:, None, :] - cand[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def draw_points(rng: np.random.Generator, n: int, grid: bool) -> np.ndarray:
    """Integer grid points (many tied distances) or float points of random scale."""
    if grid:
        return rng.integers(0, 4, (n, 2)).astype(float)
    return rng.normal(0, 10.0 ** rng.uniform(-3, 3), (n, 2))


def candidate_set(xy: np.ndarray) -> CandidateSet:
    return CandidateSet("grid", xy, np.arange(len(xy), dtype=float), make_frame(GeoPoint(0.0, 0.0)))


class TestEdMatch:
    CANDS = np.array([[1.0, 0.0], [3.0, 0.0]])

    def test_nearest(self):
        snapped, start = baseline_rectify(np.array([[0.0, 0.0]]), candidate_set(self.CANDS), "ed")
        assert snapped.tolist() == [[1.0, 0.0]]
        assert start == 0

    def test_tie_breaks_low_index(self):
        snapped, _ = baseline_rectify(np.array([[2.0, 0.0]]), candidate_set(self.CANDS), "ed")
        assert snapped.tolist() == [[1.0, 0.0]]

    def test_sqrt_argmin_invariance(self, rng):
        # Eq-style sqrt distance is monotone, so the chosen candidate matches
        for _ in range(50):
            pts = rng.uniform(-10, 10, (6, 2))
            cand = rng.uniform(-10, 10, (9, 2))
            dist = np.hypot(*(pts[:, None] - cand[None, :]).transpose(2, 0, 1))
            by_d = np.argmin(dist, axis=1)
            by_sqrt = np.argmin(np.sqrt(dist), axis=1)
            assert np.array_equal(by_d, by_sqrt)
            snapped, _ = baseline_rectify(pts, candidate_set(cand), "ed")
            assert np.array_equal(snapped, cand[by_d])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no collected points"):
            baseline_rectify(np.empty((0, 2)), candidate_set(np.array([[0.0, 0.0]])), "ed")


class TestHungarian:
    def test_two_by_two(self):
        out = hungarian_assign(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert out.pairs == ((0, 0), (1, 1))
        assert out.total_cost == pytest.approx(2.0)

    def test_identity_structured(self):
        cost = np.ones((4, 4)) - np.eye(4)
        out = hungarian_assign(cost)
        assert out.pairs == tuple((i, i) for i in range(4))
        assert out.total_cost == 0.0

    def test_lexicographic_tie_break(self):
        out = hungarian_assign(np.zeros((3, 3)))
        assert out.pairs == ((0, 0), (1, 1), (2, 2))

    def test_matches_enumeration(self, rng):
        for _ in range(25):
            cost = rng.uniform(0, 1, (6, 6))
            got = hungarian_assign(cost)
            want = brute_force_assignment(cost)
            assert got.pairs == want.pairs
            assert got.total_cost == pytest.approx(want.total_cost, abs=1e-12)

    def test_beats_random_permutations(self, rng):
        cost = rng.uniform(0, 5, (8, 8))
        best = hungarian_assign(cost).total_cost
        for _ in range(1000):
            perm = rng.permutation(8)
            assert best <= sum(cost[i, j] for i, j in enumerate(perm)) + 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            hungarian_assign(np.zeros((2, 3)))


class TestBaselineRectify:
    def make_candidates(self, m=8, k=20, spacing=6.0):
        seg = straight_segment((k - 1) * spacing, SpotType.PARALLEL)
        return sample_candidates(seg)

    def test_clean_points_fixed_by_all_methods(self):
        cands = self.make_candidates()
        window = cands.xy()[4:12]
        for method in ("ed", "cd", "ha", "wd"):
            snapped, _ = baseline_rectify(window, cands, method)
            got = np.array([(p[0], p[1]) for p in snapped])
            assert np.allclose(got, window, atol=1e-9), method

    def test_clean_points_fixed_by_wd_at_equal_sizes(self):
        seg = straight_segment(7 * 6.0, SpotType.PARALLEL)
        cands = sample_candidates(seg)
        window = cands.xy()
        snapped, _ = baseline_rectify(window, cands, "wd")
        got = np.array([(p[0], p[1]) for p in snapped])
        assert np.allclose(got, window, atol=1e-9)

    def test_wd_snaps_by_cheapest_injective_map(self, rng):
        # oracle: the smallest total distance over every injective map of the
        # collected points into the candidates
        for _ in range(40):
            k = int(rng.integers(2, 7))
            m = int(rng.integers(1, min(4, k) + 1))
            seg = straight_segment((k - 1) * 6.0, SpotType.PARALLEL)
            cands = sample_candidates(seg)
            assert len(cands) == k
            xy = np.column_stack([rng.uniform(-5, k * 6.0, m), rng.uniform(-8, 8, m)])
            collected = CollectedSet(seg.id, tuple(unproject_points(cands.frame, xy)))
            pts = project_points(cands.frame, collected.points)
            dist = np.hypot(*(pts[:, None] - cands.xy()[None, :]).transpose(2, 0, 1))
            oracle = min(sum(dist[i, j] for i, j in enumerate(cols))
                         for cols in itertools.permutations(range(k), m))
            out = rectify(collected, seg, "wd")
            assert out.loss == pytest.approx(oracle, rel=1e-12, abs=1e-9)
            snapped = project_points(cands.frame, out.points)
            to_cand = np.hypot(*(snapped[:, None] - cands.xy()[None, :]).transpose(2, 0, 1))
            assert to_cand.min(axis=1).max() < 1e-6
            assert len(set(np.argmin(to_cand, axis=1).tolist())) == m

    @pytest.mark.parametrize("method", ["cd", "ha"])
    def test_window_search_matches_exhaustive_search(self, method):
        # integer grids make many windows tie on their score (and, for HA, on
        # its lower bound); the smaller start index must still win
        rng = np.random.default_rng(7)
        tied = 0
        for _ in range(600):
            k = int(rng.integers(3, 13))
            m = int(rng.integers(1, k))
            cand = rng.integers(0, 3, (k, 2)).astype(float)
            pts = rng.integers(0, 3, (m, 2)).astype(float)
            if method == "cd":
                scores = [chamfer_double_loop(pts, cand[i:i + m]) for i in range(k - m + 1)]
            else:
                dist = np.hypot(*(pts[:, None] - cand[None, :]).transpose(2, 0, 1))
                scores = [spotalign.matchers._optimum(dist[:, i:i + m]) for i in range(k - m + 1)]
            want = int(np.argmin(scores))
            tied += scores.count(scores[want]) > 1
            snapped, start = baseline_rectify(pts, candidate_set(cand), method)
            assert start == want
            assert np.array_equal(snapped, cand[want:want + m])
        assert tied >= 150

    def test_ha_recovers_shifted_window(self, rng):
        cands = self.make_candidates()
        start = 7
        window = cands.xy()[start:start + 8] + rng.normal(0, 0.3, (8, 2))
        snapped, got_start = baseline_rectify(window, cands, "ha")
        assert got_start == start

    def test_cd_recovers_shifted_window(self, rng):
        cands = self.make_candidates()
        start = 5
        window = cands.xy()[start:start + 8] + rng.normal(0, 0.3, (8, 2))
        _, got_start = baseline_rectify(window, cands, "cd")
        assert got_start == start

    def test_ed_snaps_outlier_to_wrong_candidate(self):
        # the known nearest-neighbor failure mode: a displaced point lands on
        # whatever candidate happens to be closest to the corruption
        cands = self.make_candidates()
        truth = cands.xy()[4:12].copy()
        corrupted = truth.copy()
        corrupted[3] += np.array([20.0, 0.5])
        snapped, _ = baseline_rectify(corrupted, cands, "ed")
        wrong = snapped[3]
        assert math.hypot(wrong[0] - truth[3, 0], wrong[1] - truth[3, 1]) >= 6.0

    @pytest.mark.parametrize("method", ["ed", "cd", "ha", "wd"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_point_rejected(self, method, bad):
        cands = self.make_candidates()
        window = cands.xy()[4:12].copy()
        window[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            baseline_rectify(window, cands, method)

    def test_unknown_method_rejected(self):
        cands = self.make_candidates()
        with pytest.raises(ValueError):
            baseline_rectify(cands.xy()[:4], cands, "nearest")


class TestExactRewrites:
    """The matchers' fast forms give bitwise the values of the direct ones."""

    @given(m=st.one_of(st.sampled_from([1, 2, 4, 8, 16, 32]), st.integers(1, 40)),
           data=st.data(), seed=st.integers(0, 2**32 - 1), grid=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_window_sums_equal_sliding_view(self, m, data, seed, grid):
        k = data.draw(st.integers(m, 3 * m))
        rng = np.random.default_rng(seed)
        dist = broadcast_distances(draw_points(rng, m, grid), draw_points(rng, k, grid))
        rows, cols = spotalign.matchers._window_sums(dist)
        want_rows, want_cols = window_sums_sliding(dist)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(cols, want_cols)

    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           log_scale=st.floats(-6, 6), kind=st.sampled_from(["uniform", "ties", "zeros"]))
    @settings(max_examples=300, deadline=None)
    def test_reduction_bound_never_exceeds_optimum(self, n, seed, log_scale, kind):
        rng = np.random.default_rng(seed)
        if kind == "ties":
            cost = rng.integers(0, 3, (n, n)).astype(float)
        else:
            cost = rng.uniform(0, 1, (n, n))
            if kind == "zeros":
                cost[rng.uniform(size=(n, n)) < 0.3] = 0.0
        cost *= 10.0 ** log_scale
        bound = spotalign.matchers._reduction_bound(cost)
        assert 0.0 <= bound <= spotalign.matchers._optimum(cost) * (1 + 1e-9)

    @given(m=st.integers(1, 12), extra=st.integers(0, 12), seed=st.integers(0, 2**32 - 1), grid=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_distance_matrix_equals_broadcast_hypot(self, m, extra, seed, grid):
        # WD hands the full distance matrix to the assignment solver
        rng = np.random.default_rng(seed)
        pts, cand = draw_points(rng, m, grid), draw_points(rng, m + extra, grid)
        seen = []
        real = spotalign.matchers.linear_sum_assignment

        def capture(cost):
            seen.append(cost)
            return real(cost)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spotalign.matchers, "linear_sum_assignment", capture)
            baseline_rectify(pts, candidate_set(cand), "wd")
        assert len(seen) == 1
        assert np.array_equal(seen[0], broadcast_distances(pts, cand))

    def test_ha_solves_only_windows_neither_bound_rules_out(self, monkeypatch):
        # 19 solves with the window-sum bound alone; the reduction bound rules
        # out 7 more windows (test_baselines_golden pins the same corpus's winners)
        calls = []
        real = spotalign.matchers.linear_sum_assignment

        def counted(cost):
            calls.append(cost.shape)
            return real(cost)

        monkeypatch.setattr(spotalign.matchers, "linear_sum_assignment", counted)
        for seg, collected in synth_corpus(3, 3, seed=1):
            rectify(collected, seg, "ha")
        assert len(calls) == 12


class TestColdPath:
    def test_import_leaves_scipy_optimize_unloaded(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, spotalign, spotalign.cli; print('scipy.optimize' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_scipy_sparse_unloaded(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, spotalign, spotalign.cli; print('scipy.sparse' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_scipy_entry_points_looked_up_at_call_time(self, monkeypatch):
        calls = []
        real = spotalign.matchers.linear_sum_assignment

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(spotalign.matchers, "linear_sum_assignment", counted)
        cands = sample_candidates(straight_segment(7 * 6.0, SpotType.PARALLEL))
        window = cands.xy()[2:6]
        hungarian_assign(np.eye(3))
        baseline_rectify(window, cands, "ha")
        baseline_rectify(window, cands, "wd")
        # hungarian_assign: the optimum plus 4 refinement solves; HA: of the 5
        # windows, only the exact one (bound 0) is solved; WD: one assignment
        assert len(calls) == 1 + 4 + 1 + 1
