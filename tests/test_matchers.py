import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spotalign.matchers
from spotalign.matchers import (
    Assignment,
    baseline_rectify,
    cd_distance,
    ed_match,
    hungarian_assign,
    wd_match,
)
from spotalign.roads import SpotType, sample_candidates

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


def transport_vertex_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Oracle: minimum cost over all vertices of the transportation polytope.

    Vertices correspond to spanning trees of the bipartite graph; enumerate
    every m+k-1 edge subset, solve the tree flow, keep feasible ones.
    """
    m, k = len(a), len(b)
    cost = np.hypot(*(a[:, None, :] - b[None, :, :]).transpose(2, 0, 1))
    supply = np.full(m, 1.0 / m)
    demand = np.full(k, 1.0 / k)
    edges = [(i, j) for i in range(m) for j in range(k)]
    best = math.inf
    n_vars = m + k - 1
    for subset in itertools.combinations(edges, n_vars):
        rows = np.zeros((m + k, n_vars))
        for col, (i, j) in enumerate(subset):
            rows[i, col] = 1.0
            rows[m + j, col] = 1.0
        rhs = np.concatenate([supply, demand])
        # drop one dependent constraint; solvable iff the subset spans
        sol, residual, rank, _ = np.linalg.lstsq(rows[:-1], rhs[:-1], rcond=None)
        if rank < n_vars:
            continue
        if np.max(np.abs(rows @ sol - rhs)) > 1e-9:
            continue
        if np.min(sol) < -1e-12:
            continue
        best = min(best, float(sum(f * cost[i, j] for f, (i, j) in zip(sol, subset))))
    return best


class TestEdMatch:
    def test_identity(self):
        pts = np.array([[0.0, 0.0], [5.0, 1.0]])
        out = ed_match(pts, pts)
        assert out.pairs == ((0, 0), (1, 1))
        assert out.total_cost == 0.0

    def test_nearest(self):
        out = ed_match(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0], [3.0, 0.0]]))
        assert out.pairs == ((0, 0),)
        assert out.total_cost == pytest.approx(1.0)

    def test_tie_breaks_low_index(self):
        out = ed_match(np.array([[2.0, 0.0]]), np.array([[1.0, 0.0], [3.0, 0.0]]))
        assert out.pairs == ((0, 0),)

    def test_sqrt_argmin_invariance(self, rng):
        # Eq-style sqrt distance is monotone, so the chosen candidate matches
        for _ in range(50):
            pts = rng.uniform(-10, 10, (6, 2))
            cand = rng.uniform(-10, 10, (9, 2))
            dist = np.hypot(*(pts[:, None] - cand[None, :]).transpose(2, 0, 1))
            by_d = np.argmin(dist, axis=1)
            by_sqrt = np.argmin(np.sqrt(dist), axis=1)
            assert np.array_equal(by_d, by_sqrt)
            got = [j for _, j in ed_match(pts, cand).pairs]
            assert np.array_equal(got, by_d)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ed_match(np.empty((0, 2)), np.array([[0.0, 0.0]]))


class TestChamfer:
    def test_identical_sets(self, rng):
        pts = rng.uniform(-5, 5, (7, 2))
        assert cd_distance(pts, pts) == 0.0

    def test_single_points(self):
        assert cd_distance(np.array([[0.0, 0.0]]), np.array([[3.0, 0.0]])) == pytest.approx(6.0)

    def test_matches_double_loop(self, rng):
        for _ in range(30):
            a = rng.uniform(-10, 10, (5, 2))
            b = rng.uniform(-10, 10, (5, 2))
            brute = sum(min(np.hypot(*(p - q)) for q in b) for p in a)
            brute += sum(min(np.hypot(*(p - q)) for p in a) for q in b)
            assert cd_distance(a, b) == pytest.approx(brute, abs=1e-12)

    def test_symmetry_exact(self, rng):
        a = rng.uniform(-10, 10, (6, 2))
        b = rng.uniform(-10, 10, (4, 2))
        assert cd_distance(a, b) == cd_distance(b, a)


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


class TestWasserstein:
    def test_identity(self, rng):
        pts = rng.uniform(-5, 5, (4, 2))
        assignment, cost = wd_match(pts, pts)
        assert cost == pytest.approx(0.0, abs=1e-9)
        assert assignment.pairs == tuple((i, i) for i in range(4))

    def test_single_atoms(self):
        _, cost = wd_match(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]))
        assert cost == pytest.approx(2.0, abs=1e-9)

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(5):
            a = rng.uniform(-10, 10, (3, 2))
            b = rng.uniform(-10, 10, (4, 2))
            _, cost = wd_match(a, b)
            assert cost == pytest.approx(transport_vertex_oracle(a, b), abs=1e-9)

    def test_bounded_by_hungarian(self, rng):
        for _ in range(10):
            pts = rng.uniform(-10, 10, (5, 2))
            cand = rng.uniform(-10, 10, (5, 2))
            dist = np.hypot(*(pts[:, None] - cand[None, :]).transpose(2, 0, 1))
            hung = hungarian_assign(dist).total_cost
            _, wd_cost = wd_match(pts, cand)
            assert wd_cost <= hung / 5 + 1e-9


class TestBaselineRectify:
    def make_candidates(self, m=8, k=20, spacing=6.0):
        seg = straight_segment((k - 1) * spacing, SpotType.PARALLEL)
        return sample_candidates(seg)

    def test_clean_points_fixed_by_all_methods(self):
        cands = self.make_candidates()
        window = cands.xy()[4:12]
        for method in ("ed", "cd", "ha"):
            snapped, _ = baseline_rectify(window, cands, method)
            got = np.array([(p[0], p[1]) for p in snapped])
            assert np.allclose(got, window, atol=1e-9), method

    def test_clean_points_fixed_by_wd_at_equal_sizes(self):
        # with more candidates than points, the two-marginal transport must
        # push mass onto every candidate, so WD's exact fixed point only
        # exists when the sets have equal sizes
        seg = straight_segment(7 * 6.0, SpotType.PARALLEL)
        cands = sample_candidates(seg)
        window = cands.xy()
        snapped, _ = baseline_rectify(window, cands, "wd")
        got = np.array([(p[0], p[1]) for p in snapped])
        assert np.allclose(got, window, atol=1e-9)

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
        for name in ("linear_sum_assignment", "linprog"):
            real = getattr(spotalign.matchers, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(spotalign.matchers, name, counted)
        cands = sample_candidates(straight_segment(7 * 6.0, SpotType.PARALLEL))
        window = cands.xy()[2:6]
        hungarian_assign(np.eye(3))
        baseline_rectify(window, cands, "ha")
        wd_match(window, cands.xy())
        # hungarian_assign: the optimum plus 4 refinement solves; HA: 5 windows
        assert calls.count("linear_sum_assignment") == 1 + 4 + 5
        assert calls.count("linprog") == 1
