import math

import numpy as np
import pytest

from spotalign.rigid import fold_increments, jacobian_values, warp_values


def random_transform(rng) -> np.ndarray:
    """A (theta, s_x, s_y) row."""
    return np.array([rng.uniform(-math.pi, math.pi), rng.uniform(-50, 50), rng.uniform(-50, 50)])


def random_points(rng, m=10) -> np.ndarray:
    """M points as one interleaved vector (x1, y1, x2, y2, ...)."""
    return rng.uniform(-100, 100, size=(m, 2)).reshape(-1)


from conftest import fd_warp_jacobian as fd_jacobian


class TestWarp:
    def test_identity(self, rng):
        pts = random_points(rng)
        assert np.array_equal(warp_values(np.zeros(3), pts), pts)

    def test_quarter_turn(self):
        out = warp_values((math.pi / 2, 0.0, 0.0), np.array([1.0, 0.0]))
        assert out == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_pure_translation(self):
        out = warp_values((0.0, 3.0, 4.0), np.array([1.0, 2.0]))
        assert out == pytest.approx([4.0, 6.0], abs=1e-12)

    def test_preserves_pairwise_distances(self, rng):
        pts = random_points(rng, 12)
        t = random_transform(rng)
        a = pts.reshape(-1, 2)
        b = warp_values(t, pts).reshape(-1, 2)
        da = np.hypot(*(a[:, None] - a[None, :]).transpose(2, 0, 1))
        db = np.hypot(*(b[:, None] - b[None, :]).transpose(2, 0, 1))
        assert np.max(np.abs(da - db)) < 1e-9

    def test_stacked_vectors_warp_like_single_ones(self, rng):
        ts = np.stack([random_transform(rng) for _ in range(2)])
        pts = np.stack([random_points(rng, 7) for _ in range(2)])
        both = warp_values(ts, pts)
        assert both.shape == (2, 14)
        in_place = np.empty_like(both)
        warp_values(ts, pts, out=in_place)
        assert np.array_equal(in_place, both)
        for row, t, p in zip(both, ts, pts):
            assert np.allclose(row, warp_values(t, p), rtol=0.0, atol=1e-12)


    @pytest.mark.parametrize("transforms, values", [(np.zeros(3), np.zeros((2, 6))), (np.zeros((2, 3)), np.zeros(6))],
                             ids=["one-row-two-vectors", "two-rows-one-vector"])
    def test_one_row_per_vector(self, transforms, values):
        with pytest.raises(ValueError, match="one transform row per vector"):
            warp_values(transforms, values)


class TestCompose:
    """Composition laws of :func:`fold_increments`, one row per transform."""

    def test_zero_increment(self, rng):
        base = np.stack([random_transform(rng), random_transform(rng)])
        assert np.array_equal(fold_increments(base, np.zeros((2, 3))), base)

    def test_identity_base(self):
        out = fold_increments(np.zeros((1, 3)), np.array([[0.3, 1.0, -2.0]]))
        assert out == pytest.approx(np.array([[0.3, 1.0, -2.0]]))

    def test_matches_sequential_warps(self, rng):
        pts = random_points(rng, 100)
        for _ in range(25):
            base = random_transform(rng)
            inc = rng.uniform(-0.5, 0.5, size=3)
            (fused_row,) = fold_increments(base[None], inc[None])
            in_place = base[None].copy()
            fold_increments(in_place, inc[None].tolist(), out=in_place)
            assert np.array_equal(in_place[0], fused_row)
            fused = warp_values(fused_row, pts)
            two_step = warp_values(inc, warp_values(base, pts))
            assert np.max(np.abs(fused - two_step)) < 1e-12 * max(1.0, np.abs(two_step).max())

    def test_fold_normalizes_theta(self):
        out = fold_increments(np.array([[3.0, 0.0, 0.0]]), np.array([[0.5, 0.0, 0.0]]))
        assert out[0, 0] == pytest.approx(3.5 - 2 * math.pi)


class TestJacobian:
    def test_rows_at_identity(self):
        jac = jacobian_values(0.0, np.array([1.0, 0.0]))
        assert np.allclose(jac, [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])

    def test_rows_at_origin_point(self):
        jac = jacobian_values(0.0, np.array([0.0, 0.0]))
        assert np.allclose(jac, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            t = random_transform(rng)
            pts = random_points(rng, 5)
            analytic = jacobian_values(t[0], pts)
            numeric = fd_jacobian(t, pts)
            scale = max(1.0, np.abs(numeric).max())
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-6
