import math

import numpy as np
import pytest

from spotalign.solver import jacobian_values, warp_values


def random_points(rng, m=10) -> np.ndarray:
    """M points as one interleaved vector (x1, y1, x2, y2, ...)."""
    return rng.uniform(-100, 100, size=(m, 2)).reshape(-1)


from conftest import fd_warp_jacobian as fd_jacobian, random_transform


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
        for row, t, p in zip(both, ts, pts):
            assert np.allclose(row, warp_values(t, p), rtol=0.0, atol=1e-12)


    @pytest.mark.parametrize("transforms, values", [(np.zeros(3), np.zeros((2, 6))), (np.zeros((2, 3)), np.zeros(6))],
                             ids=["one-row-two-vectors", "two-rows-one-vector"])
    def test_one_row_per_vector(self, transforms, values):
        with pytest.raises(ValueError, match="one transform row per vector"):
            warp_values(transforms, values)


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
