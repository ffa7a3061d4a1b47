import math

import numpy as np
import pytest

from spotalign.rigid import (
    RigidTransform2D,
    StackedCoords,
    fold_increments,
    jacobian,
    warp,
    warp_values,
)


def random_transform(rng) -> RigidTransform2D:
    return RigidTransform2D(
        theta=float(rng.uniform(-math.pi, math.pi)),
        s_x=float(rng.uniform(-50, 50)),
        s_y=float(rng.uniform(-50, 50)),
    )


def random_points(rng, m=10) -> StackedCoords:
    return StackedCoords.from_points(rng.uniform(-100, 100, size=(m, 2)))


def params(*ts: RigidTransform2D) -> np.ndarray:
    """Transforms as (theta, s_x, s_y) rows."""
    return np.array([[t.theta, t.s_x, t.s_y] for t in ts])


from conftest import fd_warp_jacobian as fd_jacobian


class TestWarp:
    def test_identity(self, rng):
        pts = random_points(rng)
        out = warp(RigidTransform2D.identity(), pts)
        assert np.array_equal(out.values, pts.values)

    def test_quarter_turn(self):
        pts = StackedCoords.from_points([[1.0, 0.0]])
        out = warp(RigidTransform2D(math.pi / 2, 0.0, 0.0), pts)
        assert out.values == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_pure_translation(self):
        out = warp(RigidTransform2D(0.0, 3.0, 4.0), StackedCoords.from_points([[1.0, 2.0]]))
        assert out.values == pytest.approx([4.0, 6.0], abs=1e-12)

    def test_preserves_pairwise_distances(self, rng):
        pts = random_points(rng, 12)
        t = random_transform(rng)
        a = pts.as_points()
        b = warp(t, pts).as_points()
        da = np.hypot(*(a[:, None] - a[None, :]).transpose(2, 0, 1))
        db = np.hypot(*(b[:, None] - b[None, :]).transpose(2, 0, 1))
        assert np.max(np.abs(da - db)) < 1e-9

    def test_stacked_vectors_warp_like_single_ones(self, rng):
        ts = [random_transform(rng) for _ in range(2)]
        pts = [random_points(rng, 7) for _ in range(2)]
        both = warp_values(params(*ts), np.stack([p.values for p in pts]))
        assert both.shape == (2, 14)
        in_place = np.empty_like(both)
        warp_values(params(*ts), np.stack([p.values for p in pts]), out=in_place)
        assert np.array_equal(in_place, both)
        for row, t, p in zip(both, ts, pts):
            assert np.allclose(row, warp(t, p).values, rtol=0.0, atol=1e-12)


class TestCompose:
    """Composition laws of :func:`fold_increments`, one row per transform."""

    def test_zero_increment(self, rng):
        base = params(random_transform(rng), random_transform(rng))
        assert np.array_equal(fold_increments(base, np.zeros((2, 3))), base)

    def test_identity_base(self):
        out = fold_increments(np.zeros((1, 3)), np.array([[0.3, 1.0, -2.0]]))
        assert out == pytest.approx(np.array([[0.3, 1.0, -2.0]]))

    def test_matches_sequential_warps(self, rng):
        pts = random_points(rng, 100)
        for _ in range(25):
            base = random_transform(rng)
            inc = rng.uniform(-0.5, 0.5, size=3)
            (fused_row,) = fold_increments(params(base), inc[None])
            in_place = params(base)
            fold_increments(in_place, inc[None].tolist(), out=in_place)
            assert np.array_equal(in_place[0], fused_row)
            fused = warp_values(fused_row, pts.values)
            two_step = warp(RigidTransform2D(*inc), warp(base, pts)).values
            assert np.max(np.abs(fused - two_step)) < 1e-12 * max(1.0, np.abs(two_step).max())

    def test_theta_normalized(self):
        t = RigidTransform2D(3 * math.pi, 0.0, 0.0)
        assert -math.pi < t.theta <= math.pi
        assert t.theta == pytest.approx(math.pi)

    def test_fold_normalizes_theta(self):
        out = fold_increments(np.array([[3.0, 0.0, 0.0]]), np.array([[0.5, 0.0, 0.0]]))
        assert out[0, 0] == pytest.approx(3.5 - 2 * math.pi)


class TestJacobian:
    def test_rows_at_identity(self):
        jac = jacobian(RigidTransform2D.identity(), StackedCoords.from_points([[1.0, 0.0]]))
        assert np.allclose(jac, [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])

    def test_rows_at_origin_point(self):
        jac = jacobian(RigidTransform2D.identity(), StackedCoords.from_points([[0.0, 0.0]]))
        assert np.allclose(jac, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            t = random_transform(rng)
            pts = random_points(rng, 5)
            analytic = jacobian(t, pts)
            numeric = fd_jacobian(t, pts)
            scale = max(1.0, np.abs(numeric).max())
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-6


class TestStackedCoords:
    def test_round_trips_points(self, rng):
        xy = rng.uniform(-5, 5, size=(7, 2))
        sc = StackedCoords.from_points(xy)
        assert sc.m == 7
        assert np.array_equal(sc.as_points(), xy)
        assert sc.values[0] == xy[0, 0] and sc.values[1] == xy[0, 1]

    def test_rejects_odd_and_nonfinite(self):
        with pytest.raises(ValueError):
            StackedCoords(np.ones(5))
        with pytest.raises(ValueError):
            StackedCoords(np.array([1.0, np.nan]))
