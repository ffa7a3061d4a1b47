"""2D rigid transform algebra: warp, composition, and the warp Jacobian.

Transforms are parameterized as (theta, s_x, s_y) instead of a 3x3 homogeneous
matrix so that an increment stays a 3-vector and the solver's least-squares
step is a 3-unknown solve.  Point sets travel as interleaved stacked vectors
(x1, y1, x2, y2, ...), the layout the alignment solver works in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def _normalize_angle(theta: float) -> float:
    t = math.remainder(theta, TWO_PI)
    if t <= -math.pi:
        t += TWO_PI
    return t


@dataclass(frozen=True)
class RigidTransform2D:
    """Rotation by ``theta`` (radians) followed by translation (s_x, s_y) meters."""

    theta: float
    s_x: float
    s_y: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.theta, self.s_x, self.s_y))):
            raise ValueError("transform parameters must be finite")
        object.__setattr__(self, "theta", _normalize_angle(self.theta))

    @classmethod
    def identity(cls) -> "RigidTransform2D":
        return cls(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class TransformIncrement:
    """Small change (d_theta, d_sx, d_sy) applied after a base transform."""

    d_theta: float
    d_sx: float
    d_sy: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.d_theta, self.d_sx, self.d_sy))):
            raise ValueError("increment parameters must be finite")

    def as_vector(self) -> np.ndarray:
        return np.array([self.d_theta, self.d_sx, self.d_sy], dtype=float)


@dataclass(frozen=True)
class StackedCoords:
    """Column vector of interleaved point coordinates (x1, y1, x2, y2, ...)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size % 2 != 0:
            raise ValueError("stacked coordinates must be a flat vector of even length")
        if not np.all(np.isfinite(v)):
            raise ValueError("stacked coordinates must be finite")
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.size // 2

    @classmethod
    def from_points(cls, xy: np.ndarray) -> "StackedCoords":
        """Stack an (M, 2) array of points."""
        xy = np.asarray(xy, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError("expected an (M, 2) array")
        return cls(xy.reshape(-1).copy())

    def as_points(self) -> np.ndarray:
        """View the vector as an (M, 2) array."""
        return self.values.reshape(-1, 2)


def warp_values(theta, s_x, s_y, values: np.ndarray) -> np.ndarray:
    """Apply the rigid transform to an interleaved coordinate vector.

    ``values`` may carry leading axes, one vector per transform; ``theta``,
    ``s_x`` and ``s_y`` then have that leading shape (the solver warps its
    two sides, stacked as a (2, 2M) array, in one call).  Each point (x, y)
    is taken as the complex number x + iy, so the warp is e^(i theta) z + s.
    """
    turn = np.exp(1j * np.asarray(theta, dtype=float))[..., None]
    shift = (np.asarray(s_x, dtype=float) + 1j * np.asarray(s_y, dtype=float))[..., None]
    z = np.ascontiguousarray(values, dtype=float).view(np.complex128)
    return (turn * z + shift).view(float)


def warp(t: RigidTransform2D, pts: StackedCoords) -> StackedCoords:
    """x' = x cos(theta) - y sin(theta) + s_x;  y' = x sin(theta) + y cos(theta) + s_y."""
    return StackedCoords(warp_values(t.theta, t.s_x, t.s_y, pts.values))


def compose(outer: TransformIncrement, base: RigidTransform2D) -> RigidTransform2D:
    """Fold an increment, applied after ``base``, into a single transform.

    warp(compose(outer, base), p) == increment-transform(warp(base, p)).
    """
    c, s = math.cos(outer.d_theta), math.sin(outer.d_theta)
    return RigidTransform2D(
        theta=base.theta + outer.d_theta,
        s_x=c * base.s_x - s * base.s_y + outer.d_sx,
        s_y=s * base.s_x + c * base.s_y + outer.d_sy,
    )


def invert(t: RigidTransform2D) -> RigidTransform2D:
    """Inverse transform: warp(invert(t), warp(t, p)) == p."""
    c, s = math.cos(t.theta), math.sin(t.theta)
    return RigidTransform2D(
        theta=-t.theta,
        s_x=-(c * t.s_x + s * t.s_y),
        s_y=-(-s * t.s_x + c * t.s_y),
    )


def jacobian_values(theta: float, values: np.ndarray) -> np.ndarray:
    """(2M, 3) Jacobian of the warped coordinates w.r.t. (theta, s_x, s_y)."""
    c, s = math.cos(theta), math.sin(theta)
    x = values[0::2]
    y = values[1::2]
    jac = np.zeros((values.size, 3), dtype=float)
    jac[0::2, 0] = -x * s - y * c
    jac[1::2, 0] = x * c - y * s
    jac[0::2, 1] = 1.0
    jac[1::2, 2] = 1.0
    return jac


def jacobian(t: RigidTransform2D, pts: StackedCoords) -> np.ndarray:
    """Jacobian of warp(t, pts) w.r.t. the transform parameters, rows interleaved."""
    return jacobian_values(t.theta, pts.values)
