"""2D rigid transform algebra on arrays: the warp, as a reference, and its Jacobian.

A transform is a (theta, s_x, s_y) row: rotation by theta (radians) followed
by translation (s_x, s_y) meters, x' = x cos(theta) - y sin(theta) + s_x and
y' = x sin(theta) + y cos(theta) + s_y.  Rows instead of a 3x3 homogeneous
matrix keep an increment a 3-vector, so the solver's least-squares step is a
3-unknown solve; the solver keeps its transforms as rows of an (n, 3) array
and folds and re-warps them itself (``solver.fold_and_rewarp``).
Point sets travel as interleaved vectors (x1, y1, x2, y2, ...), the C-order
flattening of an (M, 2) array of points.
"""

from __future__ import annotations

import math

import numpy as np


def warp_values(transforms, values: np.ndarray) -> np.ndarray:
    """Warp interleaved vectors ``values`` (2M,) or (k, 2M) by (theta, s_x, s_y) rows (3,) or (k, 3).

    One transform row per vector; with each point (x, y) taken as x + iy,
    the warp is e^(i theta) z + s.  The general form the solver's re-warp
    is checked against.
    """
    rows = np.asarray(transforms, dtype=float)
    z = np.ascontiguousarray(values, dtype=float).view(np.complex128)
    if z.ndim > 2 or rows.shape != z.shape[:-1] + (3,):
        raise ValueError(f"expected one transform row per vector, got {rows.shape} rows for {np.shape(values)}")
    turn, shift = np.exp(1j * rows[..., :1]), rows[..., 1:2] + 1j * rows[..., 2:]
    return (z * turn + shift).view(float)


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

