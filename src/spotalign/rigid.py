"""2D rigid transform algebra on arrays: warp, increment folding, and the warp Jacobian.

A transform is a (theta, s_x, s_y) row: rotation by theta (radians) followed
by translation (s_x, s_y) meters, x' = x cos(theta) - y sin(theta) + s_x and
y' = x sin(theta) + y cos(theta) + s_y.  Rows instead of a 3x3 homogeneous
matrix keep an increment a 3-vector, so the solver's least-squares step is a
3-unknown solve; the solver keeps its transforms as rows of an (n, 3) array.
Point sets travel as interleaved vectors (x1, y1, x2, y2, ...), the C-order
flattening of an (M, 2) array of points.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _normalize_angle(theta: float) -> float:
    t = math.remainder(theta, TWO_PI)
    if t <= -math.pi:
        t += TWO_PI
    return t


def warp_values(transforms, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Warp interleaved vectors ``values`` (2M,) or (k, 2M) by (theta, s_x, s_y) rows (3,) or (k, 3).

    One transform row per vector (a solver state warps its two sides in one
    call when it is built or its transforms are set; a sweep re-warps them
    as a product with the state's ``moments``); with each point (x, y)
    taken as x + iy, the warp is e^(i theta) z + s.
    With ``out``, a C-contiguous float array, it is warped in place there.
    """
    rows = np.asarray(transforms, dtype=float)
    z = np.ascontiguousarray(values, dtype=float).view(np.complex128)
    if z.ndim > 2 or rows.shape != z.shape[:-1] + (3,):
        raise ValueError(f"expected one transform row per vector, got {rows.shape} rows for {np.shape(values)}")
    w = np.empty_like(z) if out is None else out.view(np.complex128)
    # a Python scalar per vector: an (n, 1) operand would send numpy through
    # its slower broadcasting loop, which allocates buffers as long as a vector
    for z_k, w_k, (theta, s_x, s_y) in zip(z, w, rows.tolist()) if z.ndim == 2 else [(z, w, rows.tolist())]:
        np.multiply(z_k, cmath.rect(1.0, theta), out=w_k)
        w_k += complex(s_x, s_y)
    return w.view(float) if out is None else out


def fold_increments(transforms: np.ndarray, increments, out: np.ndarray | None = None) -> np.ndarray:
    """Fold each increment, applied after its base transform, into one transform.

    Row i of ``transforms`` (n, 3), ``increments`` (n rows of floats) and the
    result is (theta, s_x, s_y); warping by result row i equals warping by
    transform row i and then by increment row i, angle normalized to (-pi, pi].
    A few rows at most, so the arithmetic is scalar; ``out`` may be ``transforms``.
    """
    rows = []
    for (theta, s_x, s_y), (d_theta, d_sx, d_sy) in zip(transforms.tolist(), increments):
        c, s = math.cos(d_theta), math.sin(d_theta)
        x, y = c * s_x - s * s_y + d_sx, s * s_x + c * s_y + d_sy
        rows.append((_normalize_angle(theta + d_theta), x, y))
    out = np.empty_like(transforms) if out is None else out
    out[...] = rows
    return out


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

