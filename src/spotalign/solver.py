"""ADMM solver for the linearized rank-1 alignment of two stacked point sets.

The collected points P and a candidate window Rd (both (M, 2) arrays of
local-frame meters, held as interleaved 2M-vectors) are jointly rectified:

    minimize  |E1|_1 + lam * excess(A)
    s.t.      warp(theta1, P)  + E1 = C
              warp(theta2, Rd) + E2 = D          (E2 constant per axis)
              [C  D] = A                          (A is 2M x 2)

``excess(A)`` is the spectral mass of A beyond rank one (the sum of all
singular values but the largest).  Driving it to zero makes the two columns
of A parallel, which is what forces the rectified collected points onto the
candidate pattern; the leading singular value (the pattern itself) carries no
penalty, so the coupling exerts no pressure to shrink or translate the data.
E1 absorbs a few gross outliers, E2 absorbs a systematic per-axis offset of the
candidate side, and the rigid transforms are re-linearized every sweep: the
increment least-squares solution is folded into the running transforms and
the inputs re-warped, both by :func:`fold_and_rewarp`.  The warp is rigid,
so both the increment step's sums and the re-warp are products with one
matrix the inputs fix, ``SolverState.moments``.

A transform is a (theta, s_x, s_y) row: rotation by theta (radians) followed
by translation (s_x, s_y) meters, x' = x cos(theta) - y sin(theta) + s_x and
y' = x sin(theta) + y cos(theta) + s_y.  Rows instead of a 3x3 homogeneous
matrix keep an increment a 3-vector, so the increment step is a 3-unknown
solve.  Point sets travel as interleaved vectors (x1, y1, x2, y2, ...), the
C-order flattening of an (M, 2) array of points; :func:`warp_values` warps
them, the reference the re-warp is checked against.

:func:`sweep` is the one implementation of a sweep; :func:`admm_solve`
repeats it until convergence, and its trace mode records the same sweep.
Every block is a (2, 2M) row pair, row 0 the collected side and row 1 the
candidate side, so a block update is one set of numpy calls for both.  Each
block update reads and writes only the buffers of :class:`SolverState`; a
sweep hands on one value, the increments, from the increment step to the
fold.  Each symbol above is an index into one of the buffers (U = Y / mu are
the multipliers scaled by mu):

    P, Rd     inputs[0], inputs[1]        U1, U2    duals[0, 0], duals[0, 1]
    C, D      blocks[0, 0], blocks[0, 1]  U3        duals[1].T, (2M, 2)
    A         blocks[1].T, (2M, 2)        W1, W2    W[0], W[1]: warped P, Rd
    E1, E2    blocks[2, 0], blocks[2, 1]  theta1/2  transforms[0], transforms[1]

Each block writes in place into buffers made once per solve, its outputs
and its scratch alike, so a sweep allocates nothing the size of a block; what
is scalar (the coupling step's 2x2 rotation, the transforms and their
increments) stays in Python floats.  The coupling and increment steps are
closed forms; the warp Jacobians are only computed for trace mode.  A sweep
is some thirty numpy calls on arrays of a few hundred entries, so the cost of
a call, not the arithmetic, sets its time: fixed linear combinations of
blocks are one product (the C/D-step and the E-step's residual are each one
over ``SolverState.terms``, the re-warp one with ``moments``), every product
is taken in method form, ``a.dot(b, out)``, which skips the Python-level
``__array_function__`` dispatch that ``np.dot`` runs on each call, and no
call takes a broadcast (n, 1) operand, which numpy runs through a slower loop
that allocates buffers as long as the block.

The E2 regularizer is realized purely through its translation structure (the
per-axis-mean projection is the exact block minimizer), so the augmented
Lagrangian tracked here contains no separate E2 norm term; every block update
is then an exact minimizer and the Lagrangian is non-increasing across the
A, C/D, E1/E2 and increment steps at fixed penalty.

Window scoring uses the alignment loss |E1|_1 + |E2|_1 + |theta1|, where
|theta1| is the Euclidean norm of (theta, s_x / scale, s_y / scale) with the
fixed meters-per-radian-equivalent scale :data:`THETA_NORM_SCALE_M`.  The
window race gives each solve the best loss a window has finished with, and
:func:`admm_solve` abandons the solve at the first rung of
:data:`RACE_CHECKS`, a (sweep, margin) pair, where its loss exceeds the
margin times that best; the race never changes a finished solve's loss.  A
finished solve reports its ``headroom``: the largest ratio of its loss at a
rung to the margin times its final loss, at most 1 where the margins hold.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# translation (meters) that weighs like one radian in the alignment loss
THETA_NORM_SCALE_M = 10.0

# the race's rungs: (sweep, margin) pairs.  admm_solve abandons a solve at the first
# rung where its loss exceeds the margin times ``race_best``, the best finished loss.
# A rung is safe while a winner's loss there stays under the margin times its final
# loss.  On synth_corpus(10, 10) at seeds 0-3 and the gap arm at seeds 11-13, 21 and
# 22, a winner's loss after 1, 2, 4 and 8 sweeps stayed within 0.443x, 0.802x, 0.978x
# and 0.961x its final loss; each early margin is the tenth at or above 1.2x that.  By
# sweep 10 the loss has settled (1.005x at most), so that rung is tight; at sweep 16 it
# overshoots to 1.013x, which leaves a tighter margin there no headroom.  Every search
# checks the rungs on its own finished windows (``SolverResult.headroom``)
RACE_CHECKS = ((1, 0.6), (2, 1.0), (4, 1.2), (8, 1.2), (10, 1.1))

# the C/D-step's weights of the rows A, E, W, U, U3 of SolverState.terms
_CD_WEIGHTS = np.array([0.5, 0.5, 0.5, 0.5, -0.5])
_CD_WEIGHTS.flags.writeable = False
# the E-step's weights of the rows [C D], A, E, W, U, U3 of SolverState.terms
_RESIDUAL_WEIGHTS = np.array([1.0, 0.0, 0.0, -1.0, -1.0, 0.0])
_RESIDUAL_WEIGHTS.flags.writeable = False


class DegenerateGeometryError(Exception):
    """All points (numerically) coincide; the increment solve is singular."""


class NumericalFailureError(Exception):
    """The solver state left the representable range."""

    def __init__(self, iteration: int | None = None):
        self.iteration = iteration
        where = "" if iteration is None else f" at iteration {iteration}"
        super().__init__(f"solver state became non-finite{where}")


@dataclass(frozen=True)
class SolverConfig:
    """Solver hyper-parameters.

    ``lam`` weights the rank-1 coupling (100 is the sweet spot across a
    1..10000 sweep).  ``mu0`` and ``rho`` drive the monotonically increasing
    penalty schedule; the default start places the initial coupling threshold
    lam/mu0 (1 km at the default lam) far above the discrepancy scale of a
    corrupted window, so the cross-column collapse completes, while at lam=1
    the same start leaves the threshold (10 m) below it and alignment visibly
    under-develops.  ``rho`` = 1.6 settles a window in ~23 sweeps, not ~37 as
    at 1.3; at the default lam it moved no winner on seeded synthetic corpora
    and lost no window on the gap arm of ``tests/test_gap_arm.py``; 2.0 did.
    A solve stops once its largest constraint residual is below
    ``tol_primal`` or its relative state change over a sweep is below
    ``tol_change``.  A 1 cm residual is small against the 1.5 m receiver
    jitter and the metre spacing of spots: at 0.1 mm a window took ~30
    sweeps, and no winner moved on the corpora checked.
    """

    lam: float = 100.0
    mu0: float = 0.1
    rho: float = 1.6
    max_iters: int = 300
    tol_primal: float = 1e-2
    tol_change: float = 1e-6

    def __post_init__(self) -> None:
        # written so that NaN fails every bound
        for name in ("lam", "mu0", "tol_primal", "tol_change"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 1 < self.rho < math.inf:
            raise ValueError("rho must be finite and exceed 1")
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral)
                or self.max_iters < 1):
            raise ValueError("max_iters must be an integer of at least 1")


class SolverState:
    """All ADMM blocks for one alignment problem, both sides stacked.

    Built from the (M, 2) points P, the (M, 2) window Rd and the starting
    penalty ``mu``.  A new state is an allocated state loaded once: the
    constructor makes the buffers for M points per side and hands the
    problem to :meth:`load`, which can then start a new problem of the same
    M in them, so a solve into a reloaded state ends bit for bit where one
    into a new state ends.  Loading overwrites the earlier problem and
    everything solved from it, also as seen through a :class:`SolverResult`
    that holds the state.  The state is its buffers:

        ===========  ===========  =========================================
        buffer       shape        holds
        ===========  ===========  =========================================
        inputs       (2, 2M)      [P; Rd]
        transforms   (2, 3)       theta1 (moves P), theta2 (moves Rd)
        blocks       (3, 2, 2M)   [C; D], A transposed into rows, [E1; E2]
        W            (2, 2M)      [W1; W2], the inputs warped by transforms
        duals        (2, 2, 2M)   [U1; U2], U3 transposed into rows
        terms        (6, 4M)      blocks, W, duals: one flat row per pair
        --- scratch, rewritten by every sweep ---------------------------
        coupled      (2, 2M)      A-step: [C D] + U3, before the shrink
        v2, bv2      (2,), (2M,)  A-step: smaller right singular vector, B v2
        keep         (2, 2)       A-step: I - k v2 v2^T
        residual     (2, 2M)      E-step: [C D] - W - E - U, fitted by the
                                  increment step
        sums         (8,)         increment step: ``moments`` @ residual
        coef         (8,)         re-warp: W = coef @ ``moments``
        constraints  (2, 2, 2M)   multiplier step: the constraint residuals
        norms        (4, 1, 1)    multiplier step: their squared row norms
        ===========  ===========  =========================================

    One buffer holds, in order, ``transforms`` (rows (theta, s_x, s_y),
    theta in (-pi, pi]), ``blocks``, W and ``duals``; its first part,
    ``transforms`` and ``blocks``, is ``vector``, the iterate.  [C; D] and A
    start as the inputs, the rest at zero.  ``pairs`` holds [C D], A, E, U,
    U3, ``e_rows`` the E-step's operands (the residual flat, then its rows
    and E's, complex views for E2) and ``norm_rows`` the multiplier step's
    operands, all views made once.  W starts as the inputs, the identity
    warp, and then follows ``transforms``: :func:`fold_and_rewarp` alone
    writes ``transforms``, ``coef`` and W, called by :func:`sweep` with the
    increments.  ``moments`` (both sides' block-diagonally) and ``levers``
    are the terms the inputs fix; ``moments`` serves both the increment
    step's sums and the re-warp.
    """

    def __init__(self, P: np.ndarray, Rd: np.ndarray, mu: float) -> None:
        n = 2 * len(P) if np.ndim(P) else 0
        self._buffer = buffer = np.empty(12 * n + 6)
        self.vector, self.transforms = buffer[:6 * n + 6], buffer[:6].reshape(2, 3)
        self.terms = buffer[6:].reshape(6, 2 * n)
        self.blocks = self.terms[:3].reshape(3, 2, n)
        self.W, self.duals = self.terms[3].reshape(2, n), self.terms[4:].reshape(2, 2, n)
        self.inputs = np.empty((2, n))
        self.pairs = (*self.blocks, *self.duals)
        self.residual, self.constraints = np.empty_like(self.inputs), np.empty_like(self.duals)
        self.coupled, self.keep = np.empty_like(self.inputs), np.empty((2, 2))
        self.v2, self.bv2 = np.empty(2), np.empty(n)
        self.sums, self.coef, self.norms = np.empty(8), np.empty(8), np.empty((4, 1, 1))
        r, e, c = self.residual, self.blocks[2], self.constraints.reshape(4, n)
        self.e_rows = (r.reshape(-1), r[0], e[0], r[1].view(np.complex128), e[1].view(np.complex128))
        self.norm_rows = (c[:, None], c[:, :, None])
        # moments holds four rows per side block-diagonally, so one product serves
        # both sides: rows @ r = (Re, Im) sum conj(z_i - z_mean) r_i, sum r_x, sum r_y,
        # and (cos, sin, Re, Im of the warped z_mean) @ rows is the warp.  Rows 2 and 3
        # pick the x and y entries; rows 0 and 1, z_i - z_mean and i (z_i - z_mean),
        # follow the inputs, and load writes them through the (side, M) complex
        # views _centred and _turned
        self.moments = np.zeros((8, 2 * n))
        self.moments[2, :n:2] = self.moments[3, 1:n:2] = self.moments[6, n::2] = self.moments[7, n + 1::2] = 1.0
        row, col = self.moments.strides
        self._centred, self._turned = (np.ndarray((2, n // 2), np.complex128, self.moments, k * row,
                                                  (4 * row + n * col, 2 * col)) for k in (0, 1))
        self.load(P, Rd, mu)

    def load(self, P: np.ndarray, Rd: np.ndarray, mu: float) -> None:
        """Start the problem of the (M, 2) points P and window Rd at penalty ``mu``.

        Writes the inputs, starts the iterate, W and duals, and rewrites what
        the inputs fix.  Raises ValueError, writing nothing, unless P and Rd
        are finite (M, 2) arrays with the same M, at least 2 and the state's,
        and ``0 < mu < inf``.
        """
        p, rd = np.asarray(P, dtype=float), np.asarray(Rd, dtype=float)
        for name, xy in (("P", p), ("Rd", rd)):
            if xy.ndim != 2 or xy.shape[1] != 2:
                raise ValueError(f"{name} must be an (M, 2) array, got shape {xy.shape}")
        inputs, m = self.inputs, len(p)
        if m != len(rd):
            raise ValueError(f"P and Rd must hold the same point count ({m} vs {len(rd)})")
        if m < 2:
            raise ValueError("alignment needs at least 2 points per side")
        if not (np.isfinite(p).all() and np.isfinite(rd).all()):
            raise ValueError("P and Rd must be finite")
        if not 0 < mu < math.inf:  # NaN fails too
            raise ValueError(f"mu must be positive and finite, got {mu!r}")
        if 2 * m != inputs.shape[1]:
            raise ValueError(f"the state holds {inputs.shape[1] // 2} points per side, not {m}")
        np.concatenate((p, rd), out=inputs.reshape(-1, 2))
        self.mu = mu
        self._buffer.fill(0.0)
        self.blocks[:2] = inputs
        np.add(inputs, 0.0, out=self.W)  # the identity warp; + 0.0 turns -0.0 into 0.0 as a warp does
        z = inputs.view(np.complex128)
        z_mean = np.add.reduce(z, axis=1) / m
        zc = np.subtract(z, z_mean[:, None], out=self._centred)
        np.multiply(zc, 1j, out=self._turned)
        spread = np.add.reduce((zc.conj() * zc).real, axis=1)
        self.levers = [(c, s, s + m * (c.real * c.real + c.imag * c.imag))
                       for c, s in zip(z_mean.tolist(), spread.tolist())]


@dataclass
class IterationTrace:
    """Per-iteration diagnostics collected when tracing is enabled.

    ``lagrangians`` holds (L_start, L_after_A, L_after_CD, L_after_E,
    L_after_increment) per iteration, all at that iteration's fixed mu and
    linearization point (the increment entry is measured before folding).
    """

    lagrangians: list[tuple[float, float, float, float, float]] = field(default_factory=list)
    coupling_residuals: list[float] = field(default_factory=list)


@dataclass
class SolverResult:
    state: SolverState
    loss: float
    iterations: int
    converged: bool
    trace: IterationTrace | None = None
    headroom: float = 0.0  # the largest rung loss over (its margin x loss); 0 when abandoned or loss is 0

    def aligned_collected(self) -> np.ndarray:
        """Collected points mapped through the net correction, onto Rd's frame.

        Applies theta1 and then undoes the candidate-side motion (E2 and
        theta2); on a clean alignment this lands on Rd itself.
        """
        s = self.state
        theta, s_x, s_y = s.transforms[1].tolist()
        z = (s.W[0] - s.blocks[2, 1]).view(np.complex128)
        return (np.exp(-1j * theta) * (z - complex(s_x, s_y))).view(float)


def svt_prox(B: np.ndarray, threshold: float) -> np.ndarray:
    """Singular value thresholding: soft-threshold the spectrum, keep subspaces.

    Proximal operator of threshold * nuclear norm at B; a threshold at or
    above the largest singular value yields the zero matrix.
    """
    if not threshold >= 0:  # NaN fails too
        raise ValueError("threshold must be non-negative")
    B = np.asarray(B, dtype=float)
    u, sig, vt = np.linalg.svd(B, full_matrices=False)
    kept = np.maximum(sig - threshold, 0.0)
    return (u * kept) @ vt


def rank1_excess(B: np.ndarray) -> float:
    """Spectral mass of B beyond rank one (zero iff rank(B) <= 1)."""
    sig = np.linalg.svd(np.asarray(B, dtype=float), compute_uv=False)
    return float(sig.sum() - sig.max()) if sig.size else 0.0


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


def update_coupling(state: SolverState, cfg: SolverConfig) -> None:
    """A-step: soft-threshold the smaller singular value of B = [C D] + U3 at lam/mu, into A's rows.

    Proximal operator of threshold * (spectral mass beyond rank one).  The
    leading singular pair is untouched, so the dominant pattern carries no
    shrinkage; only the deviation from rank one is penalized.

    Closed form: one Jacobi rotation of the 2x2 Gram matrix gives the right
    singular vectors; the small singular value is taken as |B v2| (not as
    the square root of a Gram eigenvalue, which loses it to cancellation),
    and the result is B (I - k v2 v2^T), k = 1 - max(s2 - t, 0) / s2.
    B, v2, B v2 and keep = I - k v2 v2^T go to the state's scratch
    ``coupled``, ``v2``, ``bv2`` and ``keep``.  The shrink is one 2x2
    product, keep @ B, not the rank-1 update B - (k v2)(B v2)^T, whose
    outer product would broadcast.
    """
    cd, a_rows, _, _, u3 = state.pairs
    rows = np.add(cd, u3, state.coupled)
    v2, bv2, keep = state.v2, state.bv2, state.keep
    threshold = cfg.lam / state.mu
    (g00, g01), (_, g11) = rows.dot(rows.T).tolist()
    phi = 0.5 * math.atan2(2.0 * g01, g00 - g11)
    v2x, v2y = -math.sin(phi), math.cos(phi)
    v2[0], v2[1] = v2x, v2y
    sigma2 = math.sqrt(v2.dot(rows, bv2).dot(bv2))
    shrink = 1.0 if sigma2 <= threshold else threshold / sigma2
    kx, ky = shrink * v2x, shrink * v2y
    keep[0, 0], keep[0, 1], keep[1, 0], keep[1, 1] = 1.0 - kx * v2x, -kx * v2y, -ky * v2x, 1.0 - ky * v2y
    keep.dot(rows, a_rows)


def update_rectified_blocks(state: SolverState) -> None:
    """C/D-step: each block is the average of its two quadratic anchors.

    [C D] = (A + E + W + U - U3) / 2, one product with the rows of
    ``state.terms`` that follow [C D].  The transform increments take no
    part: inside the solve loop they were folded at the end of the previous
    sweep, so they are zero here.
    """
    _CD_WEIGHTS.dot(state.terms[1:], state.terms[0])


def update_error_blocks(state: SolverState) -> None:
    """E-step: shrink the collected-side residual, average the candidate-side one.

    E1 is the residual minus its clip to [-t, t], t = 1/mu (soft threshold);
    E2 projects its residual onto translation structure (every x entry the
    mean of the x residuals, likewise for y).  The residual [C D] - W - U is
    one product with the rows of ``state.terms``, written to
    ``state.residual``.  What the new E leaves of it, [C D] - W - E - U,
    stays there for :func:`update_transform_increments` to fit.
    """
    flat, r1, e1, r2, e2 = state.e_rows
    _RESIDUAL_WEIGHTS.dot(state.terms, flat)
    t = 1.0 / state.mu
    np.minimum(np.maximum(r1, -t, out=e1), t, out=e1)
    np.subtract(r1, e1, e1)
    e2.fill(np.add.reduce(r2) / len(r2))  # both axis means as one complex mean
    flat -= state.terms[2]


def update_transform_increments(state: SolverState) -> list[tuple[float, float, float]]:
    """Increment-step: least-squares fit of each linearized warp to its residual.

    The residual is [C D] - W - E - U, as :func:`update_error_blocks`
    leaves it in ``state.residual``; this step reads it flat, through
    ``state.e_rows[0]``.  Returns the two increments as Python floats, one
    (d_theta, d_sx, d_sy) row per side in the layout of ``state.transforms``.

    Taking each point (x, y) as the complex number x + iy, the Jacobian's
    rotation column at warped point w_i is i (w_i - s) for translation s, so
    with residual r_i each side's 3-unknown problem has the closed form

        d_theta = sum cross(w_i - w_mean, r_i) / sum |w_i - w_mean|^2
        d_s     = r_mean - i (w_mean - s) d_theta,

    with cross(a, b) = Im(conj(a) b).  The warp is rigid: with z the inputs,
    w_i - w_mean = e^(i theta) (z_i - z_mean) and w_mean - s = e^(i theta)
    z_mean, so the spread is fixed and the sums a sweep needs, sum
    conj(z_i - z_mean) r_i and sum r_i, are one product of ``state.moments``
    with the residual; :func:`fold_and_rewarp` re-warps W with the same
    matrix.  A side is singular when its spread is negligible against the
    rotation column's squared norm sum |w_i - s|^2 (the spread plus M
    |z_mean|^2, in ``state.levers``).

    Raises :class:`NumericalFailureError` if a sum or an increment is not
    finite (checked first: an overflowed sum would pass for singular), and
    :class:`DegenerateGeometryError` for a singular side.
    """
    m = state.inputs.shape[1] // 2
    sums = state.moments.dot(state.e_rows[0], state.sums).tolist()
    # three unknowns per side: scalar arithmetic from here on
    increments = []
    for (theta, _, _), (z_bar, spread, lever), (cross_re, cross_im, sum_x, sum_y) in zip(
            state.transforms.tolist(), state.levers, (sums[:4], sums[4:])):
        turn = cmath.rect(1.0, theta)
        torque = turn.real * cross_im - turn.imag * cross_re
        if not (math.isfinite(torque) and math.isfinite(lever)):
            raise NumericalFailureError()
        if spread <= 1e-10 * lever:
            raise DegenerateGeometryError("point set too degenerate for an increment solve")
        d_theta = torque / spread
        d_s = complex(sum_x, sum_y) / m - 1j * (turn * z_bar) * d_theta
        if not (math.isfinite(d_theta) and cmath.isfinite(d_s)):
            raise NumericalFailureError()
        increments.append((d_theta, d_s.real, d_s.imag))
    return increments


def fold_and_rewarp(state: SolverState, increments) -> None:
    """Fold each side's increment into its transform, then re-warp W from the new rows.

    ``increments`` holds one (d_theta, d_sx, d_sy) row of floats per side,
    applied after that side's transform: the folded row warps like the
    transform followed by the increment, its angle normalized into (-pi, pi].
    W is one product with ``state.moments``: per side w_i = e^(i theta) (z_i
    - z_mean) + (e^(i theta) z_mean + s), so the coefficients of its rows,
    written to ``state.coef``, are cos theta, sin theta and the warped z_mean.
    Two rows, so the fold is scalar arithmetic.
    """
    rows, coef = [], []
    for (theta, s_x, s_y), (d_theta, d_sx, d_sy), (z_bar, _, _) in zip(
            state.transforms.tolist(), increments, state.levers):
        c, s = math.cos(d_theta), math.sin(d_theta)
        theta = math.remainder(theta + d_theta, math.tau)
        if theta <= -math.pi:
            theta += math.tau
        s_x, s_y = c * s_x - s * s_y + d_sx, s * s_x + c * s_y + d_sy
        turn = cmath.rect(1.0, theta)
        shift = turn * z_bar + complex(s_x, s_y)
        rows.append((theta, s_x, s_y))
        coef += (turn.real, turn.imag, shift.real, shift.imag)
    state.transforms[...] = rows
    state.coef[:] = coef
    state.coef.dot(state.moments, state.terms[3])


def _constraint_residuals(state: SolverState, out: np.ndarray) -> np.ndarray:
    """[W1 + E1 - C; W2 + E2 - D] and [C D] - A, stacked as (2, 2, 2M) rows, into out."""
    cd, a_rows, e, _, _ = state.pairs
    h = np.add(state.W, e, out[0])
    h -= cd
    np.subtract(cd, a_rows, out[1])
    return out


def update_multipliers(state: SolverState, cfg: SolverConfig) -> tuple[float, float]:
    """Dual ascent on all three constraints, then grow the penalty.

    With the multipliers scaled by the penalty, Y + mu r at the next
    penalty mu rho is U = (U + r) / rho.  Returns the coupling residual
    |[C D] - A| and the largest of the three constraint residuals, both
    measured before the ascent.
    """
    res = _constraint_residuals(state, state.constraints)
    h1, h2, g1, g2 = np.matmul(*state.norm_rows, out=state.norms).ravel().tolist()
    coupling = math.sqrt(g1 + g2)
    primal = max(math.sqrt(h1), math.sqrt(h2), coupling)
    state.duals += res
    state.duals /= cfg.rho
    state.mu = state.mu * cfg.rho
    return coupling, primal


def lagrangian(state: SolverState, cfg: SolverConfig) -> float:
    """Augmented Lagrangian at the current state and linearization; writes no buffer."""
    res = _constraint_residuals(state, np.empty_like(state.duals))
    return float(
        np.abs(state.blocks[2, 0]).sum()
        + cfg.lam * rank1_excess(state.blocks[1].T)
        + state.mu * (np.sum(state.duals * res) + 0.5 * np.sum(res * res))
    )


def alignment_loss(state: SolverState) -> float:
    """Window score: |E1|_1 + |E2|_1 + norm of the collected-side transform."""
    scale = THETA_NORM_SCALE_M
    theta, s_x, s_y = state.transforms[0].tolist()
    return float(
        np.add.reduce(np.abs(state.blocks[2]), axis=None)
        + math.sqrt(theta**2 + (s_x / scale) ** 2 + (s_y / scale) ** 2)
    )


def sweep(state: SolverState, cfg: SolverConfig, trace: IterationTrace | None = None) -> float:
    """One ADMM sweep: A -> C/D -> E1/E2 -> increments -> multipliers.

    The E-step leaves its residual in ``state.residual`` for the increment
    step; the increments are the one value handed on, to
    :func:`fold_and_rewarp`, which folds them into the transforms
    (re-linearizing the warps) and re-warps W before the dual step.  Returns
    the largest constraint residual; with a ``trace`` the Lagrangian after
    each block and the coupling residual are appended to it.  The increment
    step's Lagrangian is measured on the state itself, with each warp moved
    along its Jacobian in W, which the re-warp then overwrites.
    """
    if trace is not None:
        l_start = lagrangian(state, cfg)
    update_coupling(state, cfg)
    if trace is not None:
        l_a = lagrangian(state, cfg)
    update_rectified_blocks(state)
    if trace is not None:
        l_cd = lagrangian(state, cfg)
    update_error_blocks(state)
    if trace is not None:
        l_e = lagrangian(state, cfg)
    increments = update_transform_increments(state)
    if trace is not None:
        # the increment step's value before folding
        for k in (0, 1):
            state.W[k] += jacobian_values(state.transforms[k, 0], state.inputs[k]) @ increments[k]
        trace.lagrangians.append((l_start, l_a, l_cd, l_e, lagrangian(state, cfg)))
    fold_and_rewarp(state, increments)
    coupling, primal = update_multipliers(state, cfg)
    if trace is not None:
        trace.coupling_residuals.append(coupling)
    return primal


def admm_solve(
    P: np.ndarray,
    Rd: np.ndarray,
    cfg: SolverConfig | None = None,
    *,
    collect_trace: bool = False,
    race_best: float = math.inf,
    out: SolverState | None = None,
) -> SolverResult:
    """Run the full alternating solve of the (M, 2) points P against the window Rd.

    Repeats :func:`sweep` until the largest constraint residual drops below
    ``tol_primal``, the relative state change drops below ``tol_change``, or
    ``max_iters`` sweeps have run; at the defaults a window finishes in ~23
    sweeps.  ``race_best`` is the best loss another
    window has finished with: a solve still running at a rung of
    :data:`RACE_CHECKS` is abandoned at the first rung where its alignment
    loss exceeds the rung's margin times ``race_best``, and returns loss
    +inf, unconverged, at that sweep.  A ``race_best`` that is not positive
    and finite (the default +inf, 0, NaN) abandons nothing: a best of 0
    would abandon every positive loss, ties included.  Raced or not, the
    solve takes its loss at every rung it runs past, and its result's
    ``headroom`` is the largest ratio, over those rungs, of that loss to the
    rung's margin times the final loss (0 for an abandoned solve or a final
    loss of 0).  A headroom above 1 marks a solve that a race measured
    against its own final loss would have abandoned.

    The solve runs in a new :class:`SolverState`, or, given ``out``, in that
    state, loaded with P and Rd (as numpy's ``out=``): the result is bit for
    bit the one a new state gives, its ``state`` is ``out``, and whatever
    ``out`` held before is overwritten.

    Raises ValueError unless P and Rd are finite (M, 2) arrays with the same
    M of at least 2 (the M of ``out``, if given; ``out`` is then left as it
    was), :class:`NumericalFailureError` if the state leaves the
    representable range, and :class:`DegenerateGeometryError` for coincident
    input points.
    """
    cfg = cfg or SolverConfig()
    # overflow shows as a non-finite state, which the checks below turn into
    # NumericalFailureError; numpy warnings would only add noise before it
    with np.errstate(over="ignore", invalid="ignore"):
        if out is None:
            state = SolverState(P, Rd, cfg.mu0)
        else:
            state = out
            state.load(P, Rd, cfg.mu0)
        trace = IterationTrace() if collect_trace else None

        margins = dict(RACE_CHECKS)
        racing = 0 < race_best < math.inf  # NaN fails too
        rungs = []  # (loss, margin) at each rung the solve runs past
        converged = abandoned = False
        vec, prev_vec = state.vector, state.vector.copy()
        prev_norm = math.sqrt(vec.dot(vec))
        for iterations in range(1, cfg.max_iters + 1):
            try:
                primal = sweep(state, cfg, trace)
            except NumericalFailureError:
                raise NumericalFailureError(iterations) from None
            norm2 = vec.dot(vec)  # not finite once any entry (or the norm itself) is not
            if not math.isfinite(norm2):
                raise NumericalFailureError(iterations)
            step = np.subtract(vec, prev_vec, prev_vec)
            rel_change = math.sqrt(step.dot(step)) / max(1.0, prev_norm)
            prev_vec[...], prev_norm = vec, math.sqrt(norm2)
            if primal < cfg.tol_primal or rel_change < cfg.tol_change:
                converged = True
                break
            if iterations in margins:
                rung_loss, margin = alignment_loss(state), margins[iterations]
                if racing and rung_loss > margin * race_best:
                    abandoned = True
                    break
                rungs.append((rung_loss, margin))

        loss = math.inf if abandoned else alignment_loss(state)
        headroom = max((r / (m * loss) for r, m in rungs), default=0.0) if 0 < loss < math.inf else 0.0
    return SolverResult(state=state, loss=loss, iterations=iterations, converged=converged, trace=trace,
                        headroom=headroom)
