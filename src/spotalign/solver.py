"""ADMM solver for the linearized rank-1 alignment of two stacked point sets.

The collected points P and a candidate window Rd (both interleaved 2M-vectors
of local-frame meters) are jointly rectified:

    minimize  |E1|_1 + lam * excess(A)
    s.t.      warp(theta1, P)  + E1 = C
              warp(theta2, Rd) + E2 = D          (E2 constant per axis)
              [C  D] = A                          (A is 2M x 2)

``excess(A)`` is the spectral mass of A beyond rank one (the sum of all
singular values but the largest).  Driving it to zero makes the two columns
of A parallel, which is what forces the rectified collected points onto the
candidate pattern; the leading singular value (the pattern itself) carries no
penalty, so the coupling exerts no pressure to shrink or translate the data.
E1 absorbs sparse outliers, E2 absorbs a systematic per-axis offset of the
candidate side, and the rigid transforms are re-linearized every sweep: the
increment least-squares solution is folded into the running transforms and
the inputs re-warped.

:func:`sweep` is the one implementation of a sweep; :func:`admm_solve`
repeats it until convergence, and its trace mode records the same sweep.
The state stacks the two sides: every block is one (2, 2M) array, row 0 the
collected side and row 1 the candidate side, so a block update is one set of
numpy calls for both; the transforms and their increments are (2, 3)
blocks of (theta, s_x, s_y) rows.  It carries the warped inputs W = [W1; W2],
which :meth:`SolverState.set_transforms` rebuilds whenever the transforms
move.  A has exactly two columns and each increment three unknowns, so both
the coupling step (:func:`rank1_excess_prox`, a two-column SVD) and the
increment step (:func:`update_transform_increments`) are closed forms; the
warp Jacobians J1, J2 are only computed on demand, for trace mode and tests.

The E2 regularizer is realized purely through its translation structure (the
per-axis-mean projection is the exact block minimizer), so the augmented
Lagrangian tracked here contains no separate E2 norm term; every block update
is then an exact minimizer and the Lagrangian is non-increasing across the
A, C/D, E1/E2 and increment steps at fixed penalty.

Window scoring uses the alignment loss |E1|_1 + |E2|_1 + |theta1|, where
|theta1| is the Euclidean norm of (theta, s_x / scale, s_y / scale) with the
fixed meters-per-radian-equivalent scale :data:`THETA_NORM_SCALE_M`.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .rigid import RigidTransform2D, StackedCoords, fold_increments, jacobian_values, warp_values

log = logging.getLogger(__name__)

# translation (meters) that weighs like one radian in the alignment loss
THETA_NORM_SCALE_M = 10.0


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
    under-develops.
    """

    lam: float = 100.0
    mu0: float = 0.1
    rho: float = 1.3
    max_iters: int = 300
    tol_primal: float = 1e-4
    tol_change: float = 1e-6

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.mu0 <= 0:
            raise ValueError("mu0 must be positive")
        if self.rho <= 1:
            raise ValueError("rho must exceed 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol_primal <= 0 or self.tol_change <= 0:
            raise ValueError("tolerances must be positive")


class _View:
    """A per-side block, read and written as a view into its stacked array.

    With ``row`` it is that side's row of a (2, 2M) block; without, the
    block seen as the (2M, 2) matrix with one column per side (A and Y3).
    """

    def __init__(self, block: str, row: int | None = None) -> None:
        self.block, self.row = block, row

    def __get__(self, state, owner=None):
        if state is None:
            return self
        stacked = getattr(state, self.block)
        return stacked.T if self.row is None else stacked[self.row]

    def __set__(self, state, value) -> None:
        self.__get__(state)[...] = value


@dataclass
class SolverState:
    """All ADMM blocks for one alignment problem, both sides stacked.

    Every block is a (2, 2M) array whose row 0 is the collected side and
    row 1 the candidate side: ``inputs`` is [P; Rd], ``CD`` the rectified
    blocks [C; D], ``E`` the error blocks [E1; E2], ``Y`` their multipliers
    [Y1; Y2] and ``W`` the warped inputs [W1; W2].  ``A_rows`` and
    ``Y3_rows`` hold the coupling matrix A and its multiplier Y3 (2M x 2)
    transposed into the same layout, so the coupling constraint reads
    CD = A_rows.  ``transforms`` holds the (theta, s_x, s_y) rows of the
    rigid transforms theta1 (moving P) and theta2 (moving Rd), theta in
    (-pi, pi].  ``mu`` is the current penalty.  E2 keeps its translation
    structure (one constant per axis) after every update.

    Each per-side block is also a view under its own name (``P``, ``C``,
    ``E1``, ``W2``, ``A``, ``Y3``, ...); ``theta1`` and ``theta2`` read a
    transform row as a :class:`RigidTransform2D`.  :meth:`set_transforms`
    keeps W in step with the transforms; the Jacobians J1, J2 of W1, W2 are
    computed on demand.
    """

    inputs: np.ndarray
    CD: np.ndarray
    A_rows: np.ndarray
    E: np.ndarray
    transforms: np.ndarray
    Y: np.ndarray
    Y3_rows: np.ndarray
    mu: float
    W: np.ndarray = field(init=False)

    P, Rd = _View("inputs", 0), _View("inputs", 1)
    C, D = _View("CD", 0), _View("CD", 1)
    E1, E2 = _View("E", 0), _View("E", 1)
    Y1, Y2 = _View("Y", 0), _View("Y", 1)
    W1, W2 = _View("W", 0), _View("W", 1)
    A, Y3 = _View("A_rows"), _View("Y3_rows")

    def __post_init__(self) -> None:
        self.set_transforms(self.transforms)

    def set_transforms(self, transforms) -> None:
        """Move both transforms, given as (2, 3) rows, and re-warp the inputs."""
        transforms = np.array(transforms, dtype=float)
        if transforms.shape != (2, 3):
            raise ValueError(f"expected (2, 3) transform rows, got shape {transforms.shape}")
        self.transforms = transforms
        self.W = warp_values(*transforms.T, self.inputs)

    @property
    def theta1(self) -> RigidTransform2D:
        return RigidTransform2D(*self.transforms[0].tolist())

    @property
    def theta2(self) -> RigidTransform2D:
        return RigidTransform2D(*self.transforms[1].tolist())

    @property
    def J1(self) -> np.ndarray:
        return jacobian_values(self.transforms[0, 0], self.P)

    @property
    def J2(self) -> np.ndarray:
        return jacobian_values(self.transforms[1, 0], self.Rd)


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

    def aligned_collected(self) -> np.ndarray:
        """Collected points mapped through the net correction, onto Rd's frame.

        Applies theta1 and then undoes the candidate-side motion (E2 and
        theta2); on a clean alignment this lands on Rd itself.
        """
        s = self.state
        theta, s_x, s_y = s.transforms[1].tolist()
        z = (s.W1 - s.E2).view(np.complex128)
        return (np.exp(-1j * theta) * (z - complex(s_x, s_y))).view(float)


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Elementwise shrinkage sign(v) * max(|v| - t, 0), i.e. v minus its clip to [-t, t]."""
    return v - np.minimum(np.maximum(v, -t), t)


def svt_prox(B: np.ndarray, threshold: float) -> np.ndarray:
    """Singular value thresholding: soft-threshold the spectrum, keep subspaces.

    Proximal operator of threshold * nuclear norm at B; a threshold at or
    above the largest singular value yields the zero matrix.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    B = np.asarray(B, dtype=float)
    u, sig, vt = np.linalg.svd(B, full_matrices=False)
    kept = np.maximum(sig - threshold, 0.0)
    return (u * kept) @ vt


def rank1_excess_prox(B: np.ndarray, threshold: float) -> np.ndarray:
    """Soft-threshold the smaller singular value of a two-column matrix.

    Proximal operator of threshold * (spectral mass beyond rank one).  The
    leading singular pair is untouched, so the dominant pattern carries no
    shrinkage; only the deviation from rank one is penalized.

    Closed form: one Jacobi rotation of the 2x2 Gram matrix gives the right
    singular vectors; the small singular value is taken as |B v2| (not as
    the square root of a Gram eigenvalue, which loses it to cancellation),
    and the result is B - (1 - max(s2 - t, 0) / s2) (B v2) v2^T.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) matrix, got shape {B.shape}")
    (g00, g01), (_, g11) = (B.T @ B).tolist()
    phi = 0.5 * math.atan2(2.0 * g01, g00 - g11)
    v2 = np.array([-math.sin(phi), math.cos(phi)])
    bv2 = B @ v2
    sigma2 = math.sqrt(bv2 @ bv2)
    shrink = 1.0 if sigma2 <= threshold else threshold / sigma2
    return B - np.outer(bv2, shrink * v2)


def rank1_excess(B: np.ndarray) -> float:
    """Spectral mass of B beyond rank one (zero iff rank(B) <= 1)."""
    sig = np.linalg.svd(np.asarray(B, dtype=float), compute_uv=False)
    return float(sig.sum() - sig.max()) if sig.size else 0.0


def axis_mean_replicate(v: np.ndarray) -> np.ndarray:
    """Project an interleaved vector onto translation structure (per-axis means)."""
    pts = v.reshape(-1, 2)
    out = np.empty_like(pts)
    out[:] = pts.sum(axis=0) / len(pts)
    return out.reshape(v.shape)


def init_state(P: StackedCoords, Rd: StackedCoords, cfg: SolverConfig) -> SolverState:
    p = P.values
    r = Rd.values
    if p.size != r.size:
        raise ValueError(f"P and Rd must stack the same point count ({p.size} vs {r.size})")
    if p.size < 4:
        raise ValueError("alignment needs at least 2 points per side")
    inputs = np.stack([p, r])
    return SolverState(
        inputs=inputs, CD=inputs.copy(), A_rows=inputs.copy(), E=np.zeros_like(inputs),
        transforms=np.zeros((2, 3)), Y=np.zeros_like(inputs), Y3_rows=np.zeros_like(inputs),
        mu=cfg.mu0,
    )


def update_coupling(state: SolverState, cfg: SolverConfig) -> SolverState:
    """A-step: threshold the rank-1 excess of [C D] + Y3/mu at lam/mu."""
    target = state.CD + state.Y3_rows / state.mu
    state.A_rows = rank1_excess_prox(target.T, cfg.lam / state.mu).T
    return state


def update_rectified_blocks(state: SolverState) -> SolverState:
    """C/D-step: each block is the average of its two quadratic anchors.

    The transform increments take no part: inside the solve loop they were
    folded at the end of the previous sweep, so they are zero here.
    """
    mu = state.mu
    state.CD = 0.5 * (state.W + state.E + state.Y / mu + state.A_rows - state.Y3_rows / mu)
    return state


def update_error_blocks(state: SolverState) -> SolverState:
    """E-step: shrink the collected-side residual, average the candidate-side one.

    E1 gets the elementwise soft threshold at 1/mu; E2 is the projection of
    its residual onto translation structure (every x entry the mean of the
    x residuals, likewise for y).
    """
    e = state.CD - state.W - state.Y / state.mu
    e[0] = soft_threshold(e[0], 1.0 / state.mu)
    e[1] = axis_mean_replicate(e[1])
    state.E = e
    return state


def update_transform_increments(state: SolverState) -> np.ndarray:
    """Increment-step: least-squares fit of each linearized warp to its residual.

    Returns the (2, 3) increment block, one (d_theta, d_sx, d_sy) row per
    side in the layout of ``state.transforms``.

    Taking each point (x, y) as the complex number x + iy, the Jacobian's
    rotation column at warped point w_i is i (w_i - s) for translation s, so
    with residual r_i each side's 3-unknown problem has the closed form

        d_theta = sum cross(w_i - w_mean, r_i - r_mean) / sum |w_i - w_mean|^2
        d_s     = r_mean - i (w_mean - s) d_theta,

    with cross(a, b) = Im(conj(a) b).  The per-point sums run for both sides
    at once.  A side is singular when its spread sum |w_i - w_mean|^2 is
    negligible against the rotation column's squared norm sum |w_i - s|^2
    (the spread plus M |w_mean - s|^2).

    Raises :class:`NumericalFailureError` if a sum or an increment is not
    finite (checked first: an overflowed sum would pass for singular), and
    :class:`DegenerateGeometryError` for a singular side.
    """
    m = state.W.shape[1] // 2
    w = state.W.view(np.complex128)
    r = (state.CD - state.W - state.E - state.Y / state.mu).view(np.complex128)
    w_mean = w.sum(axis=1) / m
    r_mean = r.sum(axis=1) / m
    wc = w - w_mean[:, None]
    wc_conj = wc.conj()
    spread = (wc_conj * wc).real.sum(axis=1)
    turn = (wc_conj * (r - r_mean[:, None])).sum(axis=1).imag
    # three unknowns per side: scalar arithmetic from here on
    increments = []
    sides = zip(state.transforms.tolist(), w_mean.tolist(), r_mean.tolist(),
                spread.tolist(), turn.tolist())
    for (_, s_x, s_y), w_bar, r_bar, spread_i, turn_i in sides:
        arm = w_bar - complex(s_x, s_y)
        lever = spread_i + m * (arm.real * arm.real + arm.imag * arm.imag)
        if not (math.isfinite(turn_i) and math.isfinite(lever)):
            raise NumericalFailureError()
        if spread_i <= 1e-10 * lever:
            raise DegenerateGeometryError("point set too degenerate for an increment solve")
        d_theta = turn_i / spread_i
        d_s = r_bar - 1j * arm * d_theta
        if not all(map(math.isfinite, (d_theta, d_s.real, d_s.imag))):
            raise NumericalFailureError()
        increments.append((d_theta, d_s.real, d_s.imag))
    return np.array(increments)


def _constraint_residuals(state: SolverState) -> tuple[np.ndarray, np.ndarray]:
    """[W1 + E1 - C; W2 + E2 - D] and [C D] - A, both in row layout."""
    return state.W + state.E - state.CD, state.CD - state.A_rows


def update_multipliers(state: SolverState, cfg: SolverConfig) -> tuple[float, float]:
    """Dual ascent on all three constraints, then grow the penalty.

    Returns the coupling residual |[C D] - A| and the largest of the three
    constraint residuals, both measured before the ascent.
    """
    h, g = _constraint_residuals(state)
    h1, h2 = np.sqrt((h * h).sum(axis=1)).tolist()
    coupling = math.sqrt((g * g).sum())
    primal = max(h1, h2, coupling)
    state.Y = state.Y + state.mu * h
    state.Y3_rows = state.Y3_rows + state.mu * g
    state.mu = state.mu * cfg.rho
    return coupling, primal


def lagrangian(state: SolverState, cfg: SolverConfig) -> float:
    """Augmented Lagrangian at the current state and linearization."""
    h, g = _constraint_residuals(state)
    mu = state.mu
    return float(
        np.abs(state.E1).sum()
        + cfg.lam * rank1_excess(state.A)
        + np.sum(state.Y * h) + 0.5 * mu * np.sum(h * h)
        + np.sum(state.Y3_rows * g) + 0.5 * mu * np.sum(g * g)
    )


def alignment_loss(state: SolverState) -> float:
    """Window score: |E1|_1 + |E2|_1 + norm of the collected-side transform."""
    scale = THETA_NORM_SCALE_M
    theta, s_x, s_y = state.transforms[0].tolist()
    return float(
        np.abs(state.E).sum()
        + math.sqrt(theta**2 + (s_x / scale) ** 2 + (s_y / scale) ** 2)
    )


def _state_vector(state: SolverState) -> np.ndarray:
    return np.concatenate([
        state.CD.ravel(), state.A_rows.ravel(), state.E.ravel(), state.transforms.ravel(),
    ])


def sweep(state: SolverState, cfg: SolverConfig, trace: IterationTrace | None = None) -> float:
    """One ADMM sweep: A -> C/D -> E1/E2 -> increments -> multipliers.

    The increments are folded into the transforms (re-linearizing the warps)
    before the dual step.  Returns the largest constraint residual; with a
    ``trace`` the Lagrangian after each block and the coupling residual are
    appended to it.
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
        # the increment step's value before folding: the same state with each
        # warp moved along its Jacobian
        moved = copy.copy(state)
        moved.W = state.W + np.stack([state.J1 @ increments[0], state.J2 @ increments[1]])
        trace.lagrangians.append((l_start, l_a, l_cd, l_e, lagrangian(moved, cfg)))
    state.set_transforms(fold_increments(state.transforms, increments))
    coupling, primal = update_multipliers(state, cfg)
    if trace is not None:
        trace.coupling_residuals.append(coupling)
    return primal


def admm_solve(
    P: StackedCoords,
    Rd: StackedCoords,
    cfg: SolverConfig | None = None,
    *,
    collect_trace: bool = False,
) -> SolverResult:
    """Run the full alternating solve of P against the candidate window Rd.

    Repeats :func:`sweep` until the largest constraint residual drops below
    ``tol_primal``, the relative state change drops below ``tol_change``, or
    ``max_iters`` sweeps have run.

    Raises :class:`NumericalFailureError` if the state leaves the
    representable range, and :class:`DegenerateGeometryError` for coincident
    input points.
    """
    cfg = cfg or SolverConfig()
    # overflow shows as a non-finite state, which the checks below turn into
    # NumericalFailureError; numpy warnings would only add noise before it
    with np.errstate(over="ignore", invalid="ignore"):
        state = init_state(P, Rd, cfg)
        trace = IterationTrace() if collect_trace else None

        converged = False
        prev_vec = _state_vector(state)
        prev_norm = math.sqrt(prev_vec @ prev_vec)
        for iterations in range(1, cfg.max_iters + 1):
            try:
                primal = sweep(state, cfg, trace)
            except NumericalFailureError:
                raise NumericalFailureError(iterations) from None
            vec = _state_vector(state)
            norm2 = vec @ vec  # not finite once any entry (or the norm itself) is not
            if not math.isfinite(norm2):
                raise NumericalFailureError(iterations)
            step = vec - prev_vec
            rel_change = math.sqrt(step @ step) / max(1.0, prev_norm)
            prev_vec, prev_norm = vec, math.sqrt(norm2)
            if primal < cfg.tol_primal or rel_change < cfg.tol_change:
                converged = True
                break

        loss = alignment_loss(state)
    log.debug(
        "admm_solve: m=%d iters=%d converged=%s primal=%.3e loss=%.6f",
        state.inputs.shape[1] // 2, iterations, converged, primal, loss,
    )
    return SolverResult(state=state, loss=loss, iterations=iterations, converged=converged, trace=trace)
