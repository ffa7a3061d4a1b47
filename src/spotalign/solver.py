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
increment least-squares solution is folded into the running transform and
the Jacobians recomputed.

:func:`sweep` is the one implementation of a sweep; :func:`admm_solve`
repeats it until convergence, and its trace mode records the same sweep.
The state carries its current linearization (the warped inputs W1, W2 and
their Jacobians J1, J2), which :meth:`SolverState.set_transforms` rebuilds
whenever the transforms move, so every block update reads one copy of it.

The E2 regularizer is realized purely through its translation structure (the
per-axis-mean projection is the exact block minimizer), so the augmented
Lagrangian tracked here contains no separate E2 norm term; every block update
is then an exact minimizer and the Lagrangian is non-increasing across the
A, C/D, E1/E2 and increment steps at fixed penalty.

Window scoring uses the alignment loss |E1|_1 + |E2|_1 + |theta1|, where
|theta1| is the Euclidean norm of (theta, s_x / scale, s_y / scale) with a
configurable meters-per-radian-equivalent scale.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .rigid import (
    RigidTransform2D,
    StackedCoords,
    TransformIncrement,
    compose,
    invert,
    jacobian_values,
    warp_values,
)

log = logging.getLogger(__name__)


class DegenerateGeometryError(Exception):
    """All points (numerically) coincide; the increment solve is singular."""


class NumericalFailureError(Exception):
    """The solver state left the representable range."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"solver state became non-finite at iteration {iteration}")


@dataclass(frozen=True)
class SolverConfig:
    """Solver hyper-parameters.

    ``lam`` weights the rank-1 coupling (100 is the sweet spot across a
    1..10000 sweep).  ``mu0`` and ``rho`` drive the monotonically increasing
    penalty schedule; the default start places the initial coupling threshold
    lam/mu0 (1 km at the default lam) far above the discrepancy scale of a
    corrupted window, so the cross-column collapse completes, while at lam=1
    the same start leaves the threshold (10 m) below it and alignment visibly
    under-develops.  ``theta_norm_scale`` is the translation unit (meters)
    that weighs like one radian in the alignment loss.
    """

    lam: float = 100.0
    mu0: float = 0.1
    rho: float = 1.3
    max_iters: int = 300
    tol_primal: float = 1e-4
    tol_change: float = 1e-6
    theta_norm_scale: float = 10.0

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
        if self.theta_norm_scale <= 0:
            raise ValueError("theta_norm_scale must be positive")


@dataclass
class SolverState:
    """All ADMM blocks for one alignment problem.

    P and Rd are fixed inputs; C, D, A, E1, E2 are the primal blocks;
    Y1, Y2, Y3 the multipliers; mu the current penalty.  E2 keeps its
    translation structure (one constant per axis) after every update.
    W1, W2 (the warped inputs) and J1, J2 (their Jacobians) are the current
    linearization; :meth:`set_transforms` keeps them in step with the
    transforms.
    """

    P: np.ndarray
    Rd: np.ndarray
    C: np.ndarray
    D: np.ndarray
    A: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    theta1: RigidTransform2D
    theta2: RigidTransform2D
    Y1: np.ndarray
    Y2: np.ndarray
    Y3: np.ndarray
    mu: float
    W1: np.ndarray = field(init=False)
    W2: np.ndarray = field(init=False)
    J1: np.ndarray = field(init=False)
    J2: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.set_transforms(self.theta1, self.theta2)

    def set_transforms(self, theta1: RigidTransform2D, theta2: RigidTransform2D) -> None:
        """Move both transforms and re-linearize the warps around them."""
        self.theta1, self.theta2 = theta1, theta2
        self.J1 = jacobian_values(theta1.theta, self.P)
        self.J2 = jacobian_values(theta2.theta, self.Rd)
        self.W1 = warp_values(theta1.theta, theta1.s_x, theta1.s_y, self.P)
        self.W2 = warp_values(theta2.theta, theta2.s_x, theta2.s_y, self.Rd)


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
        back = invert(s.theta2)
        return warp_values(back.theta, back.s_x, back.s_y, s.W1 - s.E2)


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Elementwise shrinkage sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


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
    """Soft-threshold every singular value except the largest.

    Proximal operator of threshold * (spectral mass beyond rank one).  The
    leading singular pair is untouched, so the dominant pattern carries no
    shrinkage; only the deviation from rank one is penalized.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    B = np.asarray(B, dtype=float)
    u, sig, vt = np.linalg.svd(B, full_matrices=False)
    kept = sig.copy()
    kept[1:] = np.maximum(kept[1:] - threshold, 0.0)
    return (u * kept) @ vt


def rank1_excess(B: np.ndarray) -> float:
    """Spectral mass of B beyond rank one (zero iff rank(B) <= 1)."""
    sig = np.linalg.svd(np.asarray(B, dtype=float), compute_uv=False)
    return float(sig.sum() - sig.max()) if sig.size else 0.0


def axis_mean_replicate(v: np.ndarray) -> np.ndarray:
    """Project an interleaved vector onto translation structure (per-axis means)."""
    out = np.empty_like(v)
    out[0::2] = v[0::2].mean()
    out[1::2] = v[1::2].mean()
    return out


def init_state(P: StackedCoords, Rd: StackedCoords, cfg: SolverConfig) -> SolverState:
    p = P.values
    r = Rd.values
    if p.size != r.size:
        raise ValueError(f"P and Rd must stack the same point count ({p.size} vs {r.size})")
    if p.size < 4:
        raise ValueError("alignment needs at least 2 points per side")
    return SolverState(
        P=p.copy(), Rd=r.copy(),
        C=p.copy(), D=r.copy(),
        A=np.stack([p, r], axis=1),
        E1=np.zeros_like(p), E2=np.zeros_like(r),
        theta1=RigidTransform2D.identity(), theta2=RigidTransform2D.identity(),
        Y1=np.zeros_like(p), Y2=np.zeros_like(r),
        Y3=np.zeros((p.size, 2)),
        mu=cfg.mu0,
    )


def update_coupling(state: SolverState, cfg: SolverConfig) -> SolverState:
    """A-step: threshold the rank-1 excess of [C D] + Y3/mu at lam/mu."""
    target = np.stack([state.C, state.D], axis=1) + state.Y3 / state.mu
    state.A = rank1_excess_prox(target, cfg.lam / state.mu)
    return state


def update_rectified_blocks(state: SolverState) -> SolverState:
    """C/D-step: each block is the average of its two quadratic anchors.

    The transform increments take no part: inside the solve loop they were
    folded at the end of the previous sweep, so they are zero here.
    """
    w1 = state.W1 + state.E1 + state.Y1 / state.mu
    state.C = 0.5 * (w1 + state.A[:, 0] - state.Y3[:, 0] / state.mu)

    w2 = state.W2 + state.E2 + state.Y2 / state.mu
    state.D = 0.5 * (w2 + state.A[:, 1] - state.Y3[:, 1] / state.mu)
    return state


def update_error_blocks(state: SolverState) -> SolverState:
    """E-step: shrink the collected-side residual, average the candidate-side one.

    E1 gets the elementwise soft threshold at 1/mu; E2 is the projection of
    its residual onto translation structure (every x entry the mean of the
    x residuals, likewise for y).
    """
    state.E1 = soft_threshold(state.C - state.W1 - state.Y1 / state.mu, 1.0 / state.mu)
    state.E2 = axis_mean_replicate(state.D - state.W2 - state.Y2 / state.mu)
    return state


def _solve_increment(grad: np.ndarray, residual: np.ndarray) -> TransformIncrement:
    # column-equilibrated normal equations: the rotation column norm grows with
    # the coordinate magnitude, so solve in scaled variables
    norms = np.sqrt((grad * grad).sum(axis=0))
    if np.any(norms == 0.0):
        raise DegenerateGeometryError("degenerate geometry: zero Jacobian column")
    scaled = grad / norms
    gtg = scaled.T @ scaled
    # after equilibration the translation columns are orthonormal, so the Gram
    # is singular exactly when the rotation column lies in their span
    r2 = gtg[0, 1] ** 2 + gtg[0, 2] ** 2
    if r2 > 1.0 - 1e-10:
        raise DegenerateGeometryError("point set too degenerate for an increment solve")
    sol = np.linalg.solve(gtg, scaled.T @ residual) / norms
    return TransformIncrement(float(sol[0]), float(sol[1]), float(sol[2]))


def update_transform_increments(state: SolverState) -> tuple[TransformIncrement, TransformIncrement]:
    """Increment-step: least-squares fit of each linearized warp to its residual."""
    d1 = _solve_increment(state.J1, state.C - state.W1 - state.E1 - state.Y1 / state.mu)
    d2 = _solve_increment(state.J2, state.D - state.W2 - state.E2 - state.Y2 / state.mu)
    return d1, d2


def _constraint_residuals(state: SolverState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W1 + E1 - C, W2 + E2 - D and [C D] - A."""
    h1 = state.W1 + state.E1 - state.C
    h2 = state.W2 + state.E2 - state.D
    g = np.stack([state.C, state.D], axis=1) - state.A
    return h1, h2, g


def update_multipliers(state: SolverState, cfg: SolverConfig) -> tuple[float, float]:
    """Dual ascent on all three constraints, then grow the penalty.

    Returns the coupling residual |[C D] - A| and the largest of the three
    constraint residuals, both measured before the ascent.
    """
    h1, h2, g = _constraint_residuals(state)
    coupling = float(np.linalg.norm(g))
    primal = max(float(np.linalg.norm(h1)), float(np.linalg.norm(h2)), coupling)
    state.Y1 = state.Y1 + state.mu * h1
    state.Y2 = state.Y2 + state.mu * h2
    state.Y3 = state.Y3 + state.mu * g
    state.mu = state.mu * cfg.rho
    return coupling, primal


def lagrangian(state: SolverState, cfg: SolverConfig) -> float:
    """Augmented Lagrangian at the current state and linearization."""
    h1, h2, g = _constraint_residuals(state)
    mu = state.mu
    return float(
        np.abs(state.E1).sum()
        + cfg.lam * rank1_excess(state.A)
        + state.Y1 @ h1 + 0.5 * mu * (h1 @ h1)
        + state.Y2 @ h2 + 0.5 * mu * (h2 @ h2)
        + np.sum(state.Y3 * g) + 0.5 * mu * np.sum(g * g)
    )


def alignment_loss(state: SolverState, cfg: SolverConfig) -> float:
    """Window score: |E1|_1 + |E2|_1 + norm of the collected-side transform."""
    scale = cfg.theta_norm_scale
    t = state.theta1
    return float(
        np.abs(state.E1).sum()
        + np.abs(state.E2).sum()
        + math.sqrt(t.theta**2 + (t.s_x / scale) ** 2 + (t.s_y / scale) ** 2)
    )


def _state_vector(state: SolverState) -> np.ndarray:
    return np.concatenate([
        state.C, state.D, state.A.ravel(), state.E1, state.E2,
        [state.theta1.theta, state.theta1.s_x, state.theta1.s_y,
         state.theta2.theta, state.theta2.s_x, state.theta2.s_y],
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
    d1, d2 = update_transform_increments(state)
    if trace is not None:
        # the increment step's value before folding: the same state with each
        # warp moved along its Jacobian
        moved = copy.copy(state)
        moved.W1 = state.W1 + state.J1 @ d1.as_vector()
        moved.W2 = state.W2 + state.J2 @ d2.as_vector()
        trace.lagrangians.append((l_start, l_a, l_cd, l_e, lagrangian(moved, cfg)))
    state.set_transforms(compose(d1, state.theta1), compose(d2, state.theta2))
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
    state = init_state(P, Rd, cfg)
    trace = IterationTrace() if collect_trace else None

    converged = False
    prev_vec = _state_vector(state)
    for iterations in range(1, cfg.max_iters + 1):
        primal = sweep(state, cfg, trace)
        vec = _state_vector(state)
        if not np.all(np.isfinite(vec)):
            raise NumericalFailureError(iterations)
        rel_change = float(
            np.linalg.norm(vec - prev_vec) / max(1.0, float(np.linalg.norm(prev_vec)))
        )
        prev_vec = vec
        if primal < cfg.tol_primal or rel_change < cfg.tol_change:
            converged = True
            break

    loss = alignment_loss(state, cfg)
    log.debug(
        "admm_solve: m=%d iters=%d converged=%s primal=%.3e loss=%.6f",
        state.P.size // 2, iterations, converged, primal, loss,
    )
    return SolverResult(state=state, loss=loss, iterations=iterations, converged=converged, trace=trace)
