import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spotalign.solver
from spotalign.rigid import jacobian_values, warp_values
from spotalign.solver import (
    DegenerateGeometryError,
    NumericalFailureError,
    SolverConfig,
    SolverResult,
    SolverState,
    admm_solve,
    alignment_loss,
    fold_and_rewarp,
    lagrangian,
    rank1_excess,
    svt_prox,
    sweep,
    update_coupling,
    update_error_blocks,
    update_multipliers,
    update_rectified_blocks,
    update_transform_increments,
)

from conftest import random_transform


def collinear_spots(m=10, spacing=6.0):
    xs = (np.arange(m) - (m - 1) / 2) * spacing
    return np.stack([xs, np.zeros(m)], axis=1)


def random_state(rng, m=8, mu=0.7):
    cfg = SolverConfig(mu0=mu)
    state = SolverState(rng.uniform(-40, 40, (m, 2)), rng.uniform(-40, 40, (m, 2)), mu)
    state.blocks[0, 0] = rng.uniform(-40, 40, 2 * m)
    state.blocks[0, 1] = rng.uniform(-40, 40, 2 * m)
    state.blocks[1] = rng.uniform(-40, 40, (2 * m, 2)).T
    state.blocks[2, 0] = rng.uniform(-3, 3, 2 * m)
    state.blocks[2, 1] = np.tile(rng.uniform(-3, 3, (m, 2)).mean(axis=0), m)  # constant per axis
    state.duals[0, 0] = rng.uniform(-1, 1, 2 * m)
    state.duals[0, 1] = rng.uniform(-1, 1, 2 * m)
    state.duals[1] = rng.uniform(-1, 1, (2 * m, 2)).T
    move_transforms(state, [
        [rng.uniform(-0.3, 0.3), rng.uniform(-5, 5), rng.uniform(-5, 5)],
        [rng.uniform(-0.3, 0.3), rng.uniform(-5, 5), rng.uniform(-5, 5)],
    ])
    return state, cfg


def move_transforms(state, rows):
    """Set both transforms to the (2, 3) ``rows`` and re-warp W, through the solver's one writer."""
    state.transforms[...] = rows
    fold_and_rewarp(state, [(0.0, 0.0, 0.0)] * 2)


def coupling_step(b, threshold, via_duals=False):
    """The A-step's new A, (n, 2), for [C D] + U3 = ``b`` at ``threshold``, and the threshold it used.

    ``b`` enters through [C D] or, with ``via_duals``, through U3; n is even.
    """
    cfg = SolverConfig()
    state = SolverState(np.zeros((len(b) // 2, 2)), np.zeros((len(b) // 2, 2)), cfg.lam / threshold)
    (state.duals[1] if via_duals else state.blocks[0])[...] = b.T
    update_coupling(state, cfg)
    return state.blocks[1].T.copy(), cfg.lam / state.mu


def increment_residual(state):
    """Write the residual [C D] - W - E - U that the increment step fits to ``state.residual``."""
    state.residual[...] = state.blocks[0] - state.W - state.blocks[2] - state.duals[0]


def jacobians(state):
    """The warp Jacobians J1, J2 at the state's transforms."""
    return [jacobian_values(state.transforms[k, 0], state.inputs[k]) for k in (0, 1)]


# one side of a point pair that every entry point must reject, and the message
MALFORMED = [
    (np.ones((6, 3)), "shape"), (np.ones(12), "shape"), (np.ones((2, 6, 2)), "shape"),
    (np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]]), "finite"),
    (np.array([[0.0, 1.0], [2.0, np.inf], [3.0, 4.0]]), "finite"),
    (np.array([[0.0, 1.0], [2.0, 3.0], [-np.inf, 4.0]]), "finite"),
]
MALFORMED_IDS = ["3-columns", "flat", "3-d", "nan", "inf", "-inf"]


# (n, 2) matrices down to sigma_2 / sigma_1 = 1e-12, with column scales 1e6
# apart, and a threshold as a fraction of sigma_1 (of 1 for a zero matrix).
# The A-step sees 2M rows and thresholds at lam / mu > 0: n is even, the
# threshold positive
EXCESS_CASES = dict(
    n=st.integers(2, 35).map(lambda m: 2 * m),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["general", "rank1", "zero"]),
    ratio_exp=st.one_of(st.just(0.0), st.floats(-12.0, 0.0)),
    scale_exp=st.floats(-6.0, 6.0),
    col_scale_exp=st.one_of(st.just(0.0), st.floats(-6.0, 6.0)),
    t_frac=st.floats(1e-14, 2.0),
)


def excess_case(n, seed, kind, ratio_exp, scale_exp, col_scale_exp, t_frac):
    """The matrix and threshold an EXCESS_CASES draw describes."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        b = np.zeros((n, 2))
    elif kind == "rank1":
        col = rng.normal(size=n) * 10.0**scale_exp
        b = np.stack([col, col * rng.choice([0.0, 0.5, -2.0, 1.0])], axis=1)[:, rng.permutation(2)]
    else:
        u, _ = np.linalg.qr(rng.normal(size=(n, 2)))
        ang = rng.uniform(0, 2 * math.pi)
        v = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        b = u @ np.diag([1.0, 10.0**ratio_exp]) @ v.T * 10.0**scale_exp
    b = b * [1.0, 10.0**col_scale_exp]
    return b, t_frac * (np.linalg.svd(b, compute_uv=False)[0] or 1.0)


def malformed_pair(bad, side):
    good = np.arange(bad.size, dtype=float).reshape(-1, 2)
    pair = [good, good]
    pair[side] = bad
    return pair


class TestSolverState:
    def test_start(self, rng):
        p, rd = rng.uniform(-40, 40, (5, 2)), rng.uniform(-40, 40, (5, 2))
        state = SolverState(p, rd, 0.25)
        inputs = np.stack([p.reshape(-1), rd.reshape(-1)])
        assert state.mu == 0.25
        assert np.array_equal(state.inputs, inputs)
        assert np.array_equal(state.blocks[0], inputs) and np.array_equal(state.blocks[1], inputs)
        assert not state.blocks[2].any() and not state.transforms.any() and not state.duals.any()
        assert np.array_equal(state.W, inputs)
        # blocks and transforms are views into the iterate; W and the duals are not part of it
        assert np.shares_memory(state.blocks, state.vector) and np.shares_memory(state.transforms, state.vector)
        assert not np.shares_memory(state.W, state.vector) and not np.shares_memory(state.duals, state.vector)

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad, match", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_points_rejected(self, bad, match, side):
        with pytest.raises(ValueError, match=match):
            SolverState(*malformed_pair(bad, side), 0.1)

    def test_size_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="same point count"):
            SolverState(rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (5, 2)), 0.1)

    def test_single_point_rejected(self):
        pts = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError, match="at least 2 points"):
            SolverState(pts, pts, 0.1)

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf], ids=repr)
    def test_bad_mu_rejected(self, mu):
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            SolverState(pts, pts, mu)


class TestFoldAndRewarp:
    """Composition laws of :func:`fold_and_rewarp`, one transform row per side."""

    @staticmethod
    def state_at(rng, base, m=10):
        state = SolverState(rng.uniform(-100, 100, (m, 2)), rng.uniform(-100, 100, (m, 2)), 1.0)
        state.transforms[...] = base
        return state

    def test_zero_increment(self, rng):
        base = np.stack([random_transform(rng), random_transform(rng)])
        state = self.state_at(rng, base)
        fold_and_rewarp(state, [(0.0, 0.0, 0.0)] * 2)
        assert np.array_equal(state.transforms, base)

    def test_identity_base(self, rng):
        state = self.state_at(rng, np.zeros((2, 3)))
        increments = [(0.3, 1.0, -2.0), (-0.2, 0.5, 4.0)]
        fold_and_rewarp(state, increments)
        assert state.transforms == pytest.approx(np.array(increments))

    def test_matches_sequential_warps(self, rng):
        for _ in range(25):
            base = np.stack([random_transform(rng), random_transform(rng)])
            increments = rng.uniform(-0.5, 0.5, size=(2, 3))
            state = self.state_at(rng, base, m=100)
            fold_and_rewarp(state, increments.tolist())
            two_step = np.stack([warp_values(inc, warp_values(t, z))
                                 for t, inc, z in zip(base, increments, state.inputs)])
            bound = 1e-12 * max(1.0, np.abs(two_step).max())
            assert np.abs(warp_values(state.transforms, state.inputs) - two_step).max() < bound
            assert np.abs(state.W - two_step).max() < bound

    def test_fold_normalizes_theta(self, rng):
        state = self.state_at(rng, np.zeros((2, 3)))
        state.transforms[0, 0] = 3.0
        fold_and_rewarp(state, [(0.5, 0.0, 0.0), (0.0, 0.0, 0.0)])
        assert state.transforms[0, 0] == pytest.approx(3.5 - 2 * math.pi)

    @given(m=st.integers(2, 12), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_setup_w_is_the_identity_warp(self, m, data):
        # bit for bit, sign bits included: the warp maps -0.0 to +0.0
        entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
        values = np.array(data.draw(st.lists(entry, min_size=4 * m, max_size=4 * m))).reshape(2, m, 2)
        state = SolverState(values[0], values[1], 1.0)
        assert state.W.tobytes() == warp_values(np.zeros((2, 3)), state.inputs).tobytes()


class TestSvtProx:
    def test_diagonal_action(self, rng):
        u, _ = np.linalg.qr(rng.normal(size=(8, 2)))
        ang = 0.4
        v = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        b = u @ np.diag([5.0, 2.0]) @ v.T
        out = svt_prox(b, 1.0)
        assert np.allclose(out, u @ np.diag([4.0, 1.0]) @ v.T, atol=1e-10)

    def test_zero_threshold_identity(self, rng):
        b = rng.normal(size=(10, 2))
        assert np.allclose(svt_prox(b, 0.0), b, atol=1e-12)

    def test_large_threshold_zeroes(self, rng):
        b = rng.normal(size=(6, 2))
        sig = np.linalg.svd(b, compute_uv=False)
        assert np.allclose(svt_prox(b, sig.max()), 0.0, atol=1e-12)

    def test_prox_objective_oracle(self, rng):
        # no random perturbation of the output may further reduce
        # t * nuclear(X) + 0.5 * |X - B|_F^2
        b = rng.normal(size=(8, 2)) * 3
        t = 0.7
        out = svt_prox(b, t)

        def objective(x):
            return t * np.linalg.svd(x, compute_uv=False).sum() + 0.5 * np.sum((x - b) ** 2)

        base = objective(out)
        for _ in range(2000):
            scale = 10.0 ** rng.uniform(-4, 0)
            assert objective(out + rng.normal(size=out.shape) * scale) >= base - 1e-12

    def test_rank_bounds(self, rng):
        b = rng.normal(size=(12, 2))
        sig = np.linalg.svd(b, compute_uv=False)
        assert np.linalg.matrix_rank(svt_prox(b, 0.0)) <= 2
        shrunk = svt_prox(b, sig[1] + 1e-9)
        assert np.linalg.matrix_rank(shrunk, tol=1e-8) <= 1

    def test_negative_threshold_rejected(self):
        for threshold in (-0.1, math.nan):
            with pytest.raises(ValueError, match="threshold"):
                svt_prox(np.eye(2), threshold)


class TestRank1ExcessProx:
    """The A-step's proximal operator of the rank-1 excess, run by ``update_coupling`` on a state."""

    def test_keeps_leading_value(self, rng):
        b = rng.normal(size=(8, 2)) * 4
        sig_in = np.linalg.svd(b, compute_uv=False)
        out, t = coupling_step(b, 0.5)
        sig_out = np.linalg.svd(out, compute_uv=False)
        assert sig_out[0] == pytest.approx(sig_in[0], abs=1e-10)
        assert sig_out[1] == pytest.approx(max(sig_in[1] - t, 0.0), abs=1e-10)

    @given(**EXCESS_CASES, via_duals=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_svd_reference(self, via_duals, **case):
        # sigma_1 kept, sigma_2 soft-thresholded, against LAPACK's SVD, down
        # to sigma_2 / sigma_1 = 1e-12 and column scales 1e6 apart
        b, t = excess_case(**case)
        u, sig_in, vt = np.linalg.svd(b, full_matrices=False)
        out, t = coupling_step(b, t, via_duals)
        sig_out = np.linalg.svd(out, compute_uv=False)
        assert sig_out[0] == pytest.approx(sig_in[0], rel=1e-12, abs=0.0)
        assert abs(sig_out[1] - max(sig_in[1] - t, 0.0)) <= 1e-10 * sig_in[0]
        if sig_in[0] - sig_in[1] > 1e-3 * sig_in[0]:
            # a clear spectral gap fixes the singular vectors: same matrix
            reference = (u * [sig_in[0], max(sig_in[1] - t, 0.0)]) @ vt
            assert np.abs(out - reference).max() <= 1e-10 * sig_in[0]

    def test_negative_threshold_rejected(self):
        # the threshold is lam / mu, and neither can be negative or NaN
        for bad in (-0.1, math.nan):
            with pytest.raises(ValueError, match="lam"):
                SolverConfig(lam=bad)
            with pytest.raises(ValueError, match="mu"):
                SolverState(np.ones((3, 2)), np.ones((3, 2)), bad)

    @pytest.mark.parametrize("shape", [(6, 3), (6, 1), (6,)])
    def test_not_two_columns_rejected(self, shape):
        # B is [C D] + U3, two columns of a state, whose inputs must be (M, 2)
        with pytest.raises(ValueError, match="shape"):
            SolverState(np.ones(shape), np.ones(shape), 0.1)

    def test_excess_measure(self, rng):
        b = rng.normal(size=(8, 2))
        sig = np.linalg.svd(b, compute_uv=False)
        assert rank1_excess(b) == pytest.approx(sig[1], abs=1e-12)
        assert rank1_excess(np.ones((6, 2))) == pytest.approx(0.0, abs=1e-12)


class TestRectifiedBlocks:
    def test_fixed_point(self, rng):
        state, cfg = random_state(rng)
        state.blocks[2] = 0.0
        state.duals[:] = 0.0
        state.blocks[1] = state.W
        update_rectified_blocks(state)
        assert np.allclose(state.blocks[0, 0], state.W[0], atol=1e-12)
        assert np.allclose(state.blocks[0, 1], state.W[1], atol=1e-12)

    def test_averages_anchors(self, rng):
        state, cfg = random_state(rng)
        # make W1 = 2 everywhere and W2 = 0 by construction
        move_transforms(state, [[0.0, 0.0, 0.0], state.transforms[1]])
        state.blocks[2, 0] = 2.0 - state.inputs[0]
        state.duals[0, 0] = 0.0
        state.blocks[1, 0] = 0.0
        state.duals[1, 0] = 0.0
        update_rectified_blocks(state)
        assert np.allclose(state.blocks[0, 0], 1.0, atol=1e-12)

    def test_stationary_in_c(self, rng):
        state, cfg = random_state(rng)
        update_rectified_blocks(state)
        h = 1e-3
        for idx in range(0, state.blocks[0, 0].size, 5):
            base = state.blocks[0, 0, idx]
            state.blocks[0, 0, idx] = base + h
            up = lagrangian(state, cfg)
            state.blocks[0, 0, idx] = base - h
            down = lagrangian(state, cfg)
            state.blocks[0, 0, idx] = base
            assert abs(up - down) / (2 * h) < 1e-8


class TestErrorBlocks:
    def test_soft_threshold_example(self, rng):
        state, cfg = random_state(rng, m=2)
        state.mu = 2.0  # threshold 1/mu = 0.5
        move_transforms(state, np.zeros((2, 3)))
        state.duals[0, 0] = 0.0
        state.blocks[0, 0] = state.inputs[0] + np.array([0.3, -2.0, 0.0, 0.0])
        state.duals[0, 1] = 0.0
        state.blocks[0, 1] = state.inputs[1].copy()
        update_error_blocks(state)
        assert np.allclose(state.blocks[2, 0], [0.0, -1.5, 0.0, 0.0], atol=1e-12)

    def test_axis_means_example(self, rng):
        state, cfg = random_state(rng, m=2)
        move_transforms(state, np.zeros((2, 3)))
        state.duals[0, 1] = 0.0
        state.blocks[0, 1] = state.inputs[1] + np.array([1.0, 3.0, 2.0, 4.0])
        state.duals[0, 0] = 0.0
        state.blocks[0, 0] = state.inputs[0].copy()
        update_error_blocks(state)
        assert np.allclose(state.blocks[2, 1], [1.5, 3.5, 1.5, 3.5], atol=1e-12)

    def test_e2_least_squares_oracle(self, rng):
        # E2 must beat every translation-structured vector on a refined grid
        state, cfg = random_state(rng, m=6)
        update_error_blocks(state)
        target = state.blocks[0, 1] - state.W[1] - state.duals[0, 1]
        best = float(np.sum((state.blocks[2, 1] - target) ** 2))
        ex, ey = state.blocks[2, 1, :2]
        for dx in np.linspace(-2, 2, 41):
            for dy in np.linspace(-2, 2, 41):
                cand = np.empty_like(target)
                cand[0::2] = ex + dx
                cand[1::2] = ey + dy
                assert np.sum((cand - target) ** 2) >= best - 1e-9

    def test_e2_structure(self, rng):
        state, cfg = random_state(rng)
        update_error_blocks(state)
        assert np.ptp(state.blocks[2, 1, 0::2]) == 0.0
        assert np.ptp(state.blocks[2, 1, 1::2]) == 0.0


class TestTransformIncrements:
    def test_zero_residual(self, rng):
        state, cfg = random_state(rng)
        state.blocks[0, 0] = state.W[0] + state.blocks[2, 0] + state.duals[0, 0]
        state.blocks[0, 1] = state.W[1] + state.blocks[2, 1] + state.duals[0, 1]
        increment_residual(state)
        d1, d2 = update_transform_increments(state)
        assert np.allclose(d1, 0.0, atol=1e-9)
        assert np.allclose(d2, 0.0, atol=1e-9)

    def test_pure_translation_residual(self, rng):
        state, cfg = random_state(rng)
        j1, _ = jacobians(state)
        state.blocks[0, 0] = state.W[0] + state.blocks[2, 0] + state.duals[0, 0] + j1 @ np.array([0.0, 2.5, -1.25])
        increment_residual(state)
        d1, _ = update_transform_increments(state)
        assert d1 == pytest.approx([0.0, 2.5, -1.25], abs=1e-9)

    def test_normal_equations_satisfied(self, rng):
        for _ in range(20):
            state, cfg = random_state(rng)
            increment_residual(state)
            d1, d2 = update_transform_increments(state)
            gradP, gradRd = jacobians(state)
            r1 = state.blocks[0, 0] - state.W[0] - state.blocks[2, 0] - state.duals[0, 0]
            r2 = state.blocks[0, 1] - state.W[1] - state.blocks[2, 1] - state.duals[0, 1]
            assert np.linalg.norm(gradP.T @ (gradP @ d1 - r1)) < 1e-9 * max(1, np.linalg.norm(r1))
            assert np.linalg.norm(gradRd.T @ (gradRd @ d2 - r2)) < 1e-9 * max(1, np.linalg.norm(r2))

    def test_coincident_points_degenerate(self):
        cfg = SolverConfig()
        pts = np.zeros((5, 2))
        state = SolverState(pts, pts, cfg.mu0)
        increment_residual(state)
        with pytest.raises(DegenerateGeometryError):
            update_transform_increments(state)


class TestMultipliers:
    def test_zero_residuals_leave_duals(self, rng):
        state, cfg = random_state(rng)
        state.blocks[0, 0] = state.W[0] + state.blocks[2, 0]
        state.blocks[0, 1] = state.W[1] + state.blocks[2, 1]
        state.blocks[1] = state.blocks[0]
        # the multipliers Y = mu U stay put, so U shrinks as mu grows
        u1, mu = state.duals[0, 0].copy(), state.mu
        update_multipliers(state, cfg)
        assert np.array_equal(state.duals[0, 0], u1 / cfg.rho)
        assert state.mu == pytest.approx(cfg.rho * mu, rel=1e-15)

    def test_residual_scaling(self, rng):
        state, cfg = random_state(rng)
        state.duals[0, 0] = 0.0
        state.mu = 2.0
        r = state.W[0] + state.blocks[2, 0] - state.blocks[0, 0]
        update_multipliers(state, cfg)
        assert np.allclose(state.duals[0, 0] * state.mu, 2.0 * r, atol=1e-12)

    def test_geometric_penalty_growth(self):
        # feasible but not instantly convergent: a small offset instance
        gt = collinear_spots(10)
        cfg = SolverConfig(mu0=0.05, max_iters=20, tol_primal=1e-15, tol_change=1e-15)
        res = admm_solve(gt + [1.0, -2.0], gt, cfg)
        assert res.iterations == 20
        assert res.state.mu == pytest.approx(0.05 * cfg.rho**20, rel=1e-12)


class TestAdmmSolve:
    def test_clean_fixed_point(self):
        pts = collinear_spots(10)
        res = admm_solve(pts, pts, SolverConfig(tol_primal=1e-9, tol_change=1e-12))
        assert res.converged
        assert np.abs(res.state.blocks[2, 0]).sum() < 1e-6
        assert abs(res.state.transforms[0, 0]) < 1e-6
        assert math.hypot(*res.state.transforms[0, 1:]) < 1e-3
        assert res.loss < 1e-3

    def test_constant_offset_recovery(self):
        gt = collinear_spots(30)
        res = admm_solve(gt + np.array([4.0, -2.0]), gt, SolverConfig())
        aligned = res.aligned_collected().reshape(-1, 2)
        assert np.hypot(*(aligned - gt).T).max() < 1e-2

    def test_aligned_collected_inverse_round_trip(self, rng):
        # with theta1 == theta2 and E2 = 0 the net correction is the identity
        for _ in range(20):
            pts = rng.uniform(-100, 100, (6, 2))
            state = SolverState(pts, pts, SolverConfig().mu0)
            t = [rng.uniform(-math.pi, math.pi), rng.uniform(-50, 50), rng.uniform(-50, 50)]
            move_transforms(state, [t, t])
            back = SolverResult(state, loss=0.0, iterations=0, converged=False).aligned_collected()
            assert np.max(np.abs(back - pts.reshape(-1))) < 1e-9

    def test_planted_outlier_support(self, rng):
        gt = collinear_spots(30)
        noisy = gt.copy()
        planted = [4, 13, 22]
        for i in planted:
            noisy[i] += np.array([14.1, -14.1])
        res = admm_solve(noisy, gt, SolverConfig())
        e1 = res.state.blocks[2, 0].reshape(-1, 2)
        support = np.nonzero(np.abs(e1).max(axis=1) > 1.0)[0].tolist()
        assert support == planted

    def test_block_descent(self, rng):
        for _ in range(10):
            res = admm_solve(
                rng.uniform(-40, 40, (10, 2)),
                rng.uniform(-40, 40, (10, 2)),
                SolverConfig(),
                collect_trace=True,
            )
            for l0, la, lcd, le, linc in res.trace.lagrangians:
                assert la <= l0 + 1e-9
                assert lcd <= la + 1e-9
                assert le <= lcd + 1e-9
                assert linc <= le + 1e-9

    def test_feasibility_trend(self, rng):
        gt = collinear_spots(20)
        noisy = gt + rng.normal(0, 1.5, gt.shape)
        res = admm_solve(noisy, gt, SolverConfig(), collect_trace=True)
        tail = res.trace.coupling_residuals[-10:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        assert tail[-1] < SolverConfig().tol_primal

    def test_e2_structure_every_iteration(self, rng):
        gt = collinear_spots(12)
        state = SolverState(gt + rng.normal(0, 2, gt.shape), gt, SolverConfig().mu0)
        cfg = SolverConfig()
        for _ in range(40):
            sweep(state, cfg)
            assert np.ptp(state.blocks[2, 1, 0::2]) == 0.0
            assert np.ptp(state.blocks[2, 1, 1::2]) == 0.0

    def test_loss_nonnegative_and_zero_case(self, rng):
        state, _ = random_state(rng)
        assert alignment_loss(state) >= 0.0
        state.blocks[2] = 0.0
        move_transforms(state, [[0.0, 0.0, 0.0], state.transforms[1]])
        assert alignment_loss(state) == 0.0

    def test_trace_leaves_solve_unchanged(self, rng):
        a = rng.uniform(-40, 40, (10, 2))
        b = rng.uniform(-40, 40, (10, 2))
        plain = admm_solve(a, b, SolverConfig())
        traced = admm_solve(a, b, SolverConfig(), collect_trace=True)
        assert traced.loss == plain.loss  # bitwise
        assert traced.iterations == plain.iterations
        assert len(traced.trace.lagrangians) == traced.iterations
        for name in ("blocks", "transforms", "duals", "W"):
            assert np.array_equal(getattr(traced.state, name), getattr(plain.state, name)), name
        assert traced.state.mu == plain.state.mu

    def test_states_own_their_buffers(self):
        # two states advanced in alternation end bitwise where each ends alone
        cfg = SolverConfig()

        def fresh(seed, m):
            r = np.random.default_rng(seed)
            return SolverState(r.uniform(-40, 40, (m, 2)), r.uniform(-40, 40, (m, 2)), cfg.mu0)

        pair = [fresh(1, 10), fresh(2, 14)]
        for _ in range(30):
            for state in pair:
                sweep(state, cfg)
        for state, (seed, m) in zip(pair, [(1, 10), (2, 14)]):
            alone = fresh(seed, m)
            for _ in range(30):
                sweep(alone, cfg)
            assert alone.mu == state.mu
            for name in ("vector", "duals", "W", "residual", "constraints"):
                assert getattr(alone, name).tobytes() == getattr(state, name).tobytes(), name

    def test_sweep_allocates_nothing(self):
        # every buffer a sweep writes is the state's: after a warm-up sweep,
        # 20 sweeps raise the traced peak by less than one 2M-float row
        r = np.random.default_rng(7)
        cfg, m = SolverConfig(), 500
        state = SolverState(r.uniform(-40, 40, (m, 2)), r.uniform(-40, 40, (m, 2)), cfg.mu0)
        sweep(state, cfg)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                sweep(state, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 2 * m * 8

    @given(m=st.integers(2, 60), sweeps=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           scale_exp=st.floats(-3.0, 6.0))
    @settings(max_examples=200, deadline=None)
    def test_sweep_rewarp_matches_warp_values(self, m, sweeps, seed, scale_exp):
        # the sweep re-warps W as a product with SolverState.moments; it must
        # agree with the general warp to rounding at the inputs' scale
        r, scale = np.random.default_rng(seed), 10.0**scale_exp
        cfg = SolverConfig()
        state = SolverState(*(r.uniform(-scale, scale, (m, 2)) for _ in range(2)), cfg.mu0)
        move_transforms(state, np.column_stack([r.uniform(-math.pi, math.pi, 2),
                                                r.uniform(-scale, scale, (2, 2))]))
        bound = 1e-12 * np.abs(state.inputs).max()
        for _ in range(sweeps):
            sweep(state, cfg)
            assert np.abs(state.W - warp_values(state.transforms, state.inputs)).max() <= bound

    def test_untraced_solve_builds_no_jacobian(self, rng, monkeypatch):
        # the closed-form increment step needs none; only trace mode does
        def forbidden(*args):
            raise AssertionError("jacobian_values called")

        monkeypatch.setattr(spotalign.solver, "jacobian_values", forbidden)
        a = rng.uniform(-40, 40, (10, 2))
        b = rng.uniform(-40, 40, (10, 2))
        assert admm_solve(a, b, SolverConfig()).iterations > 1

    def test_traced_sweep_builds_two_jacobians(self, rng, monkeypatch):
        # one per side, looked up as a module global of the solver
        calls = []

        def counted(theta, values):
            calls.append(values)
            return jacobian_values(theta, values)

        monkeypatch.setattr(spotalign.solver, "jacobian_values", counted)
        res = admm_solve(rng.uniform(-40, 40, (10, 2)), rng.uniform(-40, 40, (10, 2)), SolverConfig(),
                         collect_trace=True)
        assert res.iterations > 1
        assert len(calls) == 2 * res.iterations
        assert all(np.array_equal(v, res.state.inputs[k % 2]) for k, v in enumerate(calls))

    def test_deterministic(self, rng):
        a = rng.uniform(-40, 40, (10, 2))
        b = rng.uniform(-40, 40, (10, 2))
        r1 = admm_solve(a, b, SolverConfig())
        r2 = admm_solve(a, b, SolverConfig())
        assert r1.iterations == r2.iterations
        assert r1.loss == r2.loss  # bitwise

    def test_size_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="same point count"):
            admm_solve(rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (5, 2)), SolverConfig())

    def test_overflow_raises_numerical_failure(self, rng):
        a = rng.uniform(-1, 1, (6, 2)) * 1e160
        b = rng.uniform(-1, 1, (6, 2)) * 1e160
        with pytest.raises(NumericalFailureError):
            admm_solve(a, b, SolverConfig())

    def test_overflow_raises_no_warning(self, rng):
        a = rng.uniform(-1, 1, (6, 2)) * 1e160
        b = rng.uniform(-1, 1, (6, 2)) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError):
                admm_solve(a, b, SolverConfig())

    def test_single_point_rejected(self):
        pts = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError, match="at least 2 points"):
            admm_solve(pts, pts, SolverConfig())

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad, match", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_points_rejected(self, bad, match, side):
        with pytest.raises(ValueError, match=match):
            admm_solve(*malformed_pair(bad, side), SolverConfig())


def solved_state(ending: str, m: int, rng) -> SolverState:
    """A state of M points per side whose last solve ended as ``ending``."""
    gt = collinear_spots(m)
    state = SolverState(rng.uniform(-40, 40, (m, 2)), rng.uniform(-40, 40, (m, 2)), 0.3)
    if ending == "converged":
        assert admm_solve(gt + [1.0, -2.0], gt, out=state).converged
    elif ending == "abandoned":
        assert admm_solve(gt + rng.normal(0, 2, gt.shape), gt, race_best=1e-9, out=state).loss == math.inf
    elif ending == "degenerate":
        with pytest.raises(DegenerateGeometryError):
            admm_solve(np.zeros((m, 2)), np.zeros((m, 2)), out=state)
    else:
        with pytest.raises(NumericalFailureError):
            admm_solve(rng.uniform(-1, 1, (m, 2)) * 1e160, rng.uniform(-1, 1, (m, 2)) * 1e160, out=state)
    return state


def state_bytes(state: SolverState) -> list:
    return [state.mu, state.levers] + [getattr(state, name).tobytes()
                                       for name in ("inputs", "vector", "W", "duals", "moments")]


class TestReusedState:
    """A solve into a reused state (``out=``) is the fresh solve, bit for bit."""

    @given(m=st.integers(2, 60), ending=st.sampled_from(["converged", "abandoned", "degenerate", "overflow"]),
           seed=st.integers(0, 2**32 - 1), best=st.sampled_from([math.inf, 0.0, 1e-9, 3.0]),
           max_iters=st.sampled_from([300, 3]))
    @settings(max_examples=150, deadline=None)
    def test_reused_solve_equals_a_fresh_one(self, m, ending, seed, best, max_iters):
        rng = np.random.default_rng(seed)
        state = solved_state(ending, m, rng)
        a, b = rng.uniform(-40, 40, (m, 2)), rng.uniform(-40, 40, (m, 2))
        cfg = SolverConfig(max_iters=max_iters)
        fresh = admm_solve(a, b, cfg, race_best=best)
        reused = admm_solve(a, b, cfg, race_best=best, out=state)
        assert reused.state is state
        assert (reused.loss.hex(), reused.iterations, reused.converged, reused.state.mu) == (
            fresh.loss.hex(), fresh.iterations, fresh.converged, fresh.state.mu)
        for name in ("vector", "W", "duals"):
            assert getattr(reused.state, name).tobytes() == getattr(fresh.state, name).tobytes(), name

    def test_result_holds_out(self, rng):
        state = SolverState(rng.uniform(-40, 40, (6, 2)), rng.uniform(-40, 40, (6, 2)), 1.0)
        assert admm_solve(rng.uniform(-40, 40, (6, 2)), rng.uniform(-40, 40, (6, 2)), out=state).state is state

    def test_other_point_count_rejected_and_out_kept(self, rng):
        state = solved_state("converged", 8, rng)
        before = state_bytes(state)
        with pytest.raises(ValueError, match="holds 8 points per side, not 9"):
            admm_solve(rng.uniform(-40, 40, (9, 2)), rng.uniform(-40, 40, (9, 2)), out=state)
        assert state_bytes(state) == before

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad, match", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_points_rejected_and_state_kept(self, bad, match, side, rng):
        state = solved_state("converged", len(malformed_pair(bad, side)[1 - side]), rng)
        before = state_bytes(state)
        with pytest.raises(ValueError, match=match):
            state.load(*malformed_pair(bad, side), 0.1)
        assert state_bytes(state) == before


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0}, {"lam": -1.0}, {"mu0": 0.0}, {"rho": 1.0},
            {"max_iters": 0}, {"tol_primal": 0.0}, {"tol_change": -1e-9},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("name", ["lam", "mu0", "rho", "tol_primal", "tol_change"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be"):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
    def test_non_integer_max_iters_rejected(self, value):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(max_iters=value)
