import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spotalign.solver
from spotalign.rigid import RigidTransform2D, StackedCoords
from spotalign.solver import (
    DegenerateGeometryError,
    NumericalFailureError,
    SolverConfig,
    admm_solve,
    alignment_loss,
    axis_mean_replicate,
    init_state,
    lagrangian,
    rank1_excess,
    rank1_excess_prox,
    svt_prox,
    sweep,
    update_error_blocks,
    update_multipliers,
    update_rectified_blocks,
    update_transform_increments,
)


def collinear_spots(m=10, spacing=6.0):
    xs = (np.arange(m) - (m - 1) / 2) * spacing
    return np.stack([xs, np.zeros(m)], axis=1)


def random_state(rng, m=8, mu=0.7):
    cfg = SolverConfig(mu0=mu)
    state = init_state(
        StackedCoords.from_points(rng.uniform(-40, 40, (m, 2))),
        StackedCoords.from_points(rng.uniform(-40, 40, (m, 2))),
        cfg,
    )
    state.C = rng.uniform(-40, 40, 2 * m)
    state.D = rng.uniform(-40, 40, 2 * m)
    state.A = rng.uniform(-40, 40, (2 * m, 2))
    state.E1 = rng.uniform(-3, 3, 2 * m)
    state.E2 = axis_mean_replicate(rng.uniform(-3, 3, 2 * m))
    state.Y1 = rng.uniform(-1, 1, 2 * m)
    state.Y2 = rng.uniform(-1, 1, 2 * m)
    state.Y3 = rng.uniform(-1, 1, (2 * m, 2))
    state.set_transforms(
        RigidTransform2D(rng.uniform(-0.3, 0.3), rng.uniform(-5, 5), rng.uniform(-5, 5)),
        RigidTransform2D(rng.uniform(-0.3, 0.3), rng.uniform(-5, 5), rng.uniform(-5, 5)),
    )
    return state, cfg


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
        with pytest.raises(ValueError):
            svt_prox(np.eye(2), -0.1)


class TestRank1ExcessProx:
    def test_keeps_leading_value(self, rng):
        b = rng.normal(size=(8, 2)) * 4
        sig_in = np.linalg.svd(b, compute_uv=False)
        out = rank1_excess_prox(b, 0.5)
        sig_out = np.linalg.svd(out, compute_uv=False)
        assert sig_out[0] == pytest.approx(sig_in[0], abs=1e-10)
        assert sig_out[1] == pytest.approx(max(sig_in[1] - 0.5, 0.0), abs=1e-10)

    @given(
        n=st.integers(2, 70),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["general", "rank1", "zero"]),
        ratio_exp=st.one_of(st.just(0.0), st.floats(-12.0, 0.0)),
        scale_exp=st.floats(-6.0, 6.0),
        col_scale_exp=st.one_of(st.just(0.0), st.floats(-6.0, 6.0)),
        t_frac=st.one_of(st.just(0.0), st.floats(1e-14, 2.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_svd_reference(self, n, seed, kind, ratio_exp, scale_exp, col_scale_exp, t_frac):
        # sigma_1 kept, sigma_2 soft-thresholded, against LAPACK's SVD, down
        # to sigma_2 / sigma_1 = 1e-12 and column scales 1e6 apart
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
        u, sig_in, vt = np.linalg.svd(b, full_matrices=False)
        t = t_frac * sig_in[0]
        out = rank1_excess_prox(b, t)
        sig_out = np.linalg.svd(out, compute_uv=False)
        assert sig_out[0] == pytest.approx(sig_in[0], rel=1e-12, abs=0.0)
        assert abs(sig_out[1] - max(sig_in[1] - t, 0.0)) <= 1e-10 * sig_in[0]
        if sig_in[0] - sig_in[1] > 1e-3 * sig_in[0]:
            # a clear spectral gap fixes the singular vectors: same matrix
            reference = (u * [sig_in[0], max(sig_in[1] - t, 0.0)]) @ vt
            assert np.abs(out - reference).max() <= 1e-10 * sig_in[0]

    @pytest.mark.parametrize("shape", [(6, 3), (6, 1), (6,)])
    def test_not_two_columns_rejected(self, shape):
        with pytest.raises(ValueError):
            rank1_excess_prox(np.ones(shape), 0.5)

    def test_excess_measure(self, rng):
        b = rng.normal(size=(8, 2))
        sig = np.linalg.svd(b, compute_uv=False)
        assert rank1_excess(b) == pytest.approx(sig[1], abs=1e-12)
        assert rank1_excess(np.ones((6, 2))) == pytest.approx(0.0, abs=1e-12)


class TestRectifiedBlocks:
    def test_fixed_point(self, rng):
        state, cfg = random_state(rng)
        state.E1[:] = 0.0
        state.E2[:] = 0.0
        state.Y1[:] = 0.0
        state.Y2[:] = 0.0
        state.Y3[:] = 0.0
        state.A = np.stack([state.W1, state.W2], axis=1)
        update_rectified_blocks(state)
        assert np.allclose(state.C, state.W1, atol=1e-12)
        assert np.allclose(state.D, state.W2, atol=1e-12)

    def test_averages_anchors(self, rng):
        state, cfg = random_state(rng)
        # make W1 = 2 everywhere and W2 = 0 by construction
        state.set_transforms(RigidTransform2D.identity(), state.theta2)
        state.E1 = 2.0 - state.P
        state.Y1[:] = 0.0
        state.A[:, 0] = 0.0
        state.Y3[:, 0] = 0.0
        update_rectified_blocks(state)
        assert np.allclose(state.C, 1.0, atol=1e-12)

    def test_stationary_in_c(self, rng):
        state, cfg = random_state(rng)
        update_rectified_blocks(state)
        h = 1e-3
        for idx in range(0, state.C.size, 5):
            base = state.C[idx]
            state.C[idx] = base + h
            up = lagrangian(state, cfg)
            state.C[idx] = base - h
            down = lagrangian(state, cfg)
            state.C[idx] = base
            assert abs(up - down) / (2 * h) < 1e-8


class TestErrorBlocks:
    def test_soft_threshold_example(self, rng):
        state, cfg = random_state(rng, m=2)
        state.mu = 2.0  # threshold 1/mu = 0.5
        state.set_transforms(RigidTransform2D.identity(), RigidTransform2D.identity())
        state.Y1[:] = 0.0
        state.C = state.P + np.array([0.3, -2.0, 0.0, 0.0])
        state.Y2[:] = 0.0
        state.D = state.Rd.copy()
        update_error_blocks(state)
        assert np.allclose(state.E1, [0.0, -1.5, 0.0, 0.0], atol=1e-12)

    def test_axis_means_example(self, rng):
        state, cfg = random_state(rng, m=2)
        state.set_transforms(RigidTransform2D.identity(), RigidTransform2D.identity())
        state.Y2[:] = 0.0
        state.D = state.Rd + np.array([1.0, 3.0, 2.0, 4.0])
        state.Y1[:] = 0.0
        state.C = state.P.copy()
        update_error_blocks(state)
        assert np.allclose(state.E2, [1.5, 3.5, 1.5, 3.5], atol=1e-12)

    def test_e2_least_squares_oracle(self, rng):
        # E2 must beat every translation-structured vector on a refined grid
        state, cfg = random_state(rng, m=6)
        update_error_blocks(state)
        target = state.D - state.W2 - state.Y2 / state.mu
        best = float(np.sum((state.E2 - target) ** 2))
        ex, ey = state.E2[0], state.E2[1]
        for dx in np.linspace(-2, 2, 41):
            for dy in np.linspace(-2, 2, 41):
                cand = np.empty_like(target)
                cand[0::2] = ex + dx
                cand[1::2] = ey + dy
                assert np.sum((cand - target) ** 2) >= best - 1e-9

    def test_e2_structure(self, rng):
        state, cfg = random_state(rng)
        update_error_blocks(state)
        assert np.ptp(state.E2[0::2]) == 0.0
        assert np.ptp(state.E2[1::2]) == 0.0


class TestTransformIncrements:
    def test_zero_residual(self, rng):
        state, cfg = random_state(rng)
        state.C = state.W1 + state.E1 + state.Y1 / state.mu
        state.D = state.W2 + state.E2 + state.Y2 / state.mu
        d1, d2 = update_transform_increments(state)
        assert np.allclose(d1.as_vector(), 0.0, atol=1e-9)
        assert np.allclose(d2.as_vector(), 0.0, atol=1e-9)

    def test_pure_translation_residual(self, rng):
        state, cfg = random_state(rng)
        state.C = state.W1 + state.E1 + state.Y1 / state.mu + state.J1 @ np.array([0.0, 2.5, -1.25])
        d1, _ = update_transform_increments(state)
        assert d1.as_vector() == pytest.approx([0.0, 2.5, -1.25], abs=1e-9)

    def test_normal_equations_satisfied(self, rng):
        for _ in range(20):
            state, cfg = random_state(rng)
            d1, d2 = update_transform_increments(state)
            gradP, gradRd = state.J1, state.J2
            r1 = state.C - state.W1 - state.E1 - state.Y1 / state.mu
            r2 = state.D - state.W2 - state.E2 - state.Y2 / state.mu
            assert np.linalg.norm(gradP.T @ (gradP @ d1.as_vector() - r1)) < 1e-9 * max(1, np.linalg.norm(r1))
            assert np.linalg.norm(gradRd.T @ (gradRd @ d2.as_vector() - r2)) < 1e-9 * max(1, np.linalg.norm(r2))

    def test_coincident_points_degenerate(self):
        cfg = SolverConfig()
        pts = StackedCoords.from_points(np.zeros((5, 2)))
        state = init_state(pts, pts, cfg)
        with pytest.raises(DegenerateGeometryError):
            update_transform_increments(state)


class TestMultipliers:
    def test_zero_residuals_leave_duals(self, rng):
        state, cfg = random_state(rng)
        state.C = state.W1 + state.E1
        state.D = state.W2 + state.E2
        state.A = np.stack([state.C, state.D], axis=1)
        y1, mu = state.Y1.copy(), state.mu
        update_multipliers(state, cfg)
        assert np.array_equal(state.Y1, y1)
        assert state.mu == pytest.approx(1.3 * mu, rel=1e-15)

    def test_residual_scaling(self, rng):
        state, cfg = random_state(rng)
        state.Y1[:] = 0.0
        state.mu = 2.0
        r = state.W1 + state.E1 - state.C
        update_multipliers(state, cfg)
        assert np.allclose(state.Y1, 2.0 * r, atol=1e-12)

    def test_geometric_penalty_growth(self):
        # feasible but not instantly convergent: a small offset instance
        gt = collinear_spots(10)
        cfg = SolverConfig(mu0=0.05, max_iters=20, tol_primal=1e-15, tol_change=1e-15)
        res = admm_solve(
            StackedCoords.from_points(gt + [1.0, -2.0]),
            StackedCoords.from_points(gt),
            cfg,
        )
        assert res.iterations == 20
        assert res.state.mu == pytest.approx(0.05 * 1.3**20, rel=1e-12)


class TestAdmmSolve:
    def test_clean_fixed_point(self):
        pts = StackedCoords.from_points(collinear_spots(10))
        res = admm_solve(pts, pts, SolverConfig(tol_primal=1e-9, tol_change=1e-12))
        assert res.converged
        assert np.abs(res.state.E1).sum() < 1e-6
        assert abs(res.state.theta1.theta) < 1e-6
        assert math.hypot(res.state.theta1.s_x, res.state.theta1.s_y) < 1e-3
        assert res.loss < 1e-3

    def test_constant_offset_recovery(self):
        gt = collinear_spots(30)
        res = admm_solve(
            StackedCoords.from_points(gt + np.array([4.0, -2.0])),
            StackedCoords.from_points(gt),
            SolverConfig(),
        )
        aligned = res.aligned_collected().reshape(-1, 2)
        assert np.hypot(*(aligned - gt).T).max() < 1e-2

    def test_planted_outlier_support(self, rng):
        gt = collinear_spots(30)
        noisy = gt.copy()
        planted = [4, 13, 22]
        for i in planted:
            noisy[i] += np.array([14.1, -14.1])
        res = admm_solve(StackedCoords.from_points(noisy), StackedCoords.from_points(gt), SolverConfig())
        e1 = res.state.E1.reshape(-1, 2)
        support = np.nonzero(np.abs(e1).max(axis=1) > 1.0)[0].tolist()
        assert support == planted

    def test_block_descent(self, rng):
        for _ in range(10):
            res = admm_solve(
                StackedCoords.from_points(rng.uniform(-40, 40, (10, 2))),
                StackedCoords.from_points(rng.uniform(-40, 40, (10, 2))),
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
        res = admm_solve(
            StackedCoords.from_points(noisy), StackedCoords.from_points(gt),
            SolverConfig(), collect_trace=True,
        )
        tail = res.trace.coupling_residuals[-10:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        assert tail[-1] < SolverConfig().tol_primal

    def test_e2_structure_every_iteration(self, rng):
        gt = collinear_spots(12)
        state = init_state(
            StackedCoords.from_points(gt + rng.normal(0, 2, gt.shape)),
            StackedCoords.from_points(gt),
            SolverConfig(),
        )
        cfg = SolverConfig()
        for _ in range(40):
            sweep(state, cfg)
            assert np.ptp(state.E2[0::2]) == 0.0
            assert np.ptp(state.E2[1::2]) == 0.0

    def test_loss_nonnegative_and_zero_case(self, rng):
        state, cfg = random_state(rng)
        assert alignment_loss(state, cfg) >= 0.0
        state.E1[:] = 0.0
        state.E2[:] = 0.0
        state.set_transforms(RigidTransform2D.identity(), state.theta2)
        assert alignment_loss(state, cfg) == 0.0

    def test_trace_leaves_solve_unchanged(self, rng):
        a = StackedCoords.from_points(rng.uniform(-40, 40, (10, 2)))
        b = StackedCoords.from_points(rng.uniform(-40, 40, (10, 2)))
        plain = admm_solve(a, b, SolverConfig())
        traced = admm_solve(a, b, SolverConfig(), collect_trace=True)
        assert traced.loss == plain.loss  # bitwise
        assert traced.iterations == plain.iterations
        assert len(traced.trace.lagrangians) == traced.iterations
        for name in ("C", "D", "A", "E1", "E2", "Y1", "Y2", "Y3", "W1", "W2", "J1", "J2"):
            assert np.array_equal(getattr(traced.state, name), getattr(plain.state, name)), name
        assert (traced.state.theta1, traced.state.theta2, traced.state.mu) == (
            plain.state.theta1, plain.state.theta2, plain.state.mu)

    def test_untraced_solve_builds_no_jacobian(self, rng, monkeypatch):
        # the closed-form increment step needs none; only trace mode does
        def forbidden(*args):
            raise AssertionError("jacobian_values called")

        monkeypatch.setattr(spotalign.solver, "jacobian_values", forbidden)
        a = StackedCoords.from_points(rng.uniform(-40, 40, (10, 2)))
        b = StackedCoords.from_points(rng.uniform(-40, 40, (10, 2)))
        assert admm_solve(a, b, SolverConfig()).iterations > 1

    def test_deterministic(self, rng):
        a = StackedCoords.from_points(rng.uniform(-40, 40, (10, 2)))
        b = StackedCoords.from_points(rng.uniform(-40, 40, (10, 2)))
        r1 = admm_solve(a, b, SolverConfig())
        r2 = admm_solve(a, b, SolverConfig())
        assert r1.iterations == r2.iterations
        assert r1.loss == r2.loss  # bitwise

    def test_size_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            admm_solve(
                StackedCoords.from_points(rng.uniform(-1, 1, (4, 2))),
                StackedCoords.from_points(rng.uniform(-1, 1, (5, 2))),
                SolverConfig(),
            )

    def test_overflow_raises_numerical_failure(self, rng):
        a = StackedCoords.from_points(rng.uniform(-1, 1, (6, 2)) * 1e160)
        b = StackedCoords.from_points(rng.uniform(-1, 1, (6, 2)) * 1e160)
        with pytest.raises(NumericalFailureError):
            admm_solve(a, b, SolverConfig())

    def test_overflow_raises_no_warning(self, rng):
        a = StackedCoords.from_points(rng.uniform(-1, 1, (6, 2)) * 1e160)
        b = StackedCoords.from_points(rng.uniform(-1, 1, (6, 2)) * 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError):
                admm_solve(a, b, SolverConfig())

    def test_single_point_rejected(self):
        pts = StackedCoords.from_points([[1.0, 2.0]])
        with pytest.raises(ValueError):
            admm_solve(pts, pts, SolverConfig())


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0}, {"lam": -1.0}, {"mu0": 0.0}, {"rho": 1.0},
            {"max_iters": 0}, {"tol_primal": 0.0}, {"tol_change": -1e-9},
            {"theta_norm_scale": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)
