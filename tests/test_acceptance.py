"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime.  Run with ``pytest tests/test_acceptance.py -s``
to see the lines as they complete."""

import itertools
import math
import time

import numpy as np
import pytest

from spotalign.bench import apply_noise_arm, evaluate_by_class, lambda_sweep_rows, run_method
from spotalign.cli import run_cli
from spotalign.dataio import Dataset, RunConfig
from spotalign.geo import project_points, unproject_points
from spotalign.matchers import hungarian_assign
from spotalign.metrics import HIGHER_BETTER, LOWER_BETTER, robustness_index
from spotalign.pipeline import CollectedSet, rectify, synth_corpus
from spotalign.rigid import jacobian_values
from spotalign.roads import SpotType, sample_candidates, segment_arclength
from spotalign.solver import SolverConfig, admm_solve, svt_prox

from conftest import fd_warp_jacobian, straight_segment
from test_matchers import brute_force_assignment


def announce(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"\n[criterion {number:02d}] {name}: PASS ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


# (clean ACD, clean AR%, noisy ACD, noisy AR%) per method and segment class,
# from the reference comparison tables, plus the published robustness cells.
REFERENCE_SCORES = {
    # method: {class: (acd_clean, ar_clean, acd_noisy, ar_noisy)}
    "ed": {"straight": (8.01, 97.7, 8.37, 96.6), "curve": (13.23, 95.6, 14.05, 94.3), "all": (9.12, 97.3, 9.60, 96.3)},
    "cd": {"straight": (16.50, 95.4, 17.6, 95.1), "curve": (62.21, 86.3, 80.21, 83.3), "all": (26.40, 94.0, 30.90, 93.3)},
    "ha": {"straight": (15.71, 95.0, 16.61, 94.7), "curve": (50.70, 84.0, 48.27, 83.5), "all": (24.26, 93.2, 24.37, 92.9)},
    "wd": {"straight": (6.30, 97.7, 8.21, 96.6), "curve": (15.42, 94.9, 16.30, 93.6), "all": (9.63, 97.3, 9.95, 96.1)},
    "ours": {"straight": (3.99, 98.9, 5.75, 98.7), "curve": (12.62, 95.8, 13.35, 95.6), "all": (6.71, 98.4, 8.96, 97.9)},
}
PUBLISHED_R_ACD = {
    "ed": {"straight": 4.81, "curve": 11.98, "all": 6.32},
    "cd": {"straight": 17.31, "curve": 263.93, "all": 56.00},
    "ha": {"straight": 14.90, "curve": 67.18, "all": 24.51},
    "wd": {"straight": 8.71, "curve": 14.47, "all": 5.45},
    "ours": {"straight": 5.29, "curve": 10.78, "all": 10.07},
}
PUBLISHED_R_AR = {
    "ed": {"straight": 1.13, "curve": 1.36, "all": 1.03},
    "cd": {"straight": 0.31, "curve": 3.48, "all": 0.74},
    "ha": {"straight": 0.32, "curve": 0.60, "all": 0.32},
    "wd": {"straight": 1.13, "curve": 1.37, "all": 1.23},
    "ours": {"straight": 0.20, "curve": 0.21, "all": 0.51},
}
# two published R(ACD) cells disagree with the defining formula applied to
# the published clean/noisy scores; for those the formula value is asserted
INCONSISTENT_R_ACD = {("ha", "curve"): 79.03, ("ha", "all"): 8.05}


def test_criterion_01_robustness_index_arithmetic():
    t0 = time.perf_counter()
    for method, classes in REFERENCE_SCORES.items():
        for cls, (acd_c, ar_c, acd_n, ar_n) in classes.items():
            r_acd = robustness_index(acd_n, acd_c, LOWER_BETTER)
            r_ar = robustness_index(ar_n, ar_c, HIGHER_BETTER)
            if (method, cls) in INCONSISTENT_R_ACD:
                assert r_acd == pytest.approx(INCONSISTENT_R_ACD[(method, cls)], abs=0.01)
            else:
                assert r_acd == pytest.approx(PUBLISHED_R_ACD[method][cls], abs=0.01), (method, cls)
            assert r_ar == pytest.approx(PUBLISHED_R_AR[method][cls], abs=0.01), (method, cls)
    announce(1, "robustness-index arithmetic", t0, 1.0)


def test_criterion_02_block_descent():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        res = admm_solve(
            rng.uniform(-40, 40, (10, 2)),
            rng.uniform(-40, 40, (10, 2)),
            SolverConfig(),
            collect_trace=True,
        )
        for l_start, l_a, l_cd, l_e, l_inc in res.trace.lagrangians:
            assert l_a <= l_start + 1e-9
            assert l_cd <= l_a + 1e-9
            assert l_e <= l_cd + 1e-9
            assert l_inc <= l_e + 1e-9
    announce(2, "block updates never increase the Lagrangian", t0, 10.0)


def test_criterion_03_clean_data_fixed_point():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    instances = []
    xs = (np.arange(30) - 14.5) * 6.0
    instances.append(np.stack([xs, np.zeros(30)], axis=1))            # centered row
    instances.append(np.stack([xs + 250.0, np.zeros(30)], axis=1))    # off-center row
    instances.append(rng.uniform(-90, 90, (10, 2)))                   # cloud
    cfg = SolverConfig(tol_primal=1e-9, tol_change=1e-12, max_iters=300)
    for xy in instances:
        t_instance = time.perf_counter()
        res = admm_solve(xy, xy, cfg)
        assert res.iterations <= 300
        assert np.abs(res.state.blocks[2, 0]).sum() < 1e-6
        assert abs(res.state.transforms[0, 0]) < 1e-6
        assert math.hypot(*res.state.transforms[0, 1:]) < 1e-3
        assert res.loss < 1e-3
        assert time.perf_counter() - t_instance < 1.0
    announce(3, "clean data is a fixed point", t0, 5.0)


def _corrupt_window(truth: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    pts = truth.copy()
    ang = math.radians(5.0) * (1 if rng.random() < 0.5 else -1)
    center = pts.mean(axis=0)
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    pts = (pts - center) @ rot.T + center
    pts[:, 1] += 4.0 * (1 if rng.random() < 0.5 else -1)  # lateral, road runs along x
    for i in rng.choice(len(pts), size=len(pts) // 10, replace=False):
        mag = rng.uniform(5.0, 20.0)
        direction = rng.uniform(0.0, 2.0 * math.pi)
        pts[i] += mag * np.array([math.cos(direction), math.sin(direction)])
    return pts


def test_criterion_04_mixed_error_recovery():
    t0 = time.perf_counter()
    m, k = 30, 100
    segment = straight_segment((k - 1) * 6.0, SpotType.PARALLEL, n_vertices=4)
    cands = sample_candidates(segment)
    assert len(cands) == k
    cand_xy = cands.xy()
    rng = np.random.default_rng(404)

    hits = 0
    recalls_ours, recalls_ed = [], []
    for _ in range(100):
        start = int(rng.integers(0, k - m + 1))
        truth_xy = cand_xy[start:start + m]
        corrupted = _corrupt_window(truth_xy, rng)
        collected = CollectedSet(
            segment_id=segment.id,
            points=tuple(unproject_points(cands.frame, corrupted)),
            ground_truth=tuple(unproject_points(cands.frame, truth_xy)),
        )
        ours = rectify(collected, segment, "raa", th=1.0)
        got = project_points(cands.frame, ours.points)
        dev = np.hypot(*(got - truth_xy).T)
        # exact-window check: zero deviation up to the geo round-trip epsilon
        hits += bool(np.all(dev < 1e-9))
        recalls_ours.append(float((dev < 0.5).mean()))

        ed = rectify(collected, segment, "ed", th=1.0)
        dev_ed = np.hypot(*(project_points(cands.frame, ed.points) - truth_xy).T)
        recalls_ed.append(float((dev_ed < 0.5).mean()))

    assert hits >= 95, f"true window recovered in only {hits}/100 trials"
    assert np.mean(recalls_ours) > np.mean(recalls_ed)
    announce(4, f"mixed-error recovery ({hits}/100 exact, "
                f"AR {np.mean(recalls_ours):.3f} vs ED {np.mean(recalls_ed):.3f})", t0, 120.0)


def test_criterion_05_lambda_sweep_shape():
    t0 = time.perf_counter()
    pairs = synth_corpus(10, 10, seed=0, taxonomies=("mixed",))
    dataset = Dataset(
        segments={s.id: s for s, _ in pairs},
        collected={s.id: c for s, c in pairs},
        metadata={},
    )
    rows = lambda_sweep_rows(dataset, RunConfig(seed=0, th=1.0))
    lams = sorted({r["lam"] for r in rows})
    classes = sorted({r["segment_class"] for r in rows})
    assert lams == [1.0, 10.0, 100.0, 1000.0, 10000.0]
    assert classes == ["all", "curve", "straight"]
    assert len(rows) == 5 * 3
    acd_by_lam = {r["lam"]: r["acd"] for r in rows if r["segment_class"] == "all"}
    assert acd_by_lam[1.0] > acd_by_lam[100.0]
    announce(5, f"coupling-weight sweep (ACD {acd_by_lam[1.0]:.2f} at 1 "
                f"vs {acd_by_lam[100.0]:.2f} at 100)", t0, 300.0)


def test_criterion_06_hungarian_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    for trial in range(200):
        n = int(rng.integers(2, 8))
        cost = rng.uniform(0.0, 10.0, (n, n))
        got = hungarian_assign(cost)
        want = brute_force_assignment(cost)
        assert got.pairs == want.pairs, trial
        assert got.total_cost == pytest.approx(want.total_cost, abs=1e-10)
    announce(6, "assignment matches exhaustive enumeration", t0, 10.0)


def test_criterion_07_jacobian_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    for _ in range(100):
        t = (
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(-50, 50)),
            float(rng.uniform(-50, 50)),
        )
        pts = rng.uniform(-100, 100, (6, 2)).reshape(-1)
        analytic = jacobian_values(t[0], pts)
        numeric = fd_warp_jacobian(t, pts)
        scale = max(1.0, float(np.abs(numeric).max()))
        assert np.abs(analytic - numeric).max() / scale < 1e-6
    announce(7, "warp Jacobian matches finite differences", t0, 1.0)


def test_criterion_08_svt_prox():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(50):
        b = rng.normal(size=(10, 2)) * rng.uniform(0.5, 5.0)
        threshold = float(rng.uniform(0.0, 3.0))
        sig_in = np.linalg.svd(b, compute_uv=False)
        sig_out = np.linalg.svd(svt_prox(b, threshold), compute_uv=False)
        assert np.abs(sig_out - np.maximum(sig_in - threshold, 0.0)).max() < 1e-10
    b = rng.normal(size=(8, 2))
    assert np.allclose(svt_prox(b, np.linalg.svd(b, compute_uv=False).max() + 1e-12), 0.0, atol=1e-10)

    b = rng.normal(size=(8, 2)) * 3.0
    threshold = 0.7
    out = svt_prox(b, threshold)

    def objective(x):
        return threshold * np.linalg.svd(x, compute_uv=False).sum() + 0.5 * np.sum((x - b) ** 2)

    base = objective(out)
    for _ in range(10_000):
        perturbation = rng.normal(size=out.shape) * 10.0 ** rng.uniform(-5, 0)
        assert objective(out + perturbation) >= base - 1e-12
    announce(8, "singular value thresholding prox", t0, 5.0)


def test_criterion_09_candidate_sampler_suite():
    t0 = time.perf_counter()
    suite = []
    # the double-intersection reference case
    suite.append((straight_segment(120.0, SpotType.PARALLEL, n_vertices=5, intersections=(0, 4)),
                  [50.0, 56.0, 62.0, 68.0]))
    spots = [SpotType.PARALLEL, SpotType.ANGLED30, SpotType.ANGLED45, SpotType.ANGLED60, SpotType.PERPENDICULAR]
    for i, (length, n_vertices) in enumerate(itertools.product((60.0, 150.0, 402.0), (2, 3, 7, 12))):
        suite.append((straight_segment(length, spots[i % 5], n_vertices=n_vertices), None))
    for i, length in enumerate((160.0, 222.0, 305.0)):
        seg = straight_segment(length, spots[i], n_vertices=5, intersections=(0,))
        suite.append((seg, None))
    for i, length in enumerate((210.0, 333.0, 420.0, 444.0)):
        seg = straight_segment(length, spots[i], n_vertices=5, intersections=(0, 4))
        suite.append((seg, None))
    assert len(suite) == 20

    for seg, expected in suite:
        cands = sample_candidates(seg)
        arcs = np.asarray(cands.arclengths)
        spacing = seg.spot_type.spacing
        if expected is not None:
            assert np.allclose(arcs, expected, atol=1e-6)
        # spacing within contiguous runs
        gaps = np.diff(arcs)
        for gap in gaps:
            assert abs(gap - spacing) < 1e-6 or gap > spacing + 50.0 - 1e-6
        # clearance from every flagged intersection, exact
        total = segment_arclength(seg)
        centers = [0.0 if i == 0 else total for i in sorted(seg.intersection_indices)]
        for center in centers:
            assert np.abs(arcs - center).min() >= 50.0 - 1e-9
        if not seg.intersection_indices:
            assert len(cands) == int(math.floor(total / spacing)) + 1
    announce(9, "candidate sampler invariants over 20 segments", t0, 1.0)


def test_criterion_10_noise_robustness_trend():
    t0 = time.perf_counter()
    pairs = synth_corpus(10, 10, seed=0)
    dataset = Dataset(
        segments={s.id: s for s, _ in pairs},
        collected={s.id: c for s, c in pairs},
        metadata={},
    )
    noisy = apply_noise_arm(dataset, seed=7919)
    drops = {}
    for method in ("raa", "cd"):
        cfg = RunConfig(method=method, seed=0, th=1.0)
        clean_ar = evaluate_by_class(dataset, run_method(dataset, cfg), cfg.tau)["all"].ar
        noisy_ar = evaluate_by_class(noisy, run_method(noisy, cfg), cfg.tau)["all"].ar
        drops[method] = clean_ar - noisy_ar
    assert drops["raa"] < drops["cd"], drops
    announce(10, f"uniform noise degrades recall less (drop {drops['raa']:+.3f} "
                 f"vs chamfer {drops['cd']:+.3f})", t0, 180.0)


def test_criterion_11_bench_determinism(tmp_path):
    t0 = time.perf_counter()
    ds_dir = tmp_path / "ds"
    assert run_cli(["synth", "--n-straight", "2", "--n-curve", "2", "--seed", "77",
                    "--out-dir", str(ds_dir)]) == 0
    args = [
        "bench", "--segments", str(ds_dir / "segments.csv"),
        "--collected", str(ds_dir / "collected.csv"),
        "--truth", str(ds_dir / "truth.csv"),
        "--seed", "77", "--th", "1",
    ]
    assert run_cli(args + ["--out-dir", str(tmp_path / "one")]) == 0
    assert run_cli(args + ["--out-dir", str(tmp_path / "two")]) == 0
    for name in ("bench.csv", "robustness.csv"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    announce(11, "repeated bench runs are byte-identical", t0, 300.0)
