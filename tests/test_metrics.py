import numpy as np
import pytest

from spotalign.geo import GeoPoint, make_frame, project_points
from spotalign.metrics import (
    HIGHER_BETTER,
    LOWER_BETTER,
    acd,
    ar,
    evaluate_segments,
    robustness_index,
)


class TestAcd:
    def test_zero_for_equal(self, rng):
        seg = [rng.uniform(-5, 5, (4, 2))]
        assert acd(seg, [seg[0].copy()]) == 0.0

    def test_three_four_five(self):
        truth = [np.array([[0.0, 0.0]])]
        pred = [np.array([[3.0, 4.0]])]
        assert acd(pred, truth) == pytest.approx(5.0)

    def test_pooled_over_points(self):
        truth = [np.zeros((2, 2)), np.zeros((1, 2))]
        pred = [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 4.0]])]
        assert acd(pred, truth) == pytest.approx((1 + 1 + 4) / 3)

    def test_positive_unless_equal(self, rng):
        truth = [rng.uniform(-5, 5, (6, 2))]
        pred = [truth[0] + 1e-9]
        assert acd(pred, truth) > 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            acd([np.zeros((2, 2))], [np.zeros((3, 2))])

    def test_frame_origin_invariance(self, rng):
        # longitude-shifted frames share the latitude-dependent scale, so the
        # pooled deviation is identical
        base = GeoPoint(40.0, 116.0)
        truth_geo = [GeoPoint(40.0 + rng.uniform(-1e-3, 1e-3), 116.0 + rng.uniform(-1e-3, 1e-3)) for _ in range(5)]
        pred_geo = [GeoPoint(p.lat + rng.uniform(-1e-5, 1e-5), p.lon + rng.uniform(-1e-5, 1e-5)) for p in truth_geo]
        vals = []
        for dlon in (0.0, 0.01, -0.02):
            frame = make_frame(GeoPoint(base.lat, base.lon + dlon))
            vals.append(acd([project_points(frame, pred_geo)], [project_points(frame, truth_geo)]))
        assert max(vals) - min(vals) < 1e-9


class TestAr:
    def test_perfect(self, rng):
        seg = [rng.uniform(-5, 5, (4, 2))]
        assert ar(seg, [seg[0].copy()]) == 1.0

    def test_all_beyond_tolerance(self):
        truth = [np.zeros((3, 2))]
        pred = [truth[0] + [10.0, 0.0]]
        assert ar(pred, truth, tau=0.5) == 0.0

    def test_unweighted_segment_mean(self):
        truth = [np.zeros((4, 2)), np.zeros((100, 2))]
        pred = [truth[0].copy(), truth[1].copy()]
        pred[1][:50] += [5.0, 0.0]  # second segment recall 0.5
        assert ar(pred, truth) == pytest.approx(0.75)

    def test_monotone_in_tau(self, rng):
        truth = [rng.uniform(-5, 5, (30, 2))]
        pred = [truth[0] + rng.normal(0, 1.0, (30, 2))]
        taus = np.linspace(0.05, 5.0, 25)
        vals = [ar(pred, truth, tau=t) for t in taus]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_strict_inequality_at_tau(self):
        truth = [np.zeros((1, 2))]
        pred = [np.array([[0.5, 0.0]])]
        assert ar(pred, truth, tau=0.5) == 0.0  # deviation must be strictly below tau


class TestRobustnessIndex:
    def test_equal_scores_zero(self):
        assert robustness_index(3.3, 3.3, HIGHER_BETTER) == 0.0
        assert robustness_index(3.3, 3.3, LOWER_BETTER) == 0.0

    def test_lower_better_formula(self):
        assert robustness_index(9.60, 9.12, LOWER_BETTER) == pytest.approx(6.32, abs=0.01)
        assert robustness_index(8.96, 6.71, LOWER_BETTER) == pytest.approx(10.07, abs=0.01)

    def test_higher_better_percent(self):
        assert robustness_index(96.3, 97.3, HIGHER_BETTER) == pytest.approx(1.03, abs=0.01)
        # scale invariance: fractions give the same index
        assert robustness_index(0.963, 0.973, HIGHER_BETTER) == pytest.approx(1.03, abs=0.01)

    def test_zero_clean_rejected(self):
        with pytest.raises(ValueError):
            robustness_index(1.0, 0.0, HIGHER_BETTER)


class TestEvaluateSegments:
    def test_per_segment_breakdown(self):
        truth = [np.zeros((2, 2)), np.zeros((2, 2))]
        pred = [truth[0] + [0.1, 0.0], truth[1] + [3.0, 4.0]]
        report = evaluate_segments(["a", "b"], pred, truth)
        assert len(report.per_segment) == 2
        assert report.per_segment[0].ar == 1.0
        assert report.per_segment[1].acd == pytest.approx(5.0)
        assert report.acd == pytest.approx((0.2 + 10.0) / 4)
        assert report.ar == pytest.approx(0.5)

    @pytest.mark.parametrize("ids", [["a"], ["a", "b", "c"]])
    def test_id_count_mismatch_rejected(self, ids):
        truth = [np.zeros((2, 2)), np.zeros((2, 2))]
        pred = [truth[0], truth[1] + [3.0, 4.0]]
        with pytest.raises(ValueError, match="id count mismatch"):
            evaluate_segments(ids, pred, truth)

    @pytest.mark.parametrize("tau", [0.0, -0.5, float("nan"), float("inf")])
    def test_nonpositive_tau_rejected(self, tau):
        truth = [np.zeros((2, 2))]
        with pytest.raises(ValueError, match="tau must be positive"):
            evaluate_segments(["a"], truth, truth, tau=tau)
