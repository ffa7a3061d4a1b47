import logging
import math

import numpy as np
import pytest

import spotalign.pipeline
import spotalign.solver
from spotalign.geo import GeoPoint, make_frame, project_points, unproject_points
from spotalign.matchers import baseline_rectify
from spotalign.pipeline import (
    CollectedSet,
    Mixed,
    NoiseSpec,
    RandomNoise,
    Rotational,
    Translational,
    inject_noise,
    raa_rectify,
    rectify,
    search_windows,
    synth_corpus,
)
from spotalign.roads import InsufficientCandidatesError, SpotType, sample_candidates
from spotalign.solver import RACE_CHECKS, SolverConfig

from conftest import straight_segment


def planted_collected(segment, start, m, jitter=None, rng=None):
    cands = sample_candidates(segment)
    xy = cands.xy()[start:start + m].copy()
    if jitter is not None:
        mags = rng.uniform(0.0, jitter, m)
        dirs = rng.uniform(0.0, 2 * math.pi, m)
        xy[:, 0] += mags * np.cos(dirs)
        xy[:, 1] += mags * np.sin(dirs)
    truth = tuple(unproject_points(cands.frame, cands.xy()[start:start + m]))
    points = tuple(unproject_points(cands.frame, xy))
    return CollectedSet(segment_id=segment.id, points=points, ground_truth=truth), cands


class TestInjectNoise:
    def frame(self):
        return make_frame(GeoPoint(0.0, 0.0))

    def make_truth(self, rng, n=10):
        frame = self.frame()
        return unproject_points(frame, rng.uniform(-50, 50, (n, 2))), frame

    def test_zero_translation_is_identity(self, rng):
        truth, frame = self.make_truth(rng)
        out = inject_noise(truth, NoiseSpec(Translational(0.0, 0.0), seed=1), frame)
        got = project_points(frame, out)
        want = project_points(frame, truth)
        assert np.allclose(got, want, atol=1e-9)

    def test_half_turn_swaps_symmetric_pair(self):
        frame = self.frame()
        truth = unproject_points(frame, np.array([[-10.0, 0.0], [10.0, 0.0]]))
        out = inject_noise(truth, NoiseSpec(Rotational(math.pi), seed=0), frame)
        got = project_points(frame, out)
        assert np.allclose(got, [[10.0, 0.0], [-10.0, 0.0]], atol=1e-6)

    def test_random_magnitude_statistics(self):
        frame = self.frame()
        truth = unproject_points(frame, np.zeros((10_000, 2)))
        out = inject_noise(truth, NoiseSpec(RandomNoise(bound=20.0, fraction=1.0), seed=42), frame)
        mags = np.hypot(*project_points(frame, out).T)
        assert mags.max() <= 20.0 + 1e-9
        assert mags.mean() == pytest.approx(10.0, abs=0.5)

    def test_fraction_selects_exact_count(self, rng):
        truth, frame = self.make_truth(rng, n=40)
        out = inject_noise(truth, NoiseSpec(RandomNoise(bound=30.0, fraction=0.1), seed=7), frame)
        moved = np.hypot(*(project_points(frame, out) - project_points(frame, truth)).T) > 1e-9
        assert moved.sum() == 4

    def test_deterministic(self, rng):
        truth, frame = self.make_truth(rng)
        spec = NoiseSpec(Mixed((Translational(1.0, -2.0), RandomNoise(5.0, 0.5))), seed=99)
        a = inject_noise(truth, spec, frame)
        b = inject_noise(truth, spec, frame)
        assert all(p.lat == q.lat and p.lon == q.lon for p, q in zip(a, b))

    def test_mixed_applies_in_order(self, rng):
        frame = self.frame()
        truth = unproject_points(frame, np.array([[10.0, 0.0], [-10.0, 0.0]]))
        # translate then rotate about the new centroid: the translation
        # survives unrotated, so order matters and is fixed as listed
        spec = NoiseSpec(Mixed((Translational(5.0, 0.0), Rotational(math.pi / 2))), seed=0)
        got = project_points(frame, inject_noise(truth, spec, frame))
        assert np.allclose(got, [[5.0, 10.0], [5.0, -10.0]], atol=1e-6)


class TestRaaRectify:
    def test_accepts_already_correct(self):
        seg = straight_segment(60 * 6.0, SpotType.PARALLEL)
        collected, cands = planted_collected(seg, start=0, m=12)
        out = raa_rectify(collected, seg, th=10.0)
        assert out.already_correct
        assert out.window_start_index == 0
        assert out.points == collected.points
        assert out.loss == 0.0

    def test_threshold_monotonicity(self):
        seg = straight_segment(60 * 6.0, SpotType.PARALLEL)
        collected, _ = planted_collected(seg, start=0, m=12)
        # jitter-free planted window: d = 0, correct at every threshold
        for th in (0.5, 2.0, 10.0, 50.0):
            assert raa_rectify(collected, seg, th=th).already_correct

    def test_planted_window_with_jitter(self, rng):
        seg = straight_segment(40 * 6.0, SpotType.PARALLEL)
        hits = 0
        for trial in range(20):
            collected, _ = planted_collected(seg, start=5, m=12, jitter=2.0, rng=rng)
            out = raa_rectify(collected, seg, th=1.0)
            hits += out.window_start_index == 5 and not out.already_correct
        assert hits == 20

    def test_mixed_error_recovery(self, rng):
        seg = straight_segment(50 * 6.0, SpotType.PARALLEL)
        cands = sample_candidates(seg)
        start, m = 9, 20
        truth_xy = cands.xy()[start:start + m]
        corrupted = truth_xy.copy()
        ang = math.radians(5.0)
        c = corrupted.mean(axis=0)
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        corrupted = (corrupted - c) @ rot.T + c
        for i in rng.choice(m, size=2, replace=False):
            d = rng.uniform(0, 2 * math.pi)
            corrupted[i] += 15.0 * np.array([math.cos(d), math.sin(d)])
        collected = CollectedSet(
            segment_id=seg.id,
            points=tuple(unproject_points(cands.frame, corrupted)),
            ground_truth=tuple(unproject_points(cands.frame, truth_xy)),
        )
        out = raa_rectify(collected, seg, th=1.0)
        assert out.window_start_index == start
        got = project_points(cands.frame, out.points)
        assert np.hypot(*(got - truth_xy).T).max() < 1e-9

    def test_returned_loss_is_window_minimum(self, rng):
        seg = straight_segment(30 * 6.0, SpotType.PARALLEL)
        collected, _ = planted_collected(seg, start=3, m=10, jitter=1.5, rng=rng)
        out = raa_rectify(collected, seg, th=0.1)
        losses = np.asarray(out.window_losses)
        assert out.loss == losses.min()
        assert out.window_start_index == int(np.argmin(losses))
        assert losses[out.window_start_index] <= losses.min() + 1e-12

    def test_snap_membership(self, rng):
        seg = straight_segment(30 * 6.0, SpotType.PARALLEL)
        collected, cands = planted_collected(seg, start=6, m=10, jitter=1.5, rng=rng)
        out = raa_rectify(collected, seg, th=0.1)
        cand_xy = cands.xy()
        got = project_points(cands.frame, out.points)
        for p in got:
            assert np.hypot(*(cand_xy - p).T).min() < 1e-9

    def test_insufficient_candidates(self):
        seg = straight_segment(4 * 6.0, SpotType.PARALLEL)
        cands = sample_candidates(seg)
        frame = cands.frame
        pts = tuple(unproject_points(frame, np.column_stack([np.arange(10) * 6.0, np.ones(10) * 30])))
        with pytest.raises(InsufficientCandidatesError):
            raa_rectify(CollectedSet("x", pts), seg, th=0.1)

    @pytest.mark.parametrize("method", ["raa", "cd", "ha", "wd"])
    def test_insufficient_candidates_name_the_segment(self, method):
        seg = straight_segment(4 * 6.0, SpotType.PARALLEL, seg_id="short")
        frame = sample_candidates(seg).frame
        pts = tuple(unproject_points(frame, np.column_stack([np.arange(10) * 6.0, np.ones(10) * 30])))
        with pytest.raises(InsufficientCandidatesError, match="segment 'short': 5 candidates"):
            rectify(CollectedSet("short", pts), seg, method, th=0.1)

    def test_single_point_fails_before_any_window_solve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("admm_solve called")

        monkeypatch.setattr(spotalign.pipeline, "admm_solve", forbidden)
        seg = straight_segment(30 * 6.0, SpotType.PARALLEL, seg_id="lone")
        frame = sample_candidates(seg).frame
        pts = tuple(unproject_points(frame, np.array([[60.0, 30.0]])))
        with pytest.raises(ValueError, match="segment 'lone': RAA needs at least 2 collected points"):
            rectify(CollectedSet("lone", pts), seg, "raa", th=0.1)

    def test_logs_one_debug_line_per_searched_segment(self, caplog, monkeypatch):
        monkeypatch.setattr(spotalign.solver, "RACE_CHECKS", ())  # a race that abandons nothing
        segment, collected = synth_corpus(1, 0, seed=1)[0]
        cfg = SolverConfig(max_iters=3)  # too few sweeps for any window to converge
        quiet = raa_rectify(collected, segment, th=1.0, cfg=cfg)
        with caplog.at_level(logging.DEBUG, logger="spotalign"):
            out = raa_rectify(collected, segment, th=1.0, cfg=cfg)
        assert out == quiet
        (record,) = caplog.records  # the segment's line, and none per window solve
        assert record.name == "spotalign.pipeline"
        losses = sorted(out.window_losses)
        assert len(losses) > 1 and record.levelno == logging.DEBUG
        no_stops = {k: 0 for k, _ in RACE_CHECKS}
        assert record.args == (segment.id, len(losses), 0, no_stops, len(losses), out.loss, losses[1] - losses[0],
                               0.0, False)
        assert record.getMessage().startswith(f"raa_rectify {segment.id}: {len(losses)} windows, 0 abandoned "
                                              f"(per check sweep {no_stops}), {len(losses)} stopped at max_iters, "
                                              "loss ")

    def test_debug_line_counts_abandoned_windows_apart(self, caplog):
        segment, collected = synth_corpus(1, 0, seed=1)[0]
        with caplog.at_level(logging.DEBUG, logger="spotalign"):
            out = raa_rectify(collected, segment, th=1.0)
        (record,) = caplog.records
        assert record.name == "spotalign.pipeline"
        cands = sample_candidates(segment)
        losses, sweeps, _, headroom = search_windows(project_points(cands.frame, collected.points), cands.xy())
        assert losses.tolist() == list(out.window_losses) and 0 < headroom <= 1
        finished = sorted(v for v in out.window_losses if v < math.inf)
        abandoned = len(out.window_losses) - len(finished)
        assert abandoned > 0 and finished[0] == out.loss
        runner_up = finished[1] if len(finished) > 1 else math.inf
        stops = sweeps[losses == math.inf].tolist()
        per_check = {k: stops.count(k) for k, _ in RACE_CHECKS}
        assert sum(per_check.values()) == abandoned and per_check[RACE_CHECKS[0][0]] > 0
        assert record.args == (segment.id, len(out.window_losses), abandoned, per_check, 0, out.loss,
                               runner_up - out.loss, headroom, False)
        assert record.getMessage().endswith(f", headroom {headroom:.3f}, fallback False")

    def test_already_correct_segment_logs_nothing(self, caplog):
        seg = straight_segment(60 * 6.0, SpotType.PARALLEL)
        collected, _ = planted_collected(seg, start=0, m=12)
        with caplog.at_level(logging.DEBUG, logger="spotalign.pipeline"):
            assert raa_rectify(collected, seg, th=10.0).already_correct
        assert not [r for r in caplog.records if r.name == "spotalign.pipeline"]

    def test_baseline_dispatch(self, rng):
        seg = straight_segment(30 * 6.0, SpotType.PARALLEL)
        collected, _ = planted_collected(seg, start=4, m=10, jitter=0.4, rng=rng)
        cands = sample_candidates(seg)
        pts = project_points(cands.frame, collected.points)
        for method in ("ed", "cd", "ha", "wd"):
            out = rectify(collected, seg, method, th=0.1)
            snapped, start = baseline_rectify(pts, cands, method)
            assert out.points == tuple(unproject_points(cands.frame, snapped))
            assert out.window_start_index == start and len(out.points) == 10

    def test_one_solver_state_per_searched_segment(self, monkeypatch):
        # every window is solved, each into the state the segment's first solve made
        states = []

        class Counted(spotalign.solver.SolverState):
            def __init__(self, *args):
                states.append(self)
                super().__init__(*args)

        monkeypatch.setattr(spotalign.solver, "SolverState", Counted)
        corpus = synth_corpus(2, 2, seed=1)
        outs = [raa_rectify(collected, segment, th=1.0) for segment, collected in corpus]
        searched = [out for out in outs if not out.already_correct]
        assert len(searched) == len(corpus) and len(states) == len(searched)
        windows = [sample_candidates(segment).window_count(len(collected.points)) for segment, collected in corpus]
        assert [len(out.window_losses) for out in outs] == windows


class TestSynthCorpus:
    def test_clean_corpus_equals_truth(self):
        pairs = synth_corpus(1, 0, seed=0, taxonomies=())
        seg, collected = pairs[0]
        assert collected.points == collected.ground_truth

    def test_spot_count_statistics(self):
        pairs = synth_corpus(200, 0, seed=11, taxonomies=())
        counts = [len(c.points) for _, c in pairs]
        assert abs(np.mean(counts) - 39.09) < 0.2 * 39.09

    def test_deterministic(self):
        a = synth_corpus(3, 3, seed=21)
        b = synth_corpus(3, 3, seed=21)
        for (sa, ca), (sb, cb) in zip(a, b):
            assert sa.polyline == sb.polyline
            assert ca.points == cb.points
            assert ca.ground_truth == cb.ground_truth

    def test_truth_lies_on_candidates(self):
        for seg, collected in synth_corpus(2, 2, seed=5):
            cands = sample_candidates(seg)
            cand_xy = cands.xy()
            truth_xy = project_points(cands.frame, collected.ground_truth)
            for p in truth_xy:
                assert np.hypot(*(cand_xy - p).T).min() < 1e-9

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            synth_corpus(-1, 0, seed=0)
