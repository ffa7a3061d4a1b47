import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotalign.roads import (
    INTERSECTION_CLEARANCE_M,
    EmptyCandidateError,
    SpotType,
    _admissible_intervals,
    sample_candidates,
    segment_arclength,
)

from conftest import polyline_segment, straight_segment


def arc_gaps(arcs, centers):
    return [abs(s - c) for s in arcs for c in centers]


class TestSpotType:
    def test_spacings(self):
        assert SpotType.PARALLEL.spacing == 6.0
        for t in (SpotType.ANGLED30, SpotType.ANGLED45, SpotType.ANGLED60, SpotType.PERPENDICULAR):
            assert t.spacing == 3.0

    def test_labels_round_trip(self):
        assert SpotType.from_label(" Parallel ") is SpotType.PARALLEL
        with pytest.raises(ValueError):
            SpotType.from_label("diagonal")


class TestSampleCandidates:
    def test_twelve_meter_parallel(self):
        cands = sample_candidates(straight_segment(12.0, SpotType.PARALLEL))
        assert np.allclose(cands.arclengths, [0.0, 6.0, 12.0], atol=1e-9)
        assert len(cands) == 3

    def test_twelve_meter_angled45(self):
        cands = sample_candidates(straight_segment(12.0, SpotType.ANGLED45))
        assert np.allclose(cands.arclengths, [0.0, 3.0, 6.0, 9.0, 12.0], atol=1e-9)

    def test_double_intersection_120m(self):
        # independent walk: first admissible arclength is 50, then multiples
        # of 6 while the far gap stays >= 50, giving {50, 56, 62, 68}
        seg = straight_segment(120.0, SpotType.PARALLEL, n_vertices=5, intersections=(0, 4))
        cands = sample_candidates(seg)
        assert np.allclose(cands.arclengths, [50.0, 56.0, 62.0, 68.0], atol=1e-6)

    def test_clearance_exact(self):
        seg = straight_segment(300.0, SpotType.PARALLEL, n_vertices=4, intersections=(0, 3))
        cands = sample_candidates(seg)
        centers = [0.0, 300.0]
        assert min(arc_gaps(cands.arclengths, centers)) >= 50.0 - 1e-9

    def test_mid_intersection_splits_walk(self):
        # vertex 1 sits at arclength 100 of a 240 m segment; each admissible
        # stretch restarts its own spacing grid
        seg = polyline_segment([[0.0, 0.0], [100.0, 0.0], [240.0, 0.0]],
                               SpotType.PARALLEL, intersections=(1,))
        cands = sample_candidates(seg)
        arcs = np.asarray(cands.arclengths)
        assert arcs[0] == pytest.approx(0.0, abs=1e-9)
        left = arcs[arcs < 50.0 + 1e-9]
        right = arcs[arcs > 149.0]
        assert np.allclose(np.diff(left), 6.0, atol=1e-6)
        assert np.allclose(np.diff(right), 6.0, atol=1e-6)
        assert right[0] == pytest.approx(150.0, abs=1e-6)
        assert min(abs(s - 100.0) for s in arcs) >= 50.0 - 1e-9

    def test_count_on_straight_segment(self):
        for length, spot in ((96.0, SpotType.PARALLEL), (97.3, SpotType.PARALLEL), (50.0, SpotType.ANGLED30)):
            seg = straight_segment(length, spot)
            cands = sample_candidates(seg)
            expected = int(np.floor(segment_arclength(seg) / spot.spacing)) + 1
            assert len(cands) == expected

    def test_spacing_property_within_runs(self):
        seg = straight_segment(200.0, SpotType.ANGLED60, n_vertices=7)
        arcs = sample_candidates(seg).arclengths
        assert all(abs(b - a - 3.0) < 1e-6 for a, b in zip(arcs, arcs[1:]))

    def test_deterministic(self):
        seg = straight_segment(77.0, SpotType.PARALLEL, n_vertices=3)
        a = sample_candidates(seg)
        b = sample_candidates(seg)
        assert np.array_equal(a.arclengths, b.arclengths)
        assert all(p[0] == q[0] and p[1] == q[1] for p, q in zip(a.points, b.points))

    def test_arrays_read_only(self):
        cands = sample_candidates(straight_segment(77.0, SpotType.PARALLEL, n_vertices=3))
        assert cands.points.shape == (len(cands), 2)
        assert cands.arclengths.shape == (len(cands),)
        assert cands.xy() is cands.points
        for arr in (cands.points, cands.arclengths):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_too_short_after_exclusion(self):
        seg = straight_segment(104.0, SpotType.PARALLEL, n_vertices=3, intersections=(0, 2))
        with pytest.raises(EmptyCandidateError) as err:
            sample_candidates(seg)
        assert err.value.usable_length == pytest.approx(4.0, abs=1e-6)

    def test_candidates_lie_on_polyline(self):
        from spotalign.geo import project_points

        seg = polyline_segment([[0.0, 0.0], [30.0, 0.0], [30.0, 40.0]], SpotType.PARALLEL)
        cands = sample_candidates(seg)
        verts = project_points(cands.frame, seg.polyline)
        for p in cands.points:
            dists = []
            for a, b in zip(verts, verts[1:]):
                ab = b - a
                t = np.clip(np.dot([p[0], p[1]] - a, ab) / np.dot(ab, ab), 0.0, 1.0)
                dists.append(np.hypot(*([p[0], p[1]] - a - t * ab)))
            assert min(dists) < 1e-6


class TestAdmissibleIntervals:
    @given(data=st.data(), total=st.one_of(st.floats(0.0, 1000.0), st.integers(0, 1000).map(float)))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, data, total):
        # centers in [0, total] as sample_candidates passes them: coincident,
        # on the ends, and on a 50 m grid so clearances meet exactly
        center = st.one_of(st.sampled_from([0.0, total]), st.floats(0.0, total),
                           st.integers(0, int(total) // 50).map(lambda k: 50.0 * k))
        centers = sorted(data.draw(st.lists(center, max_size=6)))
        intervals = _admissible_intervals(total, centers)
        flat = [x for pair in intervals for x in pair]
        assert flat == sorted(flat) and all(0.0 <= x <= total for x in flat)
        clear = INTERSECTION_CLEARANCE_M
        probes = [*np.linspace(0.0, total, 257).tolist(), 0.0, total,
                  *(c + d for c in centers for d in (-clear, clear))]
        for x in (p for p in probes if 0.0 <= p <= total):
            admissible = all(x <= c - clear or x >= c + clear for c in centers)
            assert any(a <= x <= b for a, b in intervals) == admissible, x


class TestArclength:
    def test_two_point_line(self):
        assert segment_arclength(straight_segment(100.0)) == pytest.approx(100.0, abs=1e-6)

    def test_degenerate_repeated_point(self):
        seg = polyline_segment([[5.0, 5.0], [5.0, 5.0]], SpotType.PARALLEL)
        assert segment_arclength(seg) == 0.0

    def test_l_shape(self):
        seg = polyline_segment([[0.0, 0.0], [30.0, 0.0], [30.0, 40.0]], SpotType.PARALLEL)
        assert segment_arclength(seg) == pytest.approx(70.0, abs=1e-6)
