import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotalign.geo import (
    EARTH_RADIUS_M,
    GeoPoint,
    LocalPoint,
    make_frame,
    project_points,
    to_geo,
    to_local,
    unproject_points,
)

MPD = math.pi * EARTH_RADIUS_M / 180.0


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    # same sphere radius as the frame, so only the projection error is measured
    la1, lo1, la2, lo2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    s = math.sin((la2 - la1) / 2) ** 2 + math.cos(la1) * math.cos(la2) * math.sin((lo2 - lo1) / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(s))


class TestMakeFrame:
    def test_equator_scales_match(self):
        frame = make_frame(GeoPoint(0.0, 0.0))
        assert frame.meters_per_deg_lat == pytest.approx(111319.4908, abs=1e-3)
        assert frame.meters_per_deg_lon == pytest.approx(frame.meters_per_deg_lat, rel=1e-12)

    def test_sixty_degrees_halves_longitude_scale(self):
        frame = make_frame(GeoPoint(60.0, 0.0))
        assert frame.meters_per_deg_lon == pytest.approx(frame.meters_per_deg_lat / 2, rel=1e-12)

    def test_beijing_longitude_scale(self):
        # oracle: pi * R * cos(39.9 deg) / 180
        expected = MPD * math.cos(math.radians(39.9))
        frame = make_frame(GeoPoint(39.9, 116.4))
        assert frame.meters_per_deg_lon == pytest.approx(expected, abs=1e-6)
        assert frame.meters_per_deg_lon == pytest.approx(85400.434, abs=1e-3)

    @pytest.mark.parametrize("lat", [89.0, -89.0, 89.5, 90.0, -90.0])
    def test_near_pole_rejected(self, lat):
        with pytest.raises(ValueError):
            make_frame(GeoPoint(lat, 0.0))

    @pytest.mark.parametrize("lat,lon", [(91.0, 0.0), (-90.5, 0.0), (0.0, 181.0), (0.0, -180.5)])
    def test_invalid_coordinates_rejected(self, lat, lon):
        with pytest.raises(ValueError):
            GeoPoint(lat, lon)


class TestGeoPoint:
    def test_latitude_message_wins_when_both_out_of_range(self):
        with pytest.raises(ValueError, match=r"^latitude 91.0 outside \[-90, 90\]$"):
            GeoPoint(91.0, 200.0)

    def test_nan_rejected_with_its_own_message(self):
        with pytest.raises(ValueError, match=r"^latitude nan outside \[-90, 90\]$"):
            GeoPoint(math.nan, 0.0)
        with pytest.raises(ValueError, match=r"^longitude nan outside \[-180, 180\]$"):
            GeoPoint(0.0, math.nan)

    def test_keywords_and_bounds_accepted(self):
        assert GeoPoint(lon=180.0, lat=-90.0) == GeoPoint(-90.0, 180.0)

    def test_fields_are_frozen(self):
        p = GeoPoint(1.5, 2.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.lat = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del p.lon
        assert (p.lat, p.lon) == (1.5, 2.5)

    def test_points_carry_no_instance_dict(self):
        # one point per loaded row: slots keep each at two references
        assert not hasattr(GeoPoint(1.5, 2.5), "__dict__")

    def test_dataclass_protocols(self):
        p = GeoPoint(1.5, 2.5)
        assert repr(p) == "GeoPoint(lat=1.5, lon=2.5)"
        assert p == GeoPoint(1.5, 2.5) and p != GeoPoint(1.5, 2.0)
        assert hash(p) == hash((1.5, 2.5))
        assert [(f.name, f.type) for f in dataclasses.fields(GeoPoint)] == [("lat", "float"), ("lon", "float")]
        assert dataclasses.astuple(p) == (1.5, 2.5)
        assert dataclasses.replace(p, lon=-3.0) == GeoPoint(1.5, -3.0)
        with pytest.raises(ValueError, match="latitude"):
            dataclasses.replace(p, lat=100.0)
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and type(q) is GeoPoint and (q.lat, q.lon) == (1.5, 2.5)


class TestProjection:
    def test_origin_maps_to_zero(self):
        frame = make_frame(GeoPoint(10.0, 20.0))
        q = to_local(frame, frame.origin)
        assert q.x == 0.0 and q.y == 0.0

    def test_milli_degree_east(self):
        frame = make_frame(GeoPoint(0.0, 0.0))
        q = to_local(frame, GeoPoint(0.0, 0.001))
        assert q.x == pytest.approx(111.3194908, abs=1e-6)
        assert q.y == 0.0

    def test_inverse_example(self):
        frame = make_frame(GeoPoint(0.0, 0.0))
        p = to_geo(frame, LocalPoint(111.31949079327358, 0.0))
        assert p.lon == pytest.approx(0.001, abs=1e-12)
        assert p.lat == 0.0

    def test_zero_maps_to_origin(self):
        frame = make_frame(GeoPoint(-33.4, 151.2))
        p = to_geo(frame, LocalPoint(0.0, 0.0))
        assert (p.lat, p.lon) == (frame.origin.lat, frame.origin.lon)

    def test_round_trip_thousand_points(self, rng):
        frame = make_frame(GeoPoint(39.9, 116.4))
        for _ in range(1000):
            x, y = rng.uniform(-2000, 2000, size=2)
            q = LocalPoint(float(x), float(y))
            back = to_local(frame, to_geo(frame, q))
            assert math.hypot(back.x - q.x, back.y - q.y) < 1e-9

    @pytest.mark.parametrize("xy", [np.zeros((2, 3)), np.zeros(2)])
    def test_unproject_rejects_non_pairs(self, xy):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            unproject_points(make_frame(GeoPoint(0.0, 0.0)), xy)

    @pytest.mark.parametrize("xy", [[], np.empty((0, 2))])
    def test_unproject_empty(self, xy):
        frame = make_frame(GeoPoint(0.0, 0.0))
        assert unproject_points(frame, xy) == []
        assert project_points(frame, []).shape == (0, 2)

    def test_beyond_range_rejected(self):
        frame = make_frame(GeoPoint(0.0, 0.0))
        with pytest.raises(ValueError):
            to_local(frame, GeoPoint(0.0, 0.2))  # ~22 km east

    def test_project_points_names_first_far_point(self):
        frame = make_frame(GeoPoint(0.0, 0.0))
        far = GeoPoint(0.0, 0.2)  # ~22 km east
        with pytest.raises(ValueError) as single:
            to_local(frame, far)
        with pytest.raises(ValueError) as batch:
            project_points(frame, [GeoPoint(0.0, 0.001), far, GeoPoint(0.3, 0.0)])
        assert str(batch.value) == str(single.value)
        assert str(batch.value) == f"point {far} is 22264 m from the frame origin (limit 10000 m)"


class TestFrameProperties:
    @given(
        lat=st.floats(-65, 65),
        lon=st.floats(-179, 179),
        x1=st.floats(-500, 500), y1=st.floats(-500, 500),
        x2=st.floats(-500, 500), y2=st.floats(-500, 500),
    )
    @settings(max_examples=200, deadline=None)
    def test_distance_matches_haversine(self, lat, lon, x1, y1, x2, y2):
        frame = make_frame(GeoPoint(lat, lon))
        a = to_geo(frame, LocalPoint(x1, y1))
        b = to_geo(frame, LocalPoint(x2, y2))
        flat = math.hypot(x2 - x1, y2 - y1)
        if flat < 1.0:
            return  # relative error unstable below a meter of separation
        great = haversine_m(a, b)
        assert flat == pytest.approx(great, rel=1e-3)

    def test_longitude_shifted_frames_preserve_distance(self, rng):
        # the longitude scale depends only on origin latitude, so any
        # same-latitude origin gives identical point separations
        base = GeoPoint(40.0, 116.0)
        pts = [GeoPoint(40.0 + rng.uniform(-5e-3, 5e-3), 116.0 + rng.uniform(-5e-3, 5e-3)) for _ in range(8)]
        for dlon in (-0.01, -0.005, 0.004, 0.009):
            f1 = make_frame(base)
            f2 = make_frame(GeoPoint(base.lat, base.lon + dlon))
            a1 = project_points(f1, pts)
            a2 = project_points(f2, pts)
            d1 = np.hypot(*(a1[:, None] - a1[None, :]).transpose(2, 0, 1))
            d2 = np.hypot(*(a2[:, None] - a2[None, :]).transpose(2, 0, 1))
            assert np.max(np.abs(d1 - d2)) < 1e-9
