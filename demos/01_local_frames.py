"""Local metric frames: how degree coordinates become solver-ready meters.

Every road segment gets a small equirectangular frame anchored at its
centroid; within a couple of kilometers the distortion is far below the
half-meter recall tolerance the evaluation uses.
"""
import math

import numpy as np

from spotalign import GeoPoint, LocalPoint, make_frame, to_geo
from spotalign.geo import project_points

frame = make_frame(GeoPoint(39.9, 116.4))
print(f"frame at (39.9, 116.4):")
print(f"  1 degree of latitude  = {frame.meters_per_deg_lat:12.3f} m")
print(f"  1 degree of longitude = {frame.meters_per_deg_lon:12.3f} m")

p = GeoPoint(39.905, 116.407)
q = LocalPoint(*project_points(frame, [p])[0].tolist())
print(f"\n(39.905, 116.407) -> local ({q.x:.3f} m east, {q.y:.3f} m north)")

back = to_geo(frame, q)
print(f"round trip error: {abs(back.lat - p.lat):.2e} deg lat, {abs(back.lon - p.lon):.2e} deg lon")

# flat-frame distances vs great-circle distances over a 1 km neighborhood
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(500):
    a_local = LocalPoint(*rng.uniform(-500, 500, 2))
    b_local = LocalPoint(*rng.uniform(-500, 500, 2))
    a, b = to_geo(frame, a_local), to_geo(frame, b_local)
    flat = math.hypot(b_local.x - a_local.x, b_local.y - a_local.y)
    la1, lo1, la2, lo2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    s = math.sin((la2 - la1) / 2) ** 2 + math.cos(la1) * math.cos(la2) * math.sin((lo2 - lo1) / 2) ** 2
    great = 2 * 6378137.0 * math.asin(math.sqrt(s))
    if flat > 1:
        worst = max(worst, abs(flat - great) / great)
print(f"worst flat-vs-great-circle relative error over 500 pairs within 1 km: {worst:.2e}")
