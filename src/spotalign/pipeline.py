"""End-to-end rectification: the window race over candidate locations,
noise-injection models for experiments, and a synthetic corpus generator
shaped like the field data (straight and curved segments with planted
ground-truth windows)."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .geo import GeoPoint, LocalFrame, make_frame, project_points, unproject_points
from .matchers import BASELINE_METHODS, baseline_rectify
from .roads import CURVE, STRAIGHT, RoadSegment, SpotType, sample_candidates
from .solver import RACE_CHECKS, SolverConfig, admm_solve

log = logging.getLogger(__name__)

RAA = "raa"
ALL_METHODS = (RAA,) + BASELINE_METHODS

DEFAULT_CORRECTNESS_THRESHOLD_M = 10.0


@dataclass(frozen=True)
class CollectedSet:
    """Collected spot coordinates for one segment, with optional ground truth."""

    segment_id: str
    points: tuple[GeoPoint, ...]
    ground_truth: tuple[GeoPoint, ...] | None = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError(f"segment {self.segment_id!r}: no collected points")
        if self.ground_truth is not None and len(self.ground_truth) != len(self.points):
            raise ValueError(
                f"segment {self.segment_id!r}: ground truth size "
                f"{len(self.ground_truth)} != collected size {len(self.points)}"
            )


@dataclass(frozen=True)
class RectifiedSet:
    """Rectified coordinates for one segment.

    ``window_start_index`` is the candidate index the output window starts at
    (0 for methods that match against the full candidate set, and for inputs
    accepted as already correct).  ``window_losses`` carries the per-window
    scores of the search when one ran; +inf marks a window whose solve was
    abandoned because it could not win.
    """

    segment_id: str
    points: tuple[GeoPoint, ...]
    window_start_index: int
    loss: float
    method: str
    already_correct: bool = False
    window_losses: tuple[float, ...] | None = None


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Translational:
    dx: float
    dy: float

    def __post_init__(self) -> None:
        for name in ("dx", "dy"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"translational noise {name} must be finite")


@dataclass(frozen=True)
class Rotational:
    angle: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle):
            raise ValueError("rotational noise angle must be finite")


@dataclass(frozen=True)
class RandomNoise:
    bound: float
    fraction: float

    def __post_init__(self) -> None:
        if not 0 <= self.bound < math.inf:
            raise ValueError("noise bound must be non-negative and finite")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("noise fraction must lie in [0, 1]")


@dataclass(frozen=True)
class Mixed:
    parts: tuple["NoiseKind", ...]


NoiseKind = Translational | Rotational | RandomNoise | Mixed


@dataclass(frozen=True)
class NoiseSpec:
    kind: NoiseKind
    seed: int = 0


def _apply_noise(xy: np.ndarray, kind: NoiseKind, rng: np.random.Generator) -> np.ndarray:
    if isinstance(kind, Translational):
        return xy + np.array([kind.dx, kind.dy])
    if isinstance(kind, Rotational):
        c = xy.mean(axis=0)
        cos, sin = math.cos(kind.angle), math.sin(kind.angle)
        rot = np.array([[cos, -sin], [sin, cos]])
        return (xy - c) @ rot.T + c
    if isinstance(kind, RandomNoise):
        n = len(xy)
        count = int(round(kind.fraction * n))
        out = xy.copy()
        if count:
            chosen = rng.choice(n, size=count, replace=False)
            mags = rng.uniform(0.0, kind.bound, size=count)
            dirs = rng.uniform(0.0, 2.0 * math.pi, size=count)
            out[chosen, 0] += mags * np.cos(dirs)
            out[chosen, 1] += mags * np.sin(dirs)
        return out
    if isinstance(kind, Mixed):
        for part in kind.parts:
            xy = _apply_noise(xy, part, rng)
        return xy
    raise TypeError(f"unknown noise kind {kind!r}")


def inject_noise(truth: list[GeoPoint] | tuple[GeoPoint, ...], spec: NoiseSpec, frame: LocalFrame) -> list[GeoPoint]:
    """Corrupt ``truth`` in the local frame per the noise model, deterministically.

    Translations add (dx, dy) meters to every point; rotations pivot at the
    point-set centroid; random noise displaces a seed-chosen fraction of the
    points by a magnitude uniform in [0, bound] toward a uniform direction;
    mixed noise applies its parts in order.
    """
    xy = project_points(frame, truth)
    rng = np.random.default_rng(spec.seed)
    return unproject_points(frame, _apply_noise(xy, spec.kind, rng))


# ---------------------------------------------------------------------------
# rectification
# ---------------------------------------------------------------------------

def search_windows(pts: np.ndarray, cand_xy: np.ndarray,
                   cfg: SolverConfig | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Race the rank-1 alignments of the (M, 2) points against every M-wide window.

    Each window of ``cand_xy`` (stride 1), and the points with it, is
    centred on the window's mean, so the transform-norm part of a loss
    measures displacement relative to the window itself.  The windows are
    solved nearest centre first, one :func:`~spotalign.solver.admm_solve`
    call each, all into one :class:`~spotalign.solver.SolverState`, and
    each solve is given the best loss a window has finished with so far.
    A solve whose loss at a rung of :data:`~spotalign.solver.RACE_CHECKS`
    exceeds the rung's margin times that best is abandoned there and
    scores +inf.  Returns each window's loss, sweeps and ``converged``, in
    start order.
    """
    cfg = cfg or SolverConfig()
    # every window centred on its mean at once, (windows, M, 2) per side; each
    # centre equals cand_xy[i:i + M].mean(axis=0) bit for bit
    windows = np.lib.stride_tricks.sliding_window_view(cand_xy, len(pts), axis=0)
    centres = windows.mean(axis=-1)[:, None]
    centred_pts, centred_windows = pts - centres, windows.transpose(0, 2, 1) - centres
    n = len(windows)
    losses, sweeps, converged = np.empty(n), np.empty(n, int), np.empty(n, bool)
    best, state = math.inf, None  # the best finished loss; the one solver state, made by the first solve
    for i in np.argsort(np.hypot(*(centres[:, 0] - pts.mean(axis=0)).T), kind="stable").tolist():
        solved = admm_solve(centred_pts[i], centred_windows[i], cfg, race_best=best, out=state)
        state = solved.state
        losses[i], sweeps[i], converged[i] = solved.loss, solved.iterations, solved.converged
        best = min(best, solved.loss)  # an abandoned solve's +inf leaves it
    return losses, sweeps, converged


def raa_rectify(
    collected: CollectedSet,
    segment: RoadSegment,
    th: float = DEFAULT_CORRECTNESS_THRESHOLD_M,
    cfg: SolverConfig | None = None,
) -> RectifiedSet:
    """Rectify one segment's collected points by a race of window alignments.

    The collected points are first compared against the first M candidates;
    a mean per-point distance under ``th`` meters accepts them as already
    correct.  Otherwise :func:`search_windows` scores every M-wide candidate
    window, and the output snaps to the window with the smallest loss (ties:
    smaller start index).  At DEBUG level, ``spotalign.pipeline`` logs one
    line per searched segment: the windows, how many were abandoned in all
    and at each check sweep, how many of the rest stopped at ``max_iters``,
    the winning loss and its margin over the best finished runner-up (nan
    for a single window, inf when every other window was abandoned).

    Raises :class:`InsufficientCandidatesError` when the candidate set is
    smaller than the collected set, and ``ValueError`` when a single
    collected point is not already correct (a window solve needs two).
    """
    cands = sample_candidates(segment)
    m = len(collected.points)
    n_windows = cands.window_count(m)

    frame = cands.frame
    pts = project_points(frame, collected.points)
    cand_xy = cands.xy()

    d = float(np.hypot(*(pts - cand_xy[:m]).T).mean())
    if d < th:
        return RectifiedSet(
            segment_id=collected.segment_id,
            points=tuple(collected.points),
            window_start_index=0,
            loss=0.0,
            method=RAA,
            already_correct=True,
        )

    if m < 2:
        raise ValueError(f"segment {segment.id!r}: RAA needs at least 2 collected points, got {m}")
    losses, sweeps, converged = search_windows(pts, cand_xy, cfg)
    best = int(np.argmin(losses))
    if log.isEnabledFor(logging.DEBUG):
        abandoned = losses == math.inf
        stops = sweeps[abandoned].tolist()  # the sweep each abandoned solve stopped at
        margin = float(np.partition(losses, 1)[1] - losses[best]) if n_windows > 1 else math.nan
        log.debug("raa_rectify %s: %d windows, %d abandoned (per check sweep %s), %d stopped at max_iters, "
                  "loss %.6f, margin %.6f", segment.id, n_windows, len(stops),
                  {k: stops.count(k) for k, _ in RACE_CHECKS}, int((~converged & ~abandoned).sum()),
                  losses[best], margin)
    snapped = unproject_points(frame, cand_xy[best:best + m])
    return RectifiedSet(
        segment_id=collected.segment_id,
        points=tuple(snapped),
        window_start_index=best,
        loss=float(losses[best]),
        method=RAA,
        window_losses=tuple(losses.tolist()),
    )


def rectify(
    collected: CollectedSet,
    segment: RoadSegment,
    method: str,
    th: float = DEFAULT_CORRECTNESS_THRESHOLD_M,
    cfg: SolverConfig | None = None,
) -> RectifiedSet:
    """Rectify with the chosen method; baselines snap via their own protocols."""
    if method == RAA:
        return raa_rectify(collected, segment, th, cfg)
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown method {method!r}")
    cands = sample_candidates(segment)
    pts = project_points(cands.frame, collected.points)
    snapped, start = baseline_rectify(pts, cands, method)
    residual = float(np.hypot(*(pts - snapped).T).sum())
    return RectifiedSet(
        segment_id=collected.segment_id,
        points=tuple(unproject_points(cands.frame, snapped)),
        window_start_index=start,
        loss=residual,
        method=method,
    )


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

CORPUS_ORIGIN = GeoPoint(39.9, 116.4)
TAXONOMIES = ("translational", "rotational", "mixed")

MEAN_SPOTS_STRAIGHT = 39.09
MEAN_SPOTS_CURVE = 58.58


def _segment_polyline(rng: np.random.Generator, arc_len: float, shape_class: str, frame: LocalFrame) -> tuple[GeoPoint, ...]:
    heading = rng.uniform(0.0, 2.0 * math.pi)
    origin = np.array([rng.uniform(-2000.0, 2000.0), rng.uniform(-2000.0, 2000.0)])
    if shape_class == STRAIGHT:
        n_vertices = max(2, int(arc_len // 60) + 1)
        ts = np.linspace(0.0, arc_len, n_vertices)
        xy = origin + np.outer(ts, [math.cos(heading), math.sin(heading)])
    else:
        radius = rng.uniform(200.0, 800.0) * (1 if rng.random() < 0.5 else -1)
        n_vertices = max(3, int(arc_len // 20) + 1)
        angles = heading + np.linspace(0.0, arc_len / radius, n_vertices)
        center = origin - radius * np.array([math.sin(heading), -math.cos(heading)])
        xy = center + radius * np.stack([np.sin(angles), -np.cos(angles)], axis=1)
    return tuple(unproject_points(frame, xy))


RECEIVER_JITTER_BOUND_M = 1.5


def _taxonomy_noise(rng: np.random.Generator, taxonomy: str, perp: float) -> NoiseKind:
    """Noise model for one corrupted segment.

    Translations push mostly off the road (direction within 10 degrees of the
    perpendicular), matching the lateral drift seen in the field data; a
    translation along the road would make the true window itself ambiguous on
    a uniform grid.  Every model also carries a small everywhere-jitter
    standing in for ordinary receiver error.
    """
    def lateral(lo: float, hi: float) -> Translational:
        mag = rng.uniform(lo, hi)
        ang = perp + rng.uniform(-math.radians(10), math.radians(10))
        side = 1 if rng.random() < 0.5 else -1
        return Translational(side * mag * math.cos(ang), side * mag * math.sin(ang))

    jitter = RandomNoise(bound=RECEIVER_JITTER_BOUND_M, fraction=1.0)
    sign = 1 if rng.random() < 0.5 else -1
    if taxonomy == "translational":
        return Mixed((lateral(2.5, 7.0), jitter))
    if taxonomy == "rotational":
        return Mixed((Rotational(sign * rng.uniform(math.radians(2.0), math.radians(6.0))), jitter))
    if taxonomy == "mixed":
        return Mixed((
            lateral(2.0, 6.0),
            Rotational(sign * rng.uniform(math.radians(1.5), math.radians(5.0))),
            RandomNoise(bound=rng.uniform(15.0, 25.0), fraction=0.15),
            jitter,
        ))
    raise ValueError(f"unknown taxonomy {taxonomy!r}")


def synth_corpus(
    n_straight: int,
    n_curve: int,
    seed: int = 0,
    *,
    taxonomies: tuple[str, ...] = TAXONOMIES,
) -> list[tuple[RoadSegment, CollectedSet]]:
    """Generate segments with planted ground-truth windows and corrupted copies.

    Spot counts are drawn around the field-data means (39.09 per straight
    segment, 58.58 per curved one).  Ground truth is a contiguous window of
    the segment's sampled candidates; the collected copy adds one noise model
    drawn from ``taxonomies`` (pass an empty tuple for clean corpora).  A
    third of the segments get intersection flags at their endpoints, which
    shifts the candidate grid by the 50 m clearance.
    """
    if n_straight < 0 or n_curve < 0:
        raise ValueError("segment counts must be non-negative")
    rng = np.random.default_rng(seed)
    out: list[tuple[RoadSegment, CollectedSet]] = []
    shapes = [STRAIGHT] * n_straight + [CURVE] * n_curve
    for idx, shape_class in enumerate(shapes):
        mean_spots = MEAN_SPOTS_STRAIGHT if shape_class == STRAIGHT else MEAN_SPOTS_CURVE
        m = max(8, int(round(rng.normal(mean_spots, mean_spots * 0.15))))
        # parallel spots dominate roadside parking; the denser 3 m layouts
        # appear but do not dominate
        labels = [t.value for t in SpotType]
        weights = [0.6 if t is SpotType.PARALLEL else 0.1 for t in SpotType]
        spot_type = SpotType(str(rng.choice(labels, p=weights)))
        extra = int(rng.integers(15, 45))
        k_target = m + extra

        flagged = rng.random() < 1.0 / 3.0
        clearance = 100.0 if flagged else 0.0
        arc_len = (k_target - 1) * spot_type.spacing + clearance + 2.0 * spot_type.spacing

        base = GeoPoint(
            CORPUS_ORIGIN.lat + float(rng.uniform(-0.03, 0.03)),
            CORPUS_ORIGIN.lon + float(rng.uniform(-0.03, 0.03)),
        )
        frame = make_frame(base)
        polyline = _segment_polyline(rng, arc_len, shape_class, frame)
        intersections = frozenset({0, len(polyline) - 1}) if flagged else frozenset()
        segment = RoadSegment(
            id=f"S{idx:04d}",
            polyline=polyline,
            spot_type=spot_type,
            shape_class=shape_class,
            intersection_indices=intersections,
        )

        cands = sample_candidates(segment)
        k = len(cands)
        if k < m + 1:
            m = k - 1  # arc shrank under reprojection; keep the window plantable
        w = int(rng.integers(0, k - m + 1))
        truth_xy = cands.xy()[w:w + m]
        truth = tuple(unproject_points(cands.frame, truth_xy))

        if taxonomies:
            taxonomy = str(rng.choice(list(taxonomies)))
            chord = truth_xy[-1] - truth_xy[0]
            perp = math.atan2(chord[1], chord[0]) + math.pi / 2.0
            noise_seed = int(rng.integers(0, 2**31 - 1))
            spec = NoiseSpec(_taxonomy_noise(rng, taxonomy, perp), seed=noise_seed)
            collected_points = tuple(inject_noise(truth, spec, cands.frame))
        else:
            collected_points = truth

        out.append((
            segment,
            CollectedSet(segment_id=segment.id, points=collected_points, ground_truth=truth),
        ))
    return out
