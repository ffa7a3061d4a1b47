"""Seeded inputs, timed passes and output checks for each benchmark workload.

Every workload is a closed loop: one caller sends the next segment (or CLI
command) when the previous one returns.  A pass runs the whole generated
input once; the harness repeats passes until its time is up, and every pass
must give the same outputs as the first.

Inputs are built before the clock starts and written to CSV with
``save_dataset``; the timed code only sees what ``load_dataset`` (or the
CLI) reads back from those files.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import spotalign
from spotalign import cli
from spotalign.dataio import Dataset, load_dataset, save_dataset
from spotalign.geo import GeoPoint, LocalPoint, make_frame, to_geo
from spotalign.pipeline import Mixed, NoiseSpec, RandomNoise, Rotational, Translational, inject_noise
from spotalign.roads import CURVE, STRAIGHT, RoadSegment, SpotType, sample_candidates

TH_M = 1.0          # already-correct threshold for RAA; low, so every segment searches
TAU_M = 0.5         # recall tolerance of the AR metric
GRID_TOL_M = 1e-6   # an output point this close to a candidate sits on the grid
RAA_METHODS = ("raa",)
BASELINE_METHODS = ("ed", "cd", "ha", "wd")

# raa-wide cells: (shape, noise taxonomy, target collected points, target
# window count).  Each cell takes the segment of a seeded synth_corpus pool
# nearest its targets, so the work in a pass hardly depends on the seed
# while geometry, spot layout and noise still do.
WIDE_CELLS = (
    (STRAIGHT, "translational", 33, 18), (STRAIGHT, "rotational", 39, 30), (STRAIGHT, "mixed", 45, 42),
    (CURVE, "translational", 50, 24), (CURVE, "rotational", 58, 36), (CURVE, "mixed", 66, 44),
)
WIDE_POOL = 48
BASELINE_COPIES = 5  # WD's LP time varies with geometry; average it over more segments
NARROW_SEGMENTS = 40
CLI_SEGMENTS_PER_ARM = 150  # straight + curved per arm; a clean and a noisy arm


def sub_seed(seed: int, *keys: int) -> int:
    """Independent, reproducible seed for one part of a workload's input."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def local_xy(frame, points) -> np.ndarray:
    """GeoPoints to frame meters, with the same arithmetic as ``geo.to_local``."""
    ll = np.array([(p.lat, p.lon) for p in points], dtype=float).reshape(-1, 2)
    return np.column_stack(((ll[:, 1] - frame.origin.lon) * frame.meters_per_deg_lon,
                            (ll[:, 0] - frame.origin.lat) * frame.meters_per_deg_lat))


def _renamed(pairs, prefix: str):
    out = []
    for i, (seg, cset) in enumerate(pairs):
        sid = f"{prefix}{i:04d}"
        out.append((replace(seg, id=sid), replace(cset, segment_id=sid)))
    return out


def _lead_distance(seg: RoadSegment, cset) -> tuple[int, float]:
    cands = sample_candidates(seg)
    m = len(cset.points)
    d = np.hypot(*(local_xy(cands.frame, cset.points) - cands.xy()[:m]).T).mean()
    return len(cands) - m + 1, float(d)


def wide_corpus(seed: int, cells=WIDE_CELLS, per_cell: int = 1, pool: int = WIDE_POOL):
    """``per_cell`` noisy synth_corpus segments per cell, nearest its size targets."""
    chosen = []
    for c, (shape, taxonomy, m_target, w_target) in enumerate(cells):
        n_straight, n_curve = (pool, 0) if shape == STRAIGHT else (0, pool)
        for copy in range(per_cell):
            pairs = spotalign.synth_corpus(n_straight, n_curve, seed=sub_seed(seed, 1, c, copy),
                                           taxonomies=(taxonomy,))
            scored = []
            for seg, cset in pairs:
                windows, lead = _lead_distance(seg, cset)
                if lead >= 2.0 * TH_M:  # never accepted as already correct
                    miss = abs(windows / w_target - 1.0) + 0.5 * abs(len(cset.points) / m_target - 1.0)
                    scored.append((miss, seg.id, seg, cset))
            if not scored:
                raise RuntimeError(f"seed {seed}: no searchable segment for cell {c}")
            _, _, seg, cset = min(scored, key=lambda s: s[:2])
            chosen.append((seg, cset))
    return _renamed(chosen, "W")


def _narrow_noise(rng: np.random.Generator, taxonomy: int, perp: float):
    mag = rng.uniform(2.5, 5.0) * (1 if rng.random() < 0.5 else -1)
    lateral = Translational(mag * math.cos(perp), mag * math.sin(perp))
    jitter = RandomNoise(bound=1.5, fraction=1.0)
    sign = 1 if rng.random() < 0.5 else -1
    if taxonomy == 0:
        return Mixed((lateral, jitter))
    if taxonomy == 1:
        return Mixed((lateral, Rotational(sign * math.radians(rng.uniform(2.0, 5.0))), jitter))
    return Mixed((lateral, Rotational(sign * math.radians(rng.uniform(1.5, 4.0))),
                  RandomNoise(bound=rng.uniform(15.0, 25.0), fraction=0.15), jitter))


def narrow_corpus(seed: int, n: int = NARROW_SEGMENTS):
    """Short, nearly full streets: K - M cycles through 0..3, so 1..4 windows."""
    rng = np.random.default_rng(sub_seed(seed, 2))
    spot_types = list(SpotType)
    out = []
    for i in range(n):
        extra = i % 4
        shape = STRAIGHT if (i // 4) % 2 == 0 else CURVE
        spot_type = spot_types[i % len(spot_types)]
        m = 10 + (11 * i) % 21  # 10..30, the same multiset for every seed
        arc_len = (m + extra - 1 + 0.5) * spot_type.spacing
        frame = make_frame(GeoPoint(39.9 + rng.uniform(-0.03, 0.03), 116.4 + rng.uniform(-0.03, 0.03)))
        heading = rng.uniform(0.0, 2.0 * math.pi)
        if shape == STRAIGHT:
            ts = np.linspace(0.0, arc_len, 3)
            xy = np.outer(ts, [math.cos(heading), math.sin(heading)])
        else:
            radius = rng.uniform(150.0, 400.0) * (1 if rng.random() < 0.5 else -1)
            angles = heading + np.linspace(0.0, arc_len / radius, max(3, int(arc_len // 10) + 1))
            xy = radius * np.stack([np.sin(angles) - math.sin(heading),
                                    math.cos(heading) - np.cos(angles)], axis=1)
        seg = RoadSegment(id=f"N{i:04d}", spot_type=spot_type, shape_class=shape,
                          polyline=tuple(to_geo(frame, LocalPoint(float(x), float(y))) for x, y in xy))
        cands = sample_candidates(seg)
        m = len(cands) - extra  # reprojection may move the count by one; keep K - M
        w = int(rng.integers(0, extra + 1))
        truth_xy = cands.xy()[w:w + m]
        truth = tuple(to_geo(cands.frame, LocalPoint(float(x), float(y))) for x, y in truth_xy)
        chord = truth_xy[-1] - truth_xy[0]
        perp = math.atan2(chord[1], chord[0]) + math.pi / 2.0
        spec = NoiseSpec(_narrow_noise(rng, i % 3, perp), seed=int(rng.integers(0, 2**31 - 1)))
        points = tuple(inject_noise(truth, spec, cands.frame))
        out.append((seg, spotalign.CollectedSet(seg.id, points, truth)))
    return out


def cli_corpus(seed: int, per_arm: int = CLI_SEGMENTS_PER_ARM):
    """A clean and a noisy synth_corpus arm, each half straight, half curved."""
    half = per_arm // 2
    clean = spotalign.synth_corpus(half, per_arm - half, seed=sub_seed(seed, 3), taxonomies=())
    noisy = spotalign.synth_corpus(half, per_arm - half, seed=sub_seed(seed, 4))
    return _renamed(clean, "C") + _renamed(noisy, "N")


def write_dataset(pairs, workdir: Path) -> dict[str, Path]:
    dataset = Dataset(segments={s.id: s for s, _ in pairs},
                      collected={s.id: c for s, c in pairs}, metadata={})
    return save_dataset(dataset, workdir)


@dataclass
class Reference:
    """What the harness knows about one segment before any timed call."""

    sid: str
    frame: object
    cand_xy: np.ndarray
    collected_xy: np.ndarray
    truth_xy: np.ndarray

    @property
    def m(self) -> int:
        return len(self.truth_xy)

    @property
    def k(self) -> int:
        return len(self.cand_xy)


def references(dataset: Dataset) -> dict[str, Reference]:
    out = {}
    for sid in dataset.segment_ids():
        cands = sample_candidates(dataset.segments[sid])
        cset = dataset.collected[sid]
        out[sid] = Reference(sid, cands.frame, cands.xy(), local_xy(cands.frame, cset.points),
                             local_xy(cands.frame, cset.ground_truth))
    return out


def check_points(ref: Reference, method: str, start: int, xy: np.ndarray, already_correct: bool) -> str | None:
    """Reason the output fails the check, or None when it passes."""
    if xy.shape != (ref.m, 2):
        return f"{ref.sid}: {len(xy)} output points for {ref.m} collected"
    if not np.all(np.isfinite(xy)):
        return f"{ref.sid}: non-finite output"
    if not 0 <= start <= ref.k - ref.m:
        return f"{ref.sid}: window_start_index {start} outside [0, {ref.k - ref.m}]"
    if already_correct:
        err = np.abs(xy - ref.collected_xy).max()
    elif method in ("ed", "wd"):
        d = np.hypot(xy[:, None, 0] - ref.cand_xy[None, :, 0], xy[:, None, 1] - ref.cand_xy[None, :, 1])
        err = d.min(axis=1).max()
    else:
        err = np.abs(xy - ref.cand_xy[start:start + ref.m]).max()
    if err > GRID_TOL_M:
        return f"{ref.sid}/{method}: output {err:.3g} m off the candidate grid"
    return None


def accuracy(devs: list[np.ndarray]) -> tuple[float, float]:
    """Pooled ACD (m) and segment-averaged AR at TAU_M, as ``spotalign.metrics``."""
    acd = float(sum(d.sum() for d in devs) / sum(d.size for d in devs))
    ar = float(np.mean([(d < TAU_M).mean() for d in devs]))
    return acd, ar


# The machine's speed drifts by 10-20% over tens of seconds (other tenants
# share the cores), more than a run's median can hide.  A fixed loop of plain
# interpreter work, timed between ops, follows that drift (of the kernels
# tried, it tracked cli-io pass times best); each pass's times are scaled to
# the speed at which the loop takes REFERENCE_KERNEL_S.  The loop never calls
# spotalign, so a change to the library cannot move it.
REFERENCE_KERNEL_S = 4e-3
SPEED_SAMPLE_EVERY_S = 0.25


def kernel_s() -> float:
    """Time one run of the fixed calibration loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i
    return time.perf_counter() - t0


class SpeedProbe:
    """Kernel timings taken between the ops of one pass, outside timed code."""

    def __init__(self) -> None:
        self.samples = [kernel_s()]
        self._last = time.perf_counter()

    def between_ops(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= SPEED_SAMPLE_EVERY_S:
            self.samples.append(kernel_s())
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor taking this pass's times to the reference speed."""
        self.between_ops(force=True)
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


@dataclass
class PassResult:
    latencies_s: list[float]        # one per op (segment or CLI command), wall clock
    scale: float                    # SpeedProbe.scale() of this pass
    failures: list[str]             # one reason per failed op
    acd_m: float
    ar: float
    outputs: object                 # compared across passes for identity

    @property
    def scaled_s(self) -> list[float]:
        """Op times at the reference speed."""
        return [x * self.scale for x in self.latencies_s]


class SegmentWorkload:
    """Closed loop of ``spotalign.rectify`` calls, one (segment, method) per op."""

    times_each_segment = True

    def __init__(self, pairs, methods: tuple[str, ...], workdir: Path):
        self.methods = methods
        self.paths = write_dataset(pairs, workdir)
        self.segments_per_pass = len(pairs) * len(methods)

    def load_args(self) -> list[Path]:
        return [self.paths["segments"], self.paths["collected"], self.paths["truth"]]

    def setup(self) -> None:
        self.dataset = load_dataset(*self.load_args())
        self.refs = references(self.dataset)
        self.ops = [(sid, method) for sid in self.dataset.segment_ids() for method in self.methods]

    def shape(self) -> dict:
        refs = self.refs.values()
        return {
            "segments": len(self.refs), "ops_per_pass": len(self.ops),
            "collected_points": sum(r.m for r in refs),
            "candidates": sum(r.k for r in refs),
            "windows": sum(r.k - r.m + 1 for r in refs),
        }

    def run_pass(self, tracer=None) -> PassResult:
        latencies, results = [], []
        probe = SpeedProbe()
        for sid, method in self.ops:
            probe.between_ops()
            cset, seg = self.dataset.collected[sid], self.dataset.segments[sid]
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = spotalign.rectify(cset, seg, method, th=TH_M)
                else:
                    with tracer.span("segment", request=f"{sid}/{method}"):
                        out = spotalign.rectify(cset, seg, method, th=TH_M)
            except Exception as exc:  # one bad segment is a failed op, not a dead run
                out = f"{sid}/{method}: raised {exc!r}"
            latencies.append(time.perf_counter() - t0)
            results.append(out)
        scale = probe.scale()

        failures, devs, outputs = [], [], []
        for (sid, method), out in zip(self.ops, results):
            if isinstance(out, str):
                failures.append(out)
                continue
            ref = self.refs[sid]
            xy = local_xy(ref.frame, out.points)
            reason = check_points(ref, method, out.window_start_index, xy, out.already_correct)
            if reason:
                failures.append(reason)
                continue
            devs.append(np.hypot(*(xy - ref.truth_xy).T))
            outputs.append((sid, method, out.window_start_index, xy.tobytes()))
        acd, ar = accuracy(devs) if devs else (math.nan, math.nan)
        return PassResult(latencies, scale, failures, acd, ar, outputs)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class CliWorkload:
    """``run_cli`` sample, then rectify --method ed, then evaluate, per pass."""

    times_each_segment = False  # only whole commands are observable

    def __init__(self, pairs, workdir: Path):
        self.paths = write_dataset(pairs, workdir)
        self.out = workdir / "out"
        self.segments_per_pass = len(pairs)
        data = ["--segments", str(self.paths["segments"]), "--truth", str(self.paths["truth"]),
                "--out-dir", str(self.out)]
        self.commands = (
            ("sample", ["sample", "--collected", str(self.paths["collected"]), *data]),
            ("rectify", ["rectify", "--method", "ed", "--collected", str(self.paths["collected"]), *data]),
            ("evaluate", ["evaluate", "--method", "ed", "--collected", str(self.out / "rectified.csv"), *data]),
        )

    def load_args(self) -> list[Path]:
        return []  # loading is part of every timed command

    def setup(self) -> None:
        self.refs = references(load_dataset(self.paths["segments"], self.paths["collected"], self.paths["truth"]))

    def shape(self) -> dict:
        refs = self.refs.values()
        return {
            "segments": len(self.refs), "ops_per_pass": len(self.commands),
            "collected_points": sum(r.m for r in refs),
            "candidates": sum(r.k for r in refs),
            "windows": 0,
        }

    def run_pass(self, tracer=None) -> PassResult:
        latencies, failures = [], []
        probe = SpeedProbe()
        for name, argv in self.commands:
            for _ in range(3):
                probe.between_ops(force=True)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    code = cli.run_cli(argv)
                else:
                    with tracer.span(f"cli.{name}", request=name):
                        code = cli.run_cli(argv)
            latencies.append(time.perf_counter() - t0)
            if code != 0:
                failures.append(f"cli {name} exited {code}")
        scale = probe.scale()
        if failures:
            return PassResult(latencies, scale, failures, math.nan, math.nan, None)
        return self._check(latencies, scale)

    def _check(self, latencies, scale) -> PassResult:
        failures = []
        by_sid: dict[str, list[dict]] = {}
        for row in _read_csv(self.out / "candidates.csv"):
            by_sid.setdefault(row["segment_id"], []).append(row)
        for sid, ref in self.refs.items():
            rows = by_sid.get(sid, [])
            xy = local_xy(ref.frame, [GeoPoint(float(r["lat"]), float(r["lon"])) for r in rows])
            if xy.shape != ref.cand_xy.shape or np.abs(xy - ref.cand_xy).max() > GRID_TOL_M:
                failures.append(f"{sid}: candidates.csv differs from the sampled grid")

        by_sid = {}
        for row in _read_csv(self.out / "rectified.csv"):
            by_sid.setdefault(row["segment_id"], []).append(row)
        devs = []
        for sid, ref in self.refs.items():
            rows = by_sid.get(sid, [])
            if [int(r["spot_index"]) for r in rows] != list(range(len(rows))):
                failures.append(f"{sid}: rectified.csv spot indices out of order")
                continue
            xy = local_xy(ref.frame, [GeoPoint(float(r["lat"]), float(r["lon"])) for r in rows])
            start = int(rows[0]["window_start_index"]) if rows else -1
            reason = check_points(ref, "ed", start, xy, False)
            if reason:
                failures.append(reason)
                continue
            devs.append(np.hypot(*(xy - ref.truth_xy).T))

        acd, ar = accuracy(devs) if devs else (math.nan, math.nan)
        evals = {r["segment_class"]: r for r in _read_csv(self.out / "eval.csv")}
        reported = (float(evals["all"]["acd"]), float(evals["all"]["ar"])) if "all" in evals else None
        if reported is None or not np.allclose(reported, (acd, ar), rtol=1e-9, atol=0.0):
            failures.append(f"eval.csv reports {reported}, outputs give {(acd, ar)}")
        digest = hashlib.sha256()
        for name in ("candidates.csv", "rectified.csv", "eval.csv"):
            digest.update((self.out / name).read_bytes())
        return PassResult(latencies, scale, failures, acd, ar, digest.hexdigest())


def build(name: str, seed: int, workdir: Path, *, small: bool = False):
    """Generate the named workload's inputs under ``workdir``.

    ``small`` shrinks the input for a quick self-test; the benchmark never
    sets it.
    """
    if name == "raa-wide":
        return SegmentWorkload(wide_corpus(seed, WIDE_CELLS[:2] if small else WIDE_CELLS), RAA_METHODS, workdir)
    if name == "raa-narrow":
        return SegmentWorkload(narrow_corpus(seed, 4 if small else NARROW_SEGMENTS), RAA_METHODS, workdir)
    if name == "baselines":
        corpus = wide_corpus(seed, WIDE_CELLS[:2], 1) if small else wide_corpus(seed, WIDE_CELLS, BASELINE_COPIES)
        return SegmentWorkload(corpus, BASELINE_METHODS, workdir)
    if name == "cli-io":
        return CliWorkload(cli_corpus(seed, 4 if small else CLI_SEGMENTS_PER_ARM), workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("raa-wide", "raa-narrow", "baselines", "cli-io")
