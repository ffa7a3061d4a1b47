"""Dataset files, run configuration, and atomic CSV emission.

The canonical dataset is three CSV files:

  segments.csv   segment_id, point_index, lat, lon, is_intersection,
                 spot_type, shape_class        (one row per polyline vertex)
  collected.csv  segment_id, spot_index, lat, lon
  truth.csv      same schema as collected.csv  (optional)

Every file this library emits starts with one ``#`` metadata comment line
carrying a content or configuration hash; loaders skip comment lines.  All
writes go through a temp-file-and-rename so a crash never leaves a partial
file behind.
"""

from __future__ import annotations

import csv
import hashlib
import io
import operator
import os
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .geo import GeoPoint
from .metrics import DEFAULT_RECALL_TOLERANCE_M
from .pipeline import ALL_METHODS, DEFAULT_CORRECTNESS_THRESHOLD_M, RAA, CollectedSet
from .roads import CURVE, STRAIGHT, RoadSegment, SpotType
from .solver import SolverConfig

SEGMENT_COLUMNS = ["segment_id", "point_index", "lat", "lon", "is_intersection", "spot_type", "shape_class"]
COLLECTED_COLUMNS = ["segment_id", "spot_index", "lat", "lon"]


class DatasetError(Exception):
    """A dataset file is missing, malformed, or internally inconsistent."""


@dataclass(frozen=True)
class Dataset:
    """Road segments plus the collected (and optionally ground-truth) spots."""

    segments: dict[str, RoadSegment]
    collected: dict[str, CollectedSet]
    metadata: dict[str, str] = field(default_factory=dict)

    def segment_ids(self) -> list[str]:
        return sorted(self.segments)


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one rectification / evaluation run."""

    method: str = RAA
    lam: float = SolverConfig.lam
    th: float = DEFAULT_CORRECTNESS_THRESHOLD_M
    tau: float = DEFAULT_RECALL_TOLERANCE_M
    mu0: float = SolverConfig.mu0
    rho: float = SolverConfig.rho
    max_iters: int = SolverConfig.max_iters
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in ALL_METHODS:
            raise ValueError(f"unknown method {self.method!r} (choose from {ALL_METHODS})")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(lam=self.lam, mu0=self.mu0, rho=self.rho, max_iters=self.max_iters)

    def config_hash(self) -> str:
        digest = hashlib.sha256(repr(self).encode("utf-8")).hexdigest()
        return digest[:12]


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

# mkstemp creates owner-only files; outputs get the mode a plain open() gives
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write_text(path: Path, content: str) -> None:
    """Write a whole file via a unique temp sibling and rename; never leaves partials."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def render_csv(meta: str, header: list[str], rows: list[list]) -> str:
    """One metadata comment line, a header row, then the data rows."""
    buf = io.StringIO()
    buf.write(f"# {meta}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)  # csv writes each float as repr() does
    return buf.getvalue()


def _content_hash(rows: list[list]) -> str:
    blob = "\n".join(",".join(str(v) for v in row) for row in rows)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _segment_rows(segments: dict[str, RoadSegment]) -> list[list]:
    rows: list[list] = []
    for sid in sorted(segments):
        seg = segments[sid]
        for i, p in enumerate(seg.polyline):
            rows.append([
                seg.id, i, float(p.lat), float(p.lon),
                1 if i in seg.intersection_indices else 0,
                seg.spot_type.value, seg.shape_class,
            ])
    return rows


def _point_rows(collected: dict[str, CollectedSet], truth: bool) -> list[list]:
    rows: list[list] = []
    for sid in sorted(collected):
        cset = collected[sid]
        points = cset.ground_truth if truth else cset.points
        if points is None:
            continue
        rows.extend([sid, i, float(p.lat), float(p.lon)] for i, p in enumerate(points))
    return rows


def save_dataset(dataset: Dataset, out_dir: Path) -> dict[str, Path]:
    """Write the canonical dataset files; returns the paths written."""
    out_dir = Path(out_dir)
    written: dict[str, Path] = {}

    seg_rows = _segment_rows(dataset.segments)
    path = out_dir / "segments.csv"
    atomic_write_text(path, render_csv(f"spotalign segments {_content_hash(seg_rows)}", SEGMENT_COLUMNS, seg_rows))
    written["segments"] = path

    col_rows = _point_rows(dataset.collected, truth=False)
    path = out_dir / "collected.csv"
    atomic_write_text(path, render_csv(f"spotalign collected {_content_hash(col_rows)}", COLLECTED_COLUMNS, col_rows))
    written["collected"] = path

    truth_rows = _point_rows(dataset.collected, truth=True)
    if truth_rows:
        path = out_dir / "truth.csv"
        atomic_write_text(path, render_csv(f"spotalign truth {_content_hash(truth_rows)}", COLLECTED_COLUMNS, truth_rows))
        written["truth"] = path
    return written


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

def _read_rows(path: Path, expected: list[str]) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield ``(line, fields)`` per data row, ``fields`` in the order of ``expected``.

    ``line`` is the physical line that ends the row, comment lines counted, so
    errors name the line an editor shows.  Blank rows are skipped; when a
    header names a column twice its last occurrence wins; extra columns are
    ignored; a row too short to hold an expected column is rejected.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"missing file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        comments = 0

        def data_lines():
            nonlocal comments
            for text in fh:
                if text.startswith("#"):
                    comments += 1
                else:
                    yield text

        reader = csv.reader(data_lines())
        header = next(reader, None)
        if header is None:
            raise DatasetError(f"{path}: empty file")
        position = {name: i for i, name in enumerate(header)}
        missing = [c for c in expected if c not in position]
        if missing:
            raise DatasetError(f"{path}: missing columns {missing}")
        pick = operator.itemgetter(*(position[c] for c in expected))
        for row in reader:
            if not row:
                continue
            line = reader.line_num + comments
            try:
                fields = pick(row)
            except IndexError:
                short = next(c for c in expected if position[c] >= len(row))
                raise DatasetError(f"{path} line {line}: missing {short} value ({len(row)} fields)") from None
            yield line, fields


def _parse_float(path: Path, line: int, name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DatasetError(f"{path} line {line}: bad {name} value {raw!r}") from None


def _parse_index(path: Path, line: int, name: str, raw: str, seen: dict[int, tuple]) -> int:
    """Parse a row index; ``seen`` maps the segment's indices so far to entries
    whose first item is their line."""
    try:
        value = float(raw)
    except ValueError:
        value = _parse_float(path, line, name, raw)
    if not value.is_integer():
        raise DatasetError(f"{path} line {line}: non-integer {name} value {raw!r}")
    idx = int(value)
    if idx in seen:
        raise DatasetError(f"{path} line {line}: duplicate {name} {idx} (first on line {seen[idx][0]})")
    return idx


def _geo_point(path: Path, line: int, raw_lat: str, raw_lon: str) -> GeoPoint:
    try:
        lat, lon = float(raw_lat), float(raw_lon)
    except ValueError:  # name the field
        lat, lon = _parse_float(path, line, "lat", raw_lat), _parse_float(path, line, "lon", raw_lon)
    try:
        return GeoPoint(lat, lon)
    except ValueError as exc:
        raise DatasetError(f"{path} line {line}: {exc}") from None


def load_segments(path: Path) -> dict[str, RoadSegment]:
    # segment id -> point_index -> (line, point, is_intersection, spot_type, shape_class)
    grouped: dict[str, dict[int, tuple[int, GeoPoint, bool, str, str]]] = {}
    for line, (sid, raw_index, raw_lat, raw_lon, raw_flag, spot, shape) in _read_rows(path, SEGMENT_COLUMNS):
        if not sid:
            raise DatasetError(f"{path} line {line}: empty segment_id")
        vertices = grouped.setdefault(sid, {})
        idx = _parse_index(path, line, "point_index", raw_index, vertices)
        point = _geo_point(path, line, raw_lat, raw_lon)
        vertices[idx] = (line, point, raw_flag.strip() in ("1", "true", "True"), spot, shape)

    segments: dict[str, RoadSegment] = {}
    for sid, vertices in grouped.items():
        entries = [vertices[i] for i in sorted(vertices)]
        spot_labels = {e[3] for e in entries}
        shape_labels = {e[4].strip().lower() for e in entries}
        if len(spot_labels) != 1 or len(shape_labels) != 1:
            raise DatasetError(f"{path}: segment {sid!r} has inconsistent spot_type/shape_class rows")
        shape = shape_labels.pop()
        if shape not in (STRAIGHT, CURVE):
            raise DatasetError(f"{path}: segment {sid!r} has unknown shape_class {shape!r}")
        try:
            spot_type = SpotType.from_label(spot_labels.pop())
        except ValueError as exc:
            raise DatasetError(f"{path}: segment {sid!r}: {exc}") from None
        try:
            segments[sid] = RoadSegment(
                id=sid,
                polyline=tuple(e[1] for e in entries),
                spot_type=spot_type,
                shape_class=shape,
                intersection_indices=frozenset(i for i, e in enumerate(entries) if e[2]),
            )
        except ValueError as exc:
            raise DatasetError(f"{path}: segment {sid!r}: {exc}") from None
    return segments


def load_points(path: Path) -> dict[str, list[GeoPoint]]:
    # segment id -> spot_index -> (line, point)
    grouped: dict[str, dict[int, tuple[int, GeoPoint]]] = {}
    for line, (sid, raw_index, raw_lat, raw_lon) in _read_rows(path, COLLECTED_COLUMNS):
        spots = grouped.setdefault(sid, {})
        idx = _parse_index(path, line, "spot_index", raw_index, spots)
        spots[idx] = (line, _geo_point(path, line, raw_lat, raw_lon))
    points: dict[str, list[GeoPoint]] = {}
    for sid, spots in grouped.items():
        try:
            points[sid] = [spots[i][1] for i in range(len(spots))]
        except KeyError as exc:  # the smallest index absent from 0..M-1
            raise DatasetError(
                f"{path}: segment {sid!r}: spot_index must run 0..{len(spots) - 1}, {exc.args[0]} is missing"
            ) from None
    return points


def load_dataset(segments_path: Path, collected_path: Path, truth_path: Path | None = None) -> Dataset:
    """Load and cross-validate the canonical dataset files.

    Raises :class:`DatasetError` for missing files, malformed rows (with the
    line number), a segment whose spot indices are not exactly 0..M-1,
    collected points referencing unknown segments, or ground truth whose
    size disagrees with the collected set.
    """
    segments = load_segments(segments_path)
    collected_pts = load_points(collected_path)
    truth_pts = load_points(truth_path) if truth_path is not None else {}

    for sid in collected_pts:
        if sid not in segments:
            raise DatasetError(f"{collected_path}: collected points reference unknown segment {sid!r}")
    for sid in truth_pts:
        if sid not in collected_pts:
            raise DatasetError(f"{truth_path}: ground truth references segment {sid!r} with no collected points")

    collected: dict[str, CollectedSet] = {}
    for sid, pts in collected_pts.items():
        truth = truth_pts.get(sid)
        if truth is not None and len(truth) != len(pts):
            raise DatasetError(
                f"segment {sid!r}: ground truth has {len(truth)} points but collected has {len(pts)}"
            )
        collected[sid] = CollectedSet(
            segment_id=sid,
            points=tuple(pts),
            ground_truth=tuple(truth) if truth is not None else None,
        )
    meta = {"source": str(segments_path)}
    return Dataset(segments=segments, collected=collected, metadata=meta)
