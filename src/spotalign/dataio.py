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
import os
import tempfile
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
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
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

def _read_rows(path: Path, expected: list[str]) -> list[tuple[int, dict[str, str]]]:
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"missing file: {path}")
    rows: list[tuple[int, dict[str, str]]] = []
    # file_lines[n - 1] is the physical line number of the n-th non-comment
    # line, so errors name the line an editor shows
    file_lines: list[int] = []
    with path.open(newline="", encoding="utf-8") as fh:
        def data_lines():
            for number, line in enumerate(fh, start=1):
                if not line.startswith("#"):
                    file_lines.append(number)
                    yield line

        reader = csv.DictReader(data_lines())
        if reader.fieldnames is None:
            raise DatasetError(f"{path}: empty file")
        missing = [c for c in expected if c not in reader.fieldnames]
        if missing:
            raise DatasetError(f"{path}: missing columns {missing}")
        for record in reader:
            rows.append((file_lines[reader.line_num - 1], record))
    return rows


def _parse_float(path: Path, line: int, name: str, raw: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise DatasetError(f"{path} line {line}: bad {name} value {raw!r}") from None


def _parse_index(path: Path, line: int, name: str, raw: str, seen: dict[int, int]) -> int:
    """Parse a row index; ``seen`` maps the segment's indices so far to their lines."""
    value = _parse_float(path, line, name, raw)
    if not value.is_integer():
        raise DatasetError(f"{path} line {line}: non-integer {name} value {raw!r}")
    idx = int(value)
    if idx in seen:
        raise DatasetError(f"{path} line {line}: duplicate {name} {idx} (first on line {seen[idx]})")
    seen[idx] = line
    return idx


def load_segments(path: Path) -> dict[str, RoadSegment]:
    grouped: dict[str, list[tuple[int, int, GeoPoint, bool, str, str]]] = {}
    seen: dict[str, dict[int, int]] = {}
    for line, rec in _read_rows(path, SEGMENT_COLUMNS):
        sid = rec["segment_id"]
        if not sid:
            raise DatasetError(f"{path} line {line}: empty segment_id")
        idx = _parse_index(path, line, "point_index", rec["point_index"], seen.setdefault(sid, {}))
        try:
            point = GeoPoint(
                _parse_float(path, line, "lat", rec["lat"]),
                _parse_float(path, line, "lon", rec["lon"]),
            )
        except ValueError as exc:
            raise DatasetError(f"{path} line {line}: {exc}") from None
        flag = rec["is_intersection"].strip() in ("1", "true", "True")
        grouped.setdefault(sid, []).append((idx, line, point, flag, rec["spot_type"], rec["shape_class"]))

    segments: dict[str, RoadSegment] = {}
    for sid, entries in grouped.items():
        entries.sort(key=lambda e: e[0])
        spot_labels = {e[4] for e in entries}
        shape_labels = {e[5].strip().lower() for e in entries}
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
                polyline=tuple(e[2] for e in entries),
                spot_type=spot_type,
                shape_class=shape,
                intersection_indices=frozenset(i for i, e in enumerate(entries) if e[3]),
            )
        except ValueError as exc:
            raise DatasetError(f"{path}: segment {sid!r}: {exc}") from None
    return segments


def load_points(path: Path) -> dict[str, list[GeoPoint]]:
    grouped: dict[str, list[tuple[int, GeoPoint]]] = {}
    seen: dict[str, dict[int, int]] = {}
    for line, rec in _read_rows(path, COLLECTED_COLUMNS):
        sid = rec["segment_id"]
        idx = _parse_index(path, line, "spot_index", rec["spot_index"], seen.setdefault(sid, {}))
        try:
            point = GeoPoint(
                _parse_float(path, line, "lat", rec["lat"]),
                _parse_float(path, line, "lon", rec["lon"]),
            )
        except ValueError as exc:
            raise DatasetError(f"{path} line {line}: {exc}") from None
        grouped.setdefault(sid, []).append((idx, point))
    for sid, indices in seen.items():
        missing = set(range(len(indices))) - indices.keys()
        if missing:
            raise DatasetError(
                f"{path}: segment {sid!r}: spot_index must run 0..{len(indices) - 1}, {min(missing)} is missing"
            )
    return {
        sid: [p for _, p in sorted(entries, key=lambda e: e[0])]
        for sid, entries in grouped.items()
    }


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
