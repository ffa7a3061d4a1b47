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
import math
import operator
import os
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .geo import GeoPoint
from .metrics import DEFAULT_RECALL_TOLERANCE_M
from .pipeline import ALL_METHODS, DEFAULT_CORRECTNESS_THRESHOLD_M, RAA, CollectedSet
from .roads import RoadSegment, SpotType
from .solver import SolverConfig

SEGMENT_COLUMNS = ["segment_id", "point_index", "lat", "lon", "is_intersection", "spot_type", "shape_class"]
COLLECTED_COLUMNS = ["segment_id", "spot_index", "lat", "lon"]
# is_intersection values after stripping whitespace; anything else is an error
_INTERSECTION_FLAGS = {"1": True, "true": True, "True": True, "0": False, "false": False, "False": False}


class DatasetError(Exception):
    """A dataset file is missing, malformed, or internally inconsistent."""


@dataclass(frozen=True)
class Dataset:
    """Road segments plus the collected (and optionally ground-truth) spots.

    Each key is its record's id, and each collected set's key names a
    segment: files are written by those ids, so a key that differed would
    load back as another.  Raises ValueError, naming the key, otherwise.
    """

    segments: dict[str, RoadSegment]
    collected: dict[str, CollectedSet]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for sid, seg in self.segments.items():
            if sid != seg.id:
                raise ValueError(f"segments key {sid!r} is not its segment's id {seg.id!r}")
        for sid, cset in self.collected.items():
            if sid != cset.segment_id:
                raise ValueError(f"collected key {sid!r} is not its set's segment_id {cset.segment_id!r}")
            if sid not in self.segments:
                raise ValueError(f"collected key {sid!r} names no segment")

    def segment_ids(self) -> list[str]:
        return sorted(self.segments)


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one rectification / evaluation run."""

    method: str = RAA
    lam: float = SolverConfig.lam
    th: float = DEFAULT_CORRECTNESS_THRESHOLD_M
    tau: float = DEFAULT_RECALL_TOLERANCE_M
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in ALL_METHODS:
            raise ValueError(f"unknown method {self.method!r} (choose from {ALL_METHODS})")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not math.isfinite(self.th):
            raise ValueError("th must be finite")

    def solver_config(self) -> SolverConfig:
        """``lam`` from this run; the penalty schedule and iteration cap keep their defaults."""
        return SolverConfig(lam=self.lam)

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
    for name, columns, rows in (
        ("segments", SEGMENT_COLUMNS, _segment_rows(dataset.segments)),
        ("collected", COLLECTED_COLUMNS, _point_rows(dataset.collected, truth=False)),
        ("truth", COLLECTED_COLUMNS, _point_rows(dataset.collected, truth=True)),
    ):
        if name == "truth" and not rows:
            continue
        path = out_dir / f"{name}.csv"
        atomic_write_text(path, render_csv(f"spotalign {name} {_content_hash(rows)}", columns, rows))
        written[name] = path
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
    if not path.is_file():
        raise DatasetError(f"{'not a file' if path.exists() else 'missing file'}: {path}")
    raw = path.read_bytes()
    # decode the whole file to find a bad byte before any row: with "utf-8" its offset counts from
    # the file's first byte (utf-8-sig counts from after a BOM).  The rows then stream from the
    # bytes; a StringIO of the decoded text would hold 4 bytes per character
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DatasetError(f"{path} line {line}: not UTF-8 text "
                           f"(byte 0x{raw[exc.start]:02x}: {exc.reason})") from None
    comments = 0

    def data_lines():
        nonlocal comments
        for text in io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=""):  # -sig: drop a BOM
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


def _in_index_order(path: Path, sid: str, name: str, by_index: dict[int, tuple]) -> list[tuple]:
    """A segment's entries in index order; the indices must run 0..N-1."""
    try:
        return [by_index[i] for i in range(len(by_index))]
    except KeyError as exc:  # the smallest index absent from 0..N-1
        raise DatasetError(
            f"{path}: segment {sid!r}: {name} must run 0..{len(by_index) - 1}, {exc.args[0]} is missing"
        ) from None


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
        try:
            flag = _INTERSECTION_FLAGS[raw_flag.strip()]
        except KeyError:
            raise DatasetError(f"{path} line {line}: bad is_intersection value {raw_flag!r}") from None
        vertices[idx] = (line, point, flag, spot, shape)

    segments: dict[str, RoadSegment] = {}
    for sid, vertices in grouped.items():
        entries = _in_index_order(path, sid, "point_index", vertices)
        try:  # each distinct raw label once, so differently spelled labels of one type agree
            spot_types = {SpotType.from_label(label) for label in {e[3] for e in entries}}
        except ValueError as exc:
            raise DatasetError(f"{path}: segment {sid!r}: {exc}") from None
        shape_labels = {e[4].strip().lower() for e in entries}
        if len(spot_types) != 1 or len(shape_labels) != 1:
            raise DatasetError(f"{path}: segment {sid!r} has inconsistent spot_type/shape_class rows")
        try:  # RoadSegment rejects an unknown shape_class
            segments[sid] = RoadSegment(
                id=sid,
                polyline=tuple(e[1] for e in entries),
                spot_type=spot_types.pop(),
                shape_class=shape_labels.pop(),
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
    return {
        sid: [point for _, point in _in_index_order(path, sid, "spot_index", spots)]
        for sid, spots in grouped.items()
    }


def load_dataset(segments_path: Path, collected_path: Path, truth_path: Path | None = None) -> Dataset:
    """Load and cross-validate the canonical dataset files.

    Raises :class:`DatasetError` for missing files, malformed rows (with the
    line number), a segment whose point or spot indices are not exactly 0..N-1,
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
        try:  # CollectedSet rejects ground truth whose size disagrees with the points
            collected[sid] = CollectedSet(
                segment_id=sid,
                points=tuple(pts),
                ground_truth=tuple(truth) if truth is not None else None,
            )
        except ValueError as exc:
            raise DatasetError(f"{truth_path}: {exc}") from None
    meta = {"source": str(segments_path)}
    return Dataset(segments=segments, collected=collected, metadata=meta)
