import math

import numpy as np
import pytest

from spotalign.dataio import (
    Dataset,
    DatasetError,
    RunConfig,
    atomic_write_text,
    load_dataset,
    load_segments,
    render_csv,
    save_dataset,
)
from spotalign.pipeline import synth_corpus
from spotalign.roads import SpotType


def corpus_dataset(n_straight=2, n_curve=1, seed=8) -> Dataset:
    pairs = synth_corpus(n_straight, n_curve, seed=seed)
    return Dataset(
        segments={s.id: s for s, _ in pairs},
        collected={s.id: c for s, c in pairs},
        metadata={"source": "synth"},
    )


class TestSaveLoad:
    def test_round_trip_values(self, tmp_path):
        ds = corpus_dataset()
        paths = save_dataset(ds, tmp_path)
        loaded = load_dataset(paths["segments"], paths["collected"], paths["truth"])
        assert sorted(loaded.segments) == sorted(ds.segments)
        for sid, seg in ds.segments.items():
            got = loaded.segments[sid]
            assert got.spot_type is seg.spot_type
            assert got.shape_class == seg.shape_class
            assert got.intersection_indices == seg.intersection_indices
            assert all(
                p.lat == q.lat and p.lon == q.lon for p, q in zip(got.polyline, seg.polyline)
            )
        for sid, cset in ds.collected.items():
            got = loaded.collected[sid]
            assert got.points == cset.points
            assert got.ground_truth == cset.ground_truth

    def test_round_trip_byte_identical(self, tmp_path):
        ds = corpus_dataset()
        first = save_dataset(ds, tmp_path / "a")
        loaded = load_dataset(first["segments"], first["collected"], first["truth"])
        second = save_dataset(loaded, tmp_path / "b")
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes(), key

    def test_minimal_dataset(self, tmp_path):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,straight\n"
            "r1,1,0.0,0.001,0,parallel,straight\n"
        )
        col = tmp_path / "collected.csv"
        col.write_text("segment_id,spot_index,lat,lon\nr1,0,0.0,0.0005\n")
        ds = load_dataset(seg, col)
        assert len(ds.segments["r1"].polyline) == 2
        assert len(ds.collected["r1"].points) == 1

    def test_dangling_reference_named(self, tmp_path):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,straight\n"
            "r1,1,0.0,0.001,0,parallel,straight\n"
        )
        col = tmp_path / "collected.csv"
        col.write_text("segment_id,spot_index,lat,lon\nghost,0,0.0,0.0\n")
        with pytest.raises(DatasetError, match="ghost"):
            load_dataset(seg, col)

    def test_malformed_row_reports_line(self, tmp_path):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,straight\n"
            "r1,1,not-a-number,0.001,0,parallel,straight\n"
        )
        col = tmp_path / "collected.csv"
        col.write_text("segment_id,spot_index,lat,lon\n")
        with pytest.raises(DatasetError, match="line 3"):
            load_dataset(seg, col)

    def test_non_integer_index_reports_line(self, tmp_path):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,straight\n"
            "r1,1,0.0,0.001,0,parallel,straight\n"
        )
        col = tmp_path / "collected.csv"
        col.write_text("segment_id,spot_index,lat,lon\nr1,0,0.0,0.0\nr1,1.5,0.0,0.0005\n")
        with pytest.raises(DatasetError, match=r"line 3: non-integer spot_index value '1\.5'"):
            load_dataset(seg, col)

    def test_duplicate_index_reports_line(self, tmp_path):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,straight\n"
            "r1,1,0.0,0.001,0,parallel,straight\n"
        )
        col = tmp_path / "collected.csv"
        col.write_text("segment_id,spot_index,lat,lon\nr1,0,0.0,0.0\nr2,0,0.0,0.0\nr1,0,0.0,0.0005\n")
        with pytest.raises(DatasetError, match="line 4: duplicate spot_index 0 \\(first on line 2\\)"):
            load_dataset(seg, col)

    def test_duplicate_polyline_index_reports_line(self, tmp_path):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,straight\n"
            "r1,1,0.0,0.001,0,parallel,straight\n"
            "r1,1.0,0.0,0.002,0,parallel,straight\n"
        )
        col = tmp_path / "collected.csv"
        col.write_text("segment_id,spot_index,lat,lon\nr1,0,0.0,0.0005\n")
        with pytest.raises(DatasetError, match="line 4: duplicate point_index 1"):
            load_dataset(seg, col)

    def test_comment_line_counted_in_line_numbers(self, tmp_path):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,straight\n"
            "r1,1,0.0,0.001,0,parallel,straight\n"
        )
        col = tmp_path / "collected.csv"
        col.write_text("# spotalign collected 0123456789ab\nsegment_id,spot_index,lat,lon\nr1,0,0.0,0.0\nr1,1,bad,0.0\n")
        with pytest.raises(DatasetError, match="line 4: bad lat value 'bad'"):
            load_dataset(seg, col)

    def test_spot_index_gap_rejected(self, tmp_path):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,straight\n"
            "r1,1,0.0,0.001,0,parallel,straight\n"
        )
        col = tmp_path / "collected.csv"
        col.write_text("segment_id,spot_index,lat,lon\nr1,0,0.0,0.0\nr1,1,0.0,0.0005\nr1,2,0.0,0.001\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("segment_id,spot_index,lat,lon\nr1,0,0.0,0.0\nr1,101,0.0,0.0005\nr1,102,0.0,0.001\n")
        with pytest.raises(DatasetError, match=r"truth\.csv: segment 'r1': spot_index must run 0\.\.2, 1 is missing"):
            load_dataset(seg, col, truth)

    @pytest.mark.parametrize("indices, missing", [((0, 5, 1), 2), ((0, -3, 1), 2)], ids=["gap", "negative"])
    def test_point_index_outside_range_rejected(self, tmp_path, indices, missing):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            + "".join(f"r1,{i},0.0,{0.001 * n},0,parallel,straight\n" for n, i in enumerate(indices))
        )
        col = tmp_path / "collected.csv"
        col.write_text("segment_id,spot_index,lat,lon\nr1,0,0.0,0.0005\n")
        with pytest.raises(
            DatasetError, match=rf"segments\.csv: segment 'r1': point_index must run 0\.\.2, {missing} is missing"
        ):
            load_dataset(seg, col)

    @pytest.mark.parametrize("raw, flagged", [
        ("1", True), ("true", True), ("True", True), (" 1 ", True),
        ("0", False), ("false", False), ("False", False),
    ])
    def test_intersection_flag_values(self, tmp_path, raw, flagged):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,straight\n"
            f"r1,1,0.0,0.001,{raw},parallel,straight\n"
        )
        assert load_segments(seg)["r1"].intersection_indices == ({1} if flagged else set())

    @pytest.mark.parametrize("raw", ["yes", "TRUE", "2", ""])
    def test_bad_intersection_flag_reports_line(self, tmp_path, raw):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,straight\n"
            f"r1,1,0.0,0.001,{raw},parallel,straight\n"
        )
        with pytest.raises(DatasetError, match=f"segments\\.csv line 3: bad is_intersection value '{raw}'$"):
            load_segments(seg)

    def test_spot_type_labels_compared_normalized(self, tmp_path):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,straight\n"
            "r1,1,0.0,0.001,0,Parallel ,Straight\n"
        )
        assert load_segments(seg)["r1"].spot_type is SpotType.PARALLEL

    def test_unknown_shape_class_names_file_and_segment(self, tmp_path):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,winding\n"
            "r1,1,0.0,0.001,0,parallel,Winding\n"
        )
        with pytest.raises(DatasetError, match=r"segments\.csv: segment 'r1': unknown shape class 'winding'$"):
            load_segments(seg)

    def test_short_segments_row_reports_column(self, tmp_path):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "# spotalign segments 0123456789ab\n"
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,straight\n"
            "r1,1,0.0,0.001,0,parallel\n"
        )
        col = tmp_path / "collected.csv"
        col.write_text("segment_id,spot_index,lat,lon\nr1,0,0.0,0.0005\n")
        with pytest.raises(DatasetError, match=r"segments\.csv line 4: missing shape_class value"):
            load_dataset(seg, col)

    def test_short_collected_row_reports_column(self, tmp_path):
        seg = tmp_path / "segments.csv"
        seg.write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r1,0,0.0,0.0,0,parallel,straight\n"
            "r1,1,0.0,0.001,0,parallel,straight\n"
        )
        col = tmp_path / "collected.csv"
        # only required columns count: a row may stop short of an extra one
        col.write_text("segment_id,spot_index,lat,lon,note\nr1,0,0.0,0.0005\nr1,1,0.0\n")
        with pytest.raises(DatasetError, match=r"collected\.csv line 3: missing lon value"):
            load_dataset(seg, col)

    def test_csv_dialect_variants_load_like_plain_form(self, tmp_path):
        plain, variant = tmp_path / "plain", tmp_path / "variant"
        plain.mkdir()
        variant.mkdir()
        (plain / "segments.csv").write_text(
            "segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n"
            "r 1,0,0.0,0.0,1,parallel,straight\n"
            "r 1,1,0.0,0.001,0,parallel,straight\n"
        )
        (variant / "segments.csv").write_bytes(
            b"# spotalign segments 0123456789ab\r\n"
            b"segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class,note\r\n"
            b'"r 1",0,0.0,0.0,1,parallel,straight,"a, b"\r\n'
            b"\r\n"
            b'"r 1",1,"0.0",0.001,0,parallel,straight,x,y\r\n'
        )
        for d in (plain, variant):
            (d / "collected.csv").write_text("segment_id,spot_index,lat,lon\nr 1,0,0.0,0.0005\n")
        a = load_dataset(plain / "segments.csv", plain / "collected.csv")
        b = load_dataset(variant / "segments.csv", variant / "collected.csv")
        assert a.segments == b.segments
        assert a.collected == b.collected

    def test_truth_size_mismatch(self, tmp_path):
        ds = corpus_dataset(1, 0)
        paths = save_dataset(ds, tmp_path)
        truth_lines = paths["truth"].read_text().splitlines()
        paths["truth"].write_text("\n".join(truth_lines[:-1]) + "\n")
        with pytest.raises(DatasetError, match="ground truth"):
            load_dataset(paths["segments"], paths["collected"], paths["truth"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="missing"):
            load_dataset(tmp_path / "nope.csv", tmp_path / "nope2.csv")

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="not a file"):
            load_segments(tmp_path)

    @pytest.mark.parametrize("bad_line", [3, 2000])
    def test_non_utf8_reports_line(self, tmp_path, bad_line):
        # the line is exact even when it lies beyond the text reader's read-ahead
        rows = [f"r1,{i},0.0,{i * 1e-5:.5f},0,parallel,straight\n".encode() for i in range(bad_line)]
        rows[bad_line - 2] = rows[bad_line - 2].replace(b"r1", b"r\xe9", 1)
        seg = tmp_path / "segments.csv"
        seg.write_bytes(b"segment_id,point_index,lat,lon,is_intersection,spot_type,shape_class\n" + b"".join(rows))
        with pytest.raises(DatasetError, match=rf"segments\.csv line {bad_line}: not UTF-8 text \(byte 0xe9"):
            load_segments(seg)

    def test_utf8_bom_ignored(self, tmp_path):
        # spreadsheet exports start files with a byte order mark
        paths = save_dataset(corpus_dataset(), tmp_path / "plain")
        bom = {}
        for name, path in paths.items():
            bom[name] = tmp_path / path.name
            bom[name].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert bom["segments"].read_text(encoding="utf-8").startswith("\ufeff# spotalign segments")
        plain = load_dataset(paths["segments"], paths["collected"], paths["truth"])
        loaded = load_dataset(bom["segments"], bom["collected"], bom["truth"])
        assert loaded.segments == plain.segments and loaded.collected == plain.collected
        # line numbers still count the comment line
        lines = bom["collected"].read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = lines[3].replace(",", ",x", 2)
        bom["collected"].write_text("".join(lines), encoding="utf-8")
        with pytest.raises(DatasetError, match="collected.csv line 4: "):
            load_dataset(bom["segments"], bom["collected"])

    def test_comment_lines_skipped(self, tmp_path):
        ds = corpus_dataset(1, 0)
        paths = save_dataset(ds, tmp_path)
        assert paths["segments"].read_text().startswith("# spotalign segments")
        loaded = load_dataset(paths["segments"], paths["collected"])
        assert sorted(loaded.segments) == sorted(ds.segments)


class TestRenderCsv:
    def test_numpy_floats_written_as_python_floats(self):
        header = ["segment_id", "spot_index", "lat", "lon"]
        rows = [["r1", 0, 0.1, 1 / 3]]
        text = render_csv("meta", header, rows)
        assert render_csv("meta", header, [["r1", np.int64(0), np.float64(0.1), np.float64(1 / 3)]]) == text
        assert text.splitlines()[-1] == "r1,0,0.1,0.3333333333333333"


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.method == "raa"
        assert cfg.lam == 100.0
        assert cfg.tau == 0.5
        solver = cfg.solver_config()
        assert solver.lam == 100.0

    def test_hash_stable_and_sensitive(self):
        assert RunConfig().config_hash() == RunConfig().config_hash()
        assert RunConfig().config_hash() != RunConfig(seed=1).config_hash()

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            RunConfig(method="psychic")

    @pytest.mark.parametrize("kwargs", [
        {"tau": math.nan}, {"tau": math.inf}, {"tau": 0.0},
        {"th": math.nan}, {"th": math.inf}, {"th": -math.inf},
    ], ids=repr)
    def test_non_finite_thresholds_rejected(self, kwargs):
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be"):
            RunConfig(**kwargs)


class TestAtomicWrite:
    def test_existing_tmp_sibling_untouched(self, tmp_path):
        target = tmp_path / "out.csv"
        bystander = tmp_path / "out.csv.tmp"
        bystander.write_text("someone else's file")
        atomic_write_text(target, "a,b\n")
        assert target.read_text() == "a,b\n"
        assert bystander.read_text() == "someone else's file"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]

    def test_failed_write_leaves_no_files(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(target, "lone surrogate \ud800")
        assert list(tmp_path.iterdir()) == []
