import numpy as np
import pytest

from spotalign.dataio import (
    Dataset,
    DatasetError,
    RunConfig,
    atomic_write_text,
    load_dataset,
    render_csv,
    save_dataset,
)
from spotalign.pipeline import synth_corpus


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
