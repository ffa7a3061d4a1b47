import csv
import logging
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import spotalign.bench
from spotalign.cli import _build_parser, run_cli
from spotalign.dataio import Dataset, RunConfig, load_dataset, save_dataset
from spotalign.geo import unproject_points
from spotalign.pipeline import CollectedSet
from spotalign.roads import sample_candidates

from conftest import straight_segment


def read_csv(path: Path):
    with path.open() as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return rows


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    assert run_cli(["synth", "--n-straight", "2", "--n-curve", "1", "--seed", "13",
                    "--out-dir", str(out)]) == 0
    return out


class TestSynthAndSample:
    def test_synth_emits_three_files(self, small_dataset):
        for name in ("segments.csv", "collected.csv", "truth.csv"):
            assert (small_dataset / name).exists()

    def test_sample_candidates_csv(self, small_dataset, tmp_path):
        code = run_cli([
            "sample", "--segments", str(small_dataset / "segments.csv"),
            "--collected", str(small_dataset / "collected.csv"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        rows = read_csv(tmp_path / "candidates.csv")
        assert {"segment_id", "candidate_index", "arclength_m", "lat", "lon"} <= set(rows[0])
        arclengths = [float(r["arclength_m"]) for r in rows if r["segment_id"] == rows[0]["segment_id"]]
        assert arclengths == sorted(arclengths)


class TestRectifyEvaluate:
    def test_perfect_predictions_score_perfectly(self, small_dataset, tmp_path):
        code = run_cli([
            "evaluate", "--segments", str(small_dataset / "segments.csv"),
            "--collected", str(small_dataset / "truth.csv"),
            "--truth", str(small_dataset / "truth.csv"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        rows = read_csv(tmp_path / "eval.csv")
        assert rows
        for row in rows:
            assert float(row["acd"]) == 0.0
            assert float(row["ar"]) == 1.0

    def test_evaluate_projects_each_segment_once(self, small_dataset, tmp_path, monkeypatch):
        # "all" and the segment's shape class share one projection of each side
        projected = []
        original = spotalign.bench.project_points
        monkeypatch.setattr(spotalign.bench, "project_points",
                            lambda frame, pts: projected.append(frame) or original(frame, pts))
        truth = str(small_dataset / "truth.csv")
        assert run_cli(["evaluate", "--segments", str(small_dataset / "segments.csv"),
                        "--collected", truth, "--truth", truth, "--out-dir", str(tmp_path)]) == 0
        segment_ids = {row["segment_id"] for row in read_csv(small_dataset / "truth.csv")}
        assert segment_ids and len(projected) == 2 * len(segment_ids)

    def test_rectify_then_evaluate(self, small_dataset, tmp_path):
        assert run_cli([
            "rectify", "--segments", str(small_dataset / "segments.csv"),
            "--collected", str(small_dataset / "collected.csv"),
            "--method", "raa", "--th", "1", "--out-dir", str(tmp_path),
        ]) == 0
        rect = tmp_path / "rectified.csv"
        rows = read_csv(rect)
        assert {"segment_id", "spot_index", "lat", "lon", "method", "window_start_index", "loss"} <= set(rows[0])
        assert run_cli([
            "evaluate", "--segments", str(small_dataset / "segments.csv"),
            "--collected", str(rect),
            "--truth", str(small_dataset / "truth.csv"),
            "--out-dir", str(tmp_path),
        ]) == 0
        eval_rows = read_csv(tmp_path / "eval.csv")
        all_row = next(r for r in eval_rows if r["segment_class"] == "all")
        assert float(all_row["acd"]) < 2.0

    def test_missing_inputs_fail_cleanly(self, tmp_path, capsys):
        assert run_cli(["evaluate", "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_directory_input_fails_cleanly(self, small_dataset, tmp_path, capsys):
        assert run_cli(["rectify", "--segments", str(tmp_path), "--collected",
                        str(small_dataset / "collected.csv"), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: not a file: {tmp_path}\n"

    def test_out_dir_below_a_file_fails_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "segments.csv"
        blocker.write_text("")
        assert run_cli(["synth", "--n-straight", "1", "--n-curve", "0",
                        "--out-dir", str(blocker / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err and "Traceback" not in err

    def test_non_utf8_input_names_file_and_line(self, small_dataset, tmp_path, capsys):
        collected = tmp_path / "collected.csv"
        lines = (small_dataset / "collected.csv").read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b",", b"\xe9,", 1)  # a Latin-1 e-acute in a segment id
        collected.write_bytes(b"".join(lines))
        assert run_cli(["rectify", "--segments", str(small_dataset / "segments.csv"),
                        "--collected", str(collected), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {collected} line 3: not UTF-8 text (byte 0xe9")

    @pytest.mark.parametrize("command, flags", [
        pytest.param(command, flags, id=f"{command}-{' '.join(flags) or 'none'}")
        for command in ("sample", "rectify", "evaluate", "noise", "bench", "plot")
        for flags in ([], ["--collected"], ["--truth"], ["--collected", "--truth"])
        if command != "plot" or "--truth" not in flags  # plot takes no --truth
    ])
    def test_dataset_files_need_segments(self, tmp_path, capsys, command, flags):
        # no fallback to a synthetic corpus: spotalign synth makes one
        argv = [command, "--out-dir", str(tmp_path / "out")]
        for flag in flags:
            argv += [flag, str(tmp_path / "nonexistent.csv")]
        assert run_cli(argv) == 1
        assert "--segments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bench_without_truth_fails_before_rectifying(self, small_dataset, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(spotalign.bench, "run_method", lambda *a: pytest.fail("bench rectified"))
        assert run_cli(["bench", "--segments", str(small_dataset / "segments.csv"),
                        "--collected", str(small_dataset / "collected.csv"),
                        "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: bench needs --truth with rows for the collected segments\n"
        assert not (tmp_path / "out").exists()

    def test_evaluate_with_empty_truth_fails(self, small_dataset, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("segment_id,spot_index,lat,lon\n")
        assert run_cli(["evaluate", "--segments", str(small_dataset / "segments.csv"),
                        "--collected", str(small_dataset / "truth.csv"), "--truth", str(truth),
                        "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: evaluate needs --truth with rows for the collected segments\n"
        assert not (tmp_path / "out").exists()

    def test_non_finite_tau_rejected(self, small_dataset, tmp_path, capsys):
        assert run_cli([
            "evaluate", "--segments", str(small_dataset / "segments.csv"),
            "--collected", str(small_dataset / "truth.csv"),
            "--truth", str(small_dataset / "truth.csv"),
            "--tau", "nan", "--out-dir", str(tmp_path),
        ]) == 1
        assert "tau must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("method, n_points, message", [
        ("cd", 10, "segment 'short': 5 candidates cannot host 10 collected points"),
        ("ha", 10, "segment 'short': 5 candidates cannot host 10 collected points"),
        ("raa", 1, "segment 'short': RAA needs at least 2 collected points, got 1"),
    ], ids=["cd", "ha", "raa"])
    def test_size_errors_name_the_segment(self, tmp_path, capsys, method, n_points, message):
        seg = straight_segment(4 * 6.0, seg_id="short")
        xy = np.column_stack([np.arange(n_points) * 6.0, np.full(n_points, 30.0)])
        points = tuple(unproject_points(sample_candidates(seg).frame, xy))
        save_dataset(Dataset({"short": seg}, {"short": CollectedSet("short", points)}), tmp_path)
        assert run_cli([
            "rectify", "--segments", str(tmp_path / "segments.csv"),
            "--collected", str(tmp_path / "collected.csv"),
            "--method", method, "--th", "1", "--out-dir", str(tmp_path / "out"),
        ]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_planted_window_corpus_recovered(self, tmp_path):
        # synth -> jitter the ground truth -> rectify -> the snapped output
        # reproduces the truth exactly on at least 95% of segments
        ds = tmp_path / "ds"
        assert run_cli(["synth", "--n-straight", "3", "--n-curve", "3", "--seed", "31",
                        "--out-dir", str(ds)]) == 0
        jittered = tmp_path / "jittered"
        assert run_cli([
            "noise", "--segments", str(ds / "segments.csv"),
            "--collected", str(ds / "truth.csv"),
            "--noise-kind", "random", "--noise-bound", "2", "--noise-fraction", "1.0",
            "--seed", "5", "--out-dir", str(jittered),
        ]) == 0
        out = tmp_path / "out"
        assert run_cli([
            "rectify", "--segments", str(ds / "segments.csv"),
            "--collected", str(jittered / "collected.csv"),
            "--method", "raa", "--th", "0.5", "--out-dir", str(out),
        ]) == 0

        truth_rows = read_csv(jittered / "truth.csv")
        rect_rows = read_csv(out / "rectified.csv")
        truth = {(r["segment_id"], r["spot_index"]): (r["lat"], r["lon"]) for r in truth_rows}
        exact_by_segment: dict[str, bool] = {}
        for r in rect_rows:
            key = (r["segment_id"], r["spot_index"])
            same = truth[key] == (r["lat"], r["lon"])
            exact_by_segment[r["segment_id"]] = exact_by_segment.get(r["segment_id"], True) and same
        fraction = sum(exact_by_segment.values()) / len(exact_by_segment)
        assert fraction >= 0.95


class TestNoise:
    def test_noise_emits_corrupted_dataset(self, small_dataset, tmp_path):
        code = run_cli([
            "noise", "--segments", str(small_dataset / "segments.csv"),
            "--collected", str(small_dataset / "truth.csv"),
            "--noise-kind", "random", "--noise-bound", "5", "--noise-fraction", "1.0",
            "--seed", "3", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        original = read_csv(small_dataset / "truth.csv")
        corrupted = read_csv(tmp_path / "collected.csv")
        assert len(original) == len(corrupted)
        moved = sum(
            1 for a, b in zip(original, corrupted)
            if (a["lat"], a["lon"]) != (b["lat"], b["lon"])
        )
        assert moved == len(original)
        # original points become the ground truth of the corrupted dataset
        truth_rows = read_csv(tmp_path / "truth.csv")
        assert [(r["lat"], r["lon"]) for r in truth_rows] == [(r["lat"], r["lon"]) for r in original]

    def test_equal_size_segments_move_differently(self, tmp_path):
        # two copies of one segment under different ids: the same --seed must
        # still give each its own displacements
        segments = {sid: straight_segment(120.0, seg_id=sid) for sid in ("a", "b")}
        xy = np.column_stack([np.arange(10) * 6.0 + 3.0, np.full(10, 4.0)])
        points = tuple(unproject_points(sample_candidates(segments["a"]).frame, xy))
        save_dataset(Dataset(segments, {sid: CollectedSet(sid, points) for sid in segments}), tmp_path)
        assert run_cli(["noise", "--segments", str(tmp_path / "segments.csv"),
                        "--collected", str(tmp_path / "collected.csv"),
                        "--noise-kind", "random", "--noise-bound", "20", "--noise-fraction", "1",
                        "--seed", "4", "--out-dir", str(tmp_path / "noisy")]) == 0
        moved = {sid: [] for sid in segments}
        for row in read_csv(tmp_path / "noisy" / "collected.csv"):
            moved[row["segment_id"]].append((row["lat"], row["lon"]))
        assert len(moved["a"]) == len(moved["b"]) == 10
        assert moved["a"] != moved["b"]

    def test_random_noise_is_the_bench_noise_arm(self, small_dataset, tmp_path):
        data = [str(small_dataset / "segments.csv"), str(small_dataset / "collected.csv")]
        assert run_cli(["noise", "--segments", data[0], "--collected", data[1],
                        "--noise-kind", "random", "--noise-bound", "20", "--noise-fraction", "1",
                        "--seed", "11", "--out-dir", str(tmp_path)]) == 0
        arm = spotalign.bench.apply_noise_arm(load_dataset(*data), 11)
        want = [(sid, i, p.lat, p.lon) for sid, cset in sorted(arm.collected.items())
                for i, p in enumerate(cset.points)]
        got = [(r["segment_id"], int(r["spot_index"]), float(r["lat"]), float(r["lon"]))
               for r in read_csv(tmp_path / "collected.csv")]
        assert got == want

    def test_unknown_kind_rejected(self, small_dataset, tmp_path, capsys):
        code = run_cli([
            "noise", "--segments", str(small_dataset / "segments.csv"),
            "--collected", str(small_dataset / "collected.csv"),
            "--noise-kind", "gremlins", "--out-dir", str(tmp_path),
        ])
        assert code == 2  # argparse rejects the choice

    @pytest.mark.parametrize("flags, message", [
        (["--noise-bound", "nan"], "noise bound must be non-negative and finite"),
        (["--noise-bound", "inf"], "noise bound must be non-negative and finite"),
        (["--noise-kind", "translational", "--noise-dx", "inf"], "translational noise dx must be finite"),
        (["--noise-kind", "translational", "--noise-dy", "nan"], "translational noise dy must be finite"),
        (["--noise-kind", "rotational", "--noise-angle=-inf"], "rotational noise angle must be finite"),
        (["--noise-kind", "mixed", "--noise-angle", "nan"], "rotational noise angle must be finite"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_non_finite_parameters_rejected(self, small_dataset, tmp_path, capsys, flags, message):
        code = run_cli([
            "noise", "--segments", str(small_dataset / "segments.csv"),
            "--collected", str(small_dataset / "collected.csv"),
            *flags, "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestPlot:
    def test_svg_matches_csv_coordinates(self, small_dataset, tmp_path):
        code = run_cli([
            "plot", "--segments", str(small_dataset / "segments.csv"),
            "--collected", str(small_dataset / "collected.csv"),
            "--method", "ed", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        plots = sorted((tmp_path / "plots").glob("*.svg"))
        assert plots
        for svg_path in plots:
            csv_path = svg_path.with_suffix(".csv")
            rows = read_csv(csv_path)
            svg = svg_path.read_text()
            circle_coords = re.findall(r'<circle class="pt" cx="([-\d.]+)" cy="([-\d.]+)"', svg)
            got = [(cx, cy) for cx, cy in circle_coords]
            want = [(r["svg_x"], r["svg_y"]) for r in rows]
            assert got == want

    def test_csv_holds_candidate_collected_and_rectified_layers(self, small_dataset, tmp_path):
        data = ["--segments", str(small_dataset / "segments.csv"),
                "--collected", str(small_dataset / "collected.csv")]
        assert run_cli(["sample", *data, "--out-dir", str(tmp_path / "sample")]) == 0
        assert run_cli(["rectify", *data, "--method", "ha", "--th", "1", "--out-dir", str(tmp_path / "rectify")]) == 0
        assert run_cli(["plot", *data, "--method", "ha", "--th", "1", "--out-dir", str(tmp_path / "plot")]) == 0
        layers = {
            "candidate": read_csv(tmp_path / "sample" / "candidates.csv"),
            "collected": read_csv(small_dataset / "collected.csv"),
            "rectified": read_csv(tmp_path / "rectify" / "rectified.csv"),
        }
        sids = sorted({row["segment_id"] for row in layers["collected"]})
        assert sorted(p.stem for p in (tmp_path / "plot" / "plots").glob("*.csv")) == sids
        for sid in sids:
            got = [(r["segment_id"], r["role"], int(r["index"]), r["lat"], r["lon"])
                   for r in read_csv(tmp_path / "plot" / "plots" / f"{sid}.csv")]
            want = [(sid, role, i, r["lat"], r["lon"]) for role, rows in layers.items()
                    for i, r in enumerate(r for r in rows if r["segment_id"] == sid)]
            assert got == want

    @pytest.mark.parametrize("sid", ["../../escaped", "a/b", "a\\b"])
    def test_segment_id_with_path_separator_rejected(self, tmp_path, capsys, sid):
        seg = straight_segment(120.0, seg_id=sid)
        xy = np.column_stack([np.arange(10) * 6.0 + 3.0, np.zeros(10)])
        points = tuple(unproject_points(sample_candidates(seg).frame, xy))
        save_dataset(Dataset({sid: seg}, {sid: CollectedSet(sid, points)}), tmp_path / "ds")
        assert run_cli(["plot", "--segments", str(tmp_path / "ds" / "segments.csv"),
                        "--collected", str(tmp_path / "ds" / "collected.csv"),
                        "--method", "ed", "--out-dir", str(tmp_path / "out" / "run")]) == 1
        assert capsys.readouterr().err == (
            f"error: plot: segment id {sid!r} contains a path separator and cannot name a file\n")
        assert not (tmp_path / "out").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


class TestLogLevel:
    @pytest.mark.parametrize("value", ["bogus", "basic_format", "warn"])
    def test_unknown_level_rejected(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("RAA_LOG", value)
        assert run_cli(["synth", "--n-straight", "1", "--n-curve", "0", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: RAA_LOG ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["debug", "Info", "WARNING", "error", "critical", ""])
    def test_standard_levels_accepted_in_any_case(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("RAA_LOG", value)
        assert run_cli(["synth", "--n-straight", "1", "--n-curve", "0", "--out-dir", str(tmp_path)]) == 0


    def test_each_call_applies_its_own_level(self, tmp_path, monkeypatch):
        logger = logging.getLogger("spotalign")
        before = logger.level
        argv = ["synth", "--n-straight", "1", "--n-curve", "0", "--out-dir", str(tmp_path)]
        try:
            for value, level in (("error", logging.ERROR), ("debug", logging.DEBUG)):
                monkeypatch.setenv("RAA_LOG", value)
                assert run_cli(argv) == 0
                assert logger.getEffectiveLevel() == level
        finally:
            logger.setLevel(before)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, small_dataset, tmp_path):
        args = [
            "rectify", "--segments", str(small_dataset / "segments.csv"),
            "--collected", str(small_dataset / "collected.csv"),
            "--method", "raa", "--th", "1",
        ]
        assert run_cli(args + ["--out-dir", str(tmp_path / "one")]) == 0
        assert run_cli(args + ["--out-dir", str(tmp_path / "two")]) == 0
        a = (tmp_path / "one" / "rectified.csv").read_bytes()
        b = (tmp_path / "two" / "rectified.csv").read_bytes()
        assert a == b


DATA = {"--segments", "--collected", "--truth", "--out-dir"}
SOLVER = {"--method", "--lambda", "--th"}
NOISE = {"--noise-kind", "--noise-bound", "--noise-fraction", "--noise-dx", "--noise-dy", "--noise-angle"}
TAKES = {
    "synth": {"--seed", "--n-straight", "--n-curve", "--out-dir"},
    "sample": DATA,
    "evaluate": DATA | {"--method", "--tau"},
    "rectify": DATA | SOLVER,
    "noise": DATA | NOISE | {"--seed"},
    "bench": DATA | (SOLVER - {"--method"}) | {"--tau", "--seed"},
    "plot": DATA - {"--truth"} | SOLVER,
}


class TestFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        subparsers = next(a for a in _build_parser()._actions if isinstance(a.choices, dict))
        takes = {
            name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, p in subparsers.choices.items()
        }
        assert takes == TAKES
        assert sum(map(len, takes.values())) == 46

    @pytest.mark.parametrize("command, flag", [
        ("synth", ["--method", "raa"]),
        ("sample", ["--lambda", "10"]),
        ("evaluate", ["--n-straight", "2"]),
        ("rectify", ["--tau", "1"]),
        ("noise", ["--th", "1"]),
        ("bench", ["--method", "ed"]),
        ("plot", ["--tau", "1"]),
        ("plot", ["--truth", "truth.csv"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_flag_not_taken_rejected(self, tmp_path, capsys, command, flag):
        assert run_cli([command, *flag, "--out-dir", str(tmp_path)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synth", "noise", "bench"])
    def test_negative_seed_rejected_before_any_work(self, small_dataset, tmp_path, capsys, command):
        data = [] if command == "synth" else [
            arg for name in ("segments", "collected", "truth")
            for arg in (f"--{name}", str(small_dataset / f"{name}.csv"))
        ]
        out = tmp_path / "out"
        assert run_cli([command, *data, "--seed", "-1", "--out-dir", str(out)]) == 2
        assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_header_hashes_defaults_for_flags_not_taken(self, small_dataset, tmp_path):
        data = ["--segments", str(small_dataset / "segments.csv"), "--truth", str(small_dataset / "truth.csv")]
        assert run_cli(["sample", *data, "--collected", str(small_dataset / "collected.csv"),
                        "--out-dir", str(tmp_path)]) == 0
        assert run_cli(["evaluate", *data, "--collected", str(small_dataset / "truth.csv"),
                        "--method", "ed", "--tau", "2", "--out-dir", str(tmp_path)]) == 0
        header = (tmp_path / "candidates.csv").read_text().splitlines()[0]
        assert header == f"# spotalign candidates config={RunConfig().config_hash()}"
        header = (tmp_path / "eval.csv").read_text().splitlines()[0]
        cfg = RunConfig(method="ed", tau=2.0)
        assert header == f"# spotalign eval tau=2.0 correspondence=index config={cfg.config_hash()}"


def readme_command_lines() -> list[list[str]]:
    """Each ``spotalign ...`` line of README's command-line block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("spotalign ")]


@pytest.mark.parametrize("argv", readme_command_lines(), ids=lambda argv: argv[0])
def test_readme_command_line_parses(argv):
    _build_parser().parse_args(argv)
