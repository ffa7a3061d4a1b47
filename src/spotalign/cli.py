"""Command-line surface: sample, rectify, evaluate, noise, synth, bench, plot.

Each command takes only the flags it reads (one table in :func:`_build_parser`)
and writes fixed-name CSVs (and SVGs for ``plot``) under ``--out-dir``; each
file starts with a metadata comment carrying the config hash, and all writes
are atomic.  ``RAA_LOG`` sets the log level: debug, info, warning, error or critical.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .dataio import (
    Dataset,
    DatasetError,
    RunConfig,
    atomic_write_text,
    load_dataset,
    render_csv,
    save_dataset,
)
from .geo import project_points, unproject_points
from .pipeline import (
    ALL_METHODS,
    Mixed,
    RandomNoise,
    RectifiedSet,
    Rotational,
    Translational,
    synth_corpus,
)
from .roads import EmptyCandidateError, sample_candidates
from .solver import DegenerateGeometryError, NumericalFailureError

LOG_LEVELS = {name: getattr(logging, name) for name in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")}

SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 800.0, 600.0, 40.0
PLOT_STYLE = {
    "collected": ("#2a9d2a", 3.0),
    "candidate": ("#d62728", 2.0),
    "rectified": ("#222222", 3.0),
}


def _load(args) -> Dataset:
    if not (args.segments and args.collected):
        raise DatasetError(f"{args.command} needs --segments and --collected (spotalign synth makes a corpus)")
    return load_dataset(args.segments, args.collected, getattr(args, "truth", None))


def _load_scored(args) -> Dataset:
    """The dataset of a command that scores against ground truth, checked before any work."""
    dataset = _load(args)
    if all(cset.ground_truth is None for cset in dataset.collected.values()):
        raise DatasetError(f"{args.command} needs --truth with rows for the collected segments")
    return dataset


def _run_config(args) -> RunConfig:
    """The command's flags, with defaults for the knobs it does not take."""
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)})


NOISE_KINDS = {
    "translational": lambda args: Translational(args.noise_dx, args.noise_dy),
    "rotational": lambda args: Rotational(math.radians(args.noise_angle)),
    "random": lambda args: RandomNoise(args.noise_bound, args.noise_fraction),
    "mixed": lambda args: Mixed(tuple(
        NOISE_KINDS[kind](args) for kind in ("translational", "rotational", "random")
    )),
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_sample(args) -> int:
    dataset = _load(args)
    rows = bench_mod.candidate_rows(dataset)
    out = Path(args.out_dir) / "candidates.csv"
    atomic_write_text(out, render_csv(
        f"spotalign candidates config={_run_config(args).config_hash()}",
        ["segment_id", "candidate_index", "arclength_m", "lat", "lon"], rows,
    ))
    print(f"wrote {out} ({len(rows)} candidates)")
    return 0


def _cmd_rectify(args) -> int:
    dataset = _load(args)
    cfg = _run_config(args)
    rows: list[list] = []
    for sid, rset in sorted(bench_mod.run_method(dataset, cfg).items()):
        for i, p in enumerate(rset.points):
            rows.append([
                sid, i, float(p.lat), float(p.lon), cfg.method,
                rset.window_start_index, float(rset.loss), int(rset.already_correct),
            ])
    out = Path(args.out_dir) / "rectified.csv"
    atomic_write_text(out, render_csv(
        f"spotalign rectified method={cfg.method} config={cfg.config_hash()}",
        ["segment_id", "spot_index", "lat", "lon", "method", "window_start_index", "loss", "already_correct"],
        rows,
    ))
    print(f"wrote {out} ({len(rows)} points, method={cfg.method})")
    return 0


def _cmd_evaluate(args) -> int:
    dataset = _load_scored(args)
    cfg = _run_config(args)
    # the collected file holds the predictions to score
    rectified = {
        sid: RectifiedSet(cset.points, 0, 0.0)
        for sid, cset in dataset.collected.items()
        if cset.ground_truth is not None
    }
    reports = bench_mod.evaluate_by_class(dataset, rectified, cfg.tau)
    rows = [[cfg.method, cls, float(rep.acd), float(rep.ar)] for cls, rep in sorted(reports.items())]
    out = Path(args.out_dir) / "eval.csv"
    atomic_write_text(out, render_csv(
        f"spotalign eval tau={cfg.tau} correspondence=index config={cfg.config_hash()}",
        ["method", "segment_class", "acd", "ar"], rows,
    ))
    for method, cls, acd_v, ar_v in rows:
        print(f"{method} {cls}: ACD={acd_v:.4f} m, AR={ar_v:.4f}")
    print(f"wrote {out}")
    return 0


def _cmd_noise(args) -> int:
    dataset = _load(args)
    kind = NOISE_KINDS[args.noise_kind](args)
    # where a segment has no ground truth, its clean points become the truth
    clean = {sid: cset if cset.ground_truth is not None else replace(cset, ground_truth=cset.points)
             for sid, cset in dataset.collected.items()}
    noisy = bench_mod.apply_noise(replace(dataset, collected=clean), kind, args.seed)
    out_paths = save_dataset(noisy, Path(args.out_dir))
    print(f"wrote corrupted dataset: {', '.join(str(p) for p in out_paths.values())}")
    return 0


def _cmd_synth(args) -> int:
    pairs = synth_corpus(args.n_straight, args.n_curve, seed=args.seed)
    dataset = Dataset(segments={seg.id: seg for seg, _ in pairs},
                      collected={seg.id: cset for seg, cset in pairs}, metadata={"source": "synth"})
    out_paths = save_dataset(dataset, Path(args.out_dir))
    print(f"wrote synthetic corpus ({len(pairs)} segments): "
          f"{', '.join(str(p) for p in out_paths.values())}")
    return 0


def _cmd_bench(args) -> int:
    dataset = _load_scored(args)
    cfg = _run_config(args)
    bench_rows, robustness_rows = bench_mod.bench_matrix(dataset, cfg)
    out_dir = Path(args.out_dir)

    bench_out = out_dir / "bench.csv"
    atomic_write_text(bench_out, render_csv(
        f"spotalign bench config={cfg.config_hash()} ar_unit=fraction",
        ["run", "method", "lam", "noise", "segment_class", "acd", "ar"],
        [[r["run"], r["method"], float(r["lam"]), r["noise"], r["segment_class"],
          float(r["acd"]), float(r["ar"])] for r in bench_rows],
    ))
    robust_out = out_dir / "robustness.csv"
    atomic_write_text(robust_out, render_csv(
        f"spotalign robustness config={cfg.config_hash()} r_ar_unit=percent",
        ["method", "segment_class", "r_acd", "r_ar"],
        [[r["method"], r["segment_class"], float(r["r_acd"]), float(r["r_ar"])]
         for r in robustness_rows],
    ))
    print(f"wrote {bench_out} ({len(bench_rows)} rows) and {robust_out} ({len(robustness_rows)} rows)")
    return 0


def _svg_transform(xy_all: np.ndarray):
    lo = xy_all.min(axis=0)
    hi = xy_all.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = min(
        (SVG_WIDTH - 2 * SVG_MARGIN) / span[0],
        (SVG_HEIGHT - 2 * SVG_MARGIN) / span[1],
    )
    mid = 0.5 * (lo + hi)

    def to_svg(p):
        x = SVG_WIDTH / 2 + (p[0] - mid[0]) * scale
        y = SVG_HEIGHT / 2 - (p[1] - mid[1]) * scale
        return float(f"{x:.2f}"), float(f"{y:.2f}")

    return to_svg


def _cmd_plot(args) -> int:
    dataset = _load(args)
    for sid in dataset.collected:
        if "/" in sid or "\\" in sid:
            raise DatasetError(f"plot: segment id {sid!r} contains a path separator and cannot name a file")
    cfg = _run_config(args)
    rectified = bench_mod.run_method(dataset, cfg)
    plots_dir = Path(args.out_dir) / "plots"
    for sid, rset in rectified.items():
        cands = sample_candidates(dataset.segments[sid])
        frame = cands.frame
        collected = dataset.collected[sid].points
        # role -> (GeoPoints, local metres), in drawing order
        layers = {
            "candidate": (unproject_points(frame, cands.points), cands.points),
            "collected": (collected, project_points(frame, collected)),
            "rectified": (rset.points, project_points(frame, rset.points)),
        }
        to_svg = _svg_transform(np.vstack([xy for _, xy in layers.values()]))

        rows: list[list] = []
        circles: list[str] = []
        for role, (geo, xy) in layers.items():
            color, radius = PLOT_STYLE[role]
            for i, (p, g) in enumerate(zip(xy, geo)):
                sx, sy = to_svg(p)
                rows.append([sid, role, i, float(g.lat), float(g.lon), float(p[0]), float(p[1]), sx, sy])
                circles.append(
                    f'<circle class="pt" cx="{sx!r}" cy="{sy!r}" r="{radius}" fill="{color}" '
                    f'fill-opacity="0.8"><title>{role} {i}</title></circle>'
                )
        csv_path = plots_dir / f"{sid}.csv"
        atomic_write_text(csv_path, render_csv(
            f"spotalign plot segment={sid} config={cfg.config_hash()}",
            ["segment_id", "role", "index", "lat", "lon", "x_m", "y_m", "svg_x", "svg_y"],
            rows,
        ))
        legend = "".join(
            f'<circle cx="{SVG_MARGIN + 10}" cy="{20 + 18 * i}" r="4" fill="{c}"/>'
            f'<text x="{SVG_MARGIN + 22}" y="{24 + 18 * i}" font-size="12">{role}</text>'
            for i, (role, (c, _)) in enumerate(PLOT_STYLE.items())
        )
        svg = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH:.0f}" '
            f'height="{SVG_HEIGHT:.0f}" viewBox="0 0 {SVG_WIDTH:.0f} {SVG_HEIGHT:.0f}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n'
            f'<text x="{SVG_WIDTH / 2}" y="18" text-anchor="middle" font-size="14">'
            f'segment {sid} ({cfg.method})</text>\n'
            + legend + "\n" + "\n".join(circles) + "\n</svg>\n"
        )
        atomic_write_text(plots_dir / f"{sid}.svg", svg)
    print(f"wrote {len(rectified)} plot pairs under {plots_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """A ``--seed`` value; numpy's generators take no negative seed."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotalign",
        description="Rectify and align roadside parking-spot GPS points to road candidates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = RunConfig()
    flags = {
        "--segments": dict(type=Path, help="segments CSV"),
        "--collected": dict(type=Path, help="collected-points CSV"),
        "--truth": dict(type=Path, help="ground-truth CSV"),
        "--method": dict(default=defaults.method, choices=ALL_METHODS),
        "--lambda": dict(dest="lam", type=float, default=defaults.lam,
                         help=f"rank-1 coupling weight (default {defaults.lam:g})"),
        "--th": dict(type=float, default=defaults.th,
                     help="mean-distance threshold accepting points as already correct"),
        "--tau": dict(type=float, default=defaults.tau, help="recall tolerance in meters"),
        "--seed": dict(type=_seed, default=defaults.seed),
        "--n-straight": dict(type=int, default=6, help="synthetic straight segments"),
        "--n-curve": dict(type=int, default=6, help="synthetic curved segments"),
        "--noise-kind": dict(default="random", choices=list(NOISE_KINDS)),
        "--noise-bound": dict(type=float, default=20.0, help="random displacement bound in meters"),
        "--noise-fraction": dict(type=float, default=1.0,
                                 help="fraction of points displaced by random noise"),
        "--noise-dx": dict(type=float, default=0.0, help="translation east, meters"),
        "--noise-dy": dict(type=float, default=0.0, help="translation north, meters"),
        "--noise-angle": dict(type=float, default=0.0, help="rotation in degrees"),
        "--out-dir": dict(type=Path, default=Path("out")),
    }
    data = "--segments --collected --truth"
    solver = "--lambda --th"
    for name, fn, doc, takes in (
        ("sample", _cmd_sample, "emit candidate locations for every segment", data),
        ("rectify", _cmd_rectify, "rectify collected points with the chosen method",
         f"{data} --method {solver}"),
        ("evaluate", _cmd_evaluate, "score predictions (in --collected) against --truth",
         "--segments --collected --truth --method --tau"),
        ("noise", _cmd_noise, "emit a noise-corrupted copy of the dataset",
         f"{data} --seed --noise-kind --noise-bound --noise-fraction --noise-dx --noise-dy --noise-angle"),
        ("synth", _cmd_synth, "emit a synthetic corpus", "--seed --n-straight --n-curve"),
        ("bench", _cmd_bench, "full method/noise matrix plus coupling-weight sweep",
         f"{data} {solver} --tau --seed"),
        ("plot", _cmd_plot, "emit per-segment SVG + CSV scatter plots",
         f"--segments --collected --method {solver}"),
    ):
        p = sub.add_parser(name, help=doc)
        takes = {*takes.split(), "--out-dir"}
        for flag, spec in flags.items():
            if flag in takes:
                p.add_argument(flag, **spec)
        p.set_defaults(func=fn)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit status."""
    level = os.environ.get("RAA_LOG") or "WARNING"  # unset or empty: the default
    if level.upper() not in LOG_LEVELS:
        print(f"error: RAA_LOG must be debug, info, warning, error or critical, got {level!r}", file=sys.stderr)
        return 2
    # basicConfig only adds a handler when the root logger has none; the level
    # goes on the package logger, so every call applies its own RAA_LOG
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("spotalign").setLevel(LOG_LEVELS[level.upper()])
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DatasetError, EmptyCandidateError, DegenerateGeometryError, NumericalFailureError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
