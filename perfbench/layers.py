"""Per-layer metrics computed from the spans of a traced run.

Counts (``*.calls``, ``*.calls_per_solve``, ``windows_per_segment``,
``sweeps_*``, ``bytes_written``) are per pass and must repeat exactly in
every traced pass.  Times pool every traced pass; a layer that did no work
on a workload reports 0.  ``layers.json`` maps each metric to the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

PER_LAYER = {
    "solver.admm_solve.calls": "count",
    "solver.admm_solve.ms_p50": "ms",
    "solver.admm_solve.ms_p90": "ms",
    "solver.sweeps_p50": "count",
    "solver.sweeps_max": "count",
    "solver.us_per_sweep": "us",
    "solver.unconverged_frac": "fraction",
    "solver.search_share": "fraction",
    "rigid.warp_values.calls_per_solve": "count",
    "rigid.jacobian_values.calls_per_solve": "count",
    "roads.sample_candidates.calls": "count",
    "roads.sample_candidates.ms_p50": "ms",
    "roads.candidates_per_segment": "count",
    "geo.project_points.us_per_point": "us",
    "geo.unproject_points.us_per_point": "us",
    "geo.project_points.calls": "count",
    "pipeline.raa_rectify.ms_p50": "ms",
    "pipeline.windows_per_segment": "count",
    "pipeline.already_correct_frac": "fraction",
    "matchers.baseline_rectify.ed.ms_p50": "ms",
    "matchers.baseline_rectify.cd.ms_p50": "ms",
    "matchers.baseline_rectify.ha.ms_p50": "ms",
    "matchers.baseline_rectify.wd.ms_p50": "ms",
    "matchers.linear_sum_assignment.calls": "count",
    "matchers.linprog.ms_p50": "ms",
    "dataio.load_dataset.ms": "ms",
    "dataio.load_dataset.rows_per_s": "1/s",
    "dataio.render_csv.ms": "ms",
    "dataio.atomic_write_text.ms": "ms",
    "dataio.bytes_written": "B",
    "metrics.evaluate_segments.ms": "ms",
    "bench.evaluate_by_class.ms": "ms",
    "bench.candidate_rows.ms": "ms",
    "bench.run_method.s": "s",
    "cli.sample.ms": "ms",
    "cli.rectify.ms": "ms",
    "cli.evaluate.ms": "ms",
    "trace.overhead_frac": "fraction",
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10)[8]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except the overhead, as {name: (value, unit)}."""
    timed = defaultdict(list)   # every traced call, including the set-up load
    first = defaultdict(list)   # calls of the first traced pass, for counts
    for s in spans:
        timed[s.name].append(s)
        if s.pass_index == 0:
            first[s.name].append(s)

    def ms(name):
        return [s.dur_s * 1e3 for s in timed[name]]

    solves = [s for s in timed["solver.admm_solve"] if s.info is not None]
    sweeps = [s.info[0] for s in first["solver.admm_solve"] if s.info is not None]
    n_solves = len(first["solver.admm_solve"])
    raa = [s for s in first["pipeline.raa_rectify"] if s.info is not None]
    loads = timed["dataio.load_dataset"]
    values = {
        "solver.admm_solve.calls": n_solves,
        "solver.admm_solve.ms_p50": _median(ms("solver.admm_solve")),
        "solver.admm_solve.ms_p90": _p90(ms("solver.admm_solve")),
        "solver.sweeps_p50": _median(sweeps),
        "solver.sweeps_max": max(sweeps, default=0),
        "solver.us_per_sweep": _ratio(sum(s.dur_s for s in solves) * 1e6, sum(s.info[0] for s in solves)),
        "solver.unconverged_frac": _ratio(sum(not s.info[1] for s in solves if s.pass_index == 0), n_solves),
        # inclusive: the rigid calls a solve makes are part of the window search
        "solver.search_share": _ratio(sum(s.dur_s for s in solves),
                                      sum(s.dur_s for s in timed["pipeline.raa_rectify"])),
        "rigid.warp_values.calls_per_solve": _ratio(len(first["rigid.warp_values"]), n_solves),
        "rigid.jacobian_values.calls_per_solve": _ratio(len(first["rigid.jacobian_values"]), n_solves),
        "roads.sample_candidates.calls": len(first["roads.sample_candidates"]),
        "roads.sample_candidates.ms_p50": _median(ms("roads.sample_candidates")),
        "roads.candidates_per_segment": _ratio(sum(s.info or 0 for s in first["roads.sample_candidates"]),
                                               len(first["roads.sample_candidates"])),
        "geo.project_points.us_per_point": _ratio(sum(s.self_s for s in timed["geo.project_points"]) * 1e6,
                                                  sum(s.info or 0 for s in timed["geo.project_points"])),
        "geo.unproject_points.us_per_point": _ratio(sum(s.self_s for s in timed["geo.unproject_points"]) * 1e6,
                                                    sum(s.info or 0 for s in timed["geo.unproject_points"])),
        "geo.project_points.calls": len(first["geo.project_points"]),
        "pipeline.raa_rectify.ms_p50": _median(ms("pipeline.raa_rectify")),
        "pipeline.windows_per_segment": _ratio(sum(s.info[0] for s in raa), len(raa)),
        "pipeline.already_correct_frac": _ratio(sum(s.info[1] for s in raa), len(raa)),
        "matchers.linear_sum_assignment.calls": len(first["matchers.linear_sum_assignment"]),
        "matchers.linprog.ms_p50": _median(ms("matchers.linprog")),
        "dataio.load_dataset.ms": _median(ms("dataio.load_dataset")),
        "dataio.load_dataset.rows_per_s": _ratio(sum(s.info or 0 for s in loads), sum(s.dur_s for s in loads)),
        "dataio.render_csv.ms": _median(ms("dataio.render_csv")),
        "dataio.atomic_write_text.ms": _median(ms("dataio.atomic_write_text")),
        "dataio.bytes_written": sum(s.info or 0 for s in first["dataio.atomic_write_text"]),
        "metrics.evaluate_segments.ms": _median(ms("metrics.evaluate_segments")),
        "bench.evaluate_by_class.ms": _median(ms("bench.evaluate_by_class")),
        "bench.candidate_rows.ms": _median(ms("bench.candidate_rows")),
        "bench.run_method.s": _median(ms("bench.run_method")) / 1e3,
        "cli.sample.ms": _median(ms("cli.sample")),
        "cli.rectify.ms": _median(ms("cli.rectify")),
        "cli.evaluate.ms": _median(ms("cli.evaluate")),
    }
    for method in ("ed", "cd", "ha", "wd"):
        values[f"matchers.baseline_rectify.{method}.ms_p50"] = _median(ms(f"matchers.baseline_rectify.{method}"))
    return {name: (float(values[name]), PER_LAYER[name]) for name in PER_LAYER if name in values}


def count_failures(spans, n_passes: int) -> list[str]:
    """Span counts and solver sweeps per traced pass must all be equal."""
    counts = [Counter() for _ in range(n_passes)]
    for s in spans:
        if s.pass_index >= 0:
            counts[s.pass_index][s.name] += 1
            if s.name == "solver.admm_solve" and s.info is not None:
                counts[s.pass_index]["sweeps"] += s.info[0]
    return [f"traced pass {i}: layer counts differ from pass 0"
            for i in range(1, n_passes) if counts[i] != counts[0]]
