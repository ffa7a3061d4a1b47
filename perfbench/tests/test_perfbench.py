"""Self-test of the benchmark harness at a tiny size: schema and names only.

Run from the repository root:

    python -m pytest -q perfbench/tests

No assertion here depends on timing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import spotalign  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def layer_map():
    return json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))


def test_benchmark_json_schema(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    # a full gate (4 + 22 runs per workload, ~10 s of set-up each) fits in 3420 s
    assert (4 + 22 * len(bench["workloads"])) * (bench["run_seconds"] + 10) < 3420

    names = [w["name"] for w in bench["workloads"]]
    assert tuple(names) == workloads.WORKLOADS
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]

    seen = set()
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("higher", "lower")
        assert run.END_TO_END[m["name"]] == m["unit"]
        seen.add(m["name"])
    assert seen == set(run.END_TO_END)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in bench["end_to_end"])}

    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("higher", "lower")
        assert layers.PER_LAYER[m["name"]] == m["unit"]
    assert [m["name"] for m in bench["per_layer"]] == list(layers.PER_LAYER)

    every = bench["end_to_end"] + bench["per_layer"] + bench["workloads"]
    assert len({m["name"] for m in every}) == len(every)
    for m in every:
        assert NAME.match(m["name"]), m["name"]
        if "unit" in m:
            assert UNIT.match(m["unit"]), m["unit"]


def test_layer_map_covers_every_per_layer_metric(layer_map):
    listed = [name for layer in layer_map["layers"].values() for name in layer["metrics"]]
    assert sorted(listed) == sorted(layers.PER_LAYER)
    e2e = set(run.END_TO_END) | set(run.REPORTED_ONLY)
    for layer in layer_map["layers"].values():
        for metric, workload in layer["moves"] + layer["holds"]:
            assert metric in e2e and workload in workloads.WORKLOADS
    seeds = layer_map["seeds"]
    assert seeds["default"] != seeds["verify"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_checks_and_traces_every_layer(name, tmp_path):
    w = workloads.build(name, seed=3, workdir=tmp_path, small=True)
    w.setup()
    shape = w.shape()
    assert shape["segments"] > 0 and shape["collected_points"] > 0 and shape["candidates"] > 0
    passes = run.run_passes(w, 0.0)
    assert [f for p in passes for f in p.failures] == []
    assert run.consistency_failures(passes) == []

    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_passes(w, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert spotalign.pipeline.admm_solve is spotalign.solver.admm_solve  # originals restored
    assert layers.count_failures(tracer.spans, len(traced)) == []
    metrics = layers.per_layer(tracer.spans)
    assert set(metrics) == set(layers.PER_LAYER) - {"trace.overhead_frac"}
    calls = metrics["solver.admm_solve.calls"][0]
    if name.startswith("raa"):
        assert calls > 0 and metrics["pipeline.windows_per_segment"][0] > 0
    else:
        assert calls == 0
    if name == "raa-narrow":
        assert 1 <= metrics["pipeline.windows_per_segment"][0] <= 4
    if name == "baselines":
        assert metrics["matchers.linear_sum_assignment.calls"][0] > 0
    if name == "cli-io":
        assert metrics["dataio.bytes_written"][0] > 0 and metrics["cli.rectify.ms"][0] > 0


def test_checker_rejects_a_point_off_the_grid(tmp_path):
    w = workloads.build("raa-narrow", seed=3, workdir=tmp_path, small=True)
    w.setup()
    ref = next(iter(w.refs.values()))
    good = ref.cand_xy[:ref.m].copy()
    assert workloads.check_points(ref, "raa", 0, good, False) is None
    bad = good.copy()
    bad[0, 0] += 0.01
    assert "off the candidate grid" in workloads.check_points(ref, "raa", 0, bad, False)
    assert "window_start_index" in workloads.check_points(ref, "raa", ref.k, good, False)
    assert "output points" in workloads.check_points(ref, "raa", 0, good[1:], False)


def test_roadmap_baseline_solve_count():
    """synth_corpus(3, 3, seed=1) at th=1 runs 212 window solves."""
    tracer = Tracer()
    tracer.install()
    try:
        for seg, cset in spotalign.synth_corpus(3, 3, seed=1):
            spotalign.rectify(cset, seg, "raa", th=1.0)
    finally:
        tracer.uninstall()
    assert sum(s.name == "solver.admm_solve" for s in tracer.spans) == 212


def _run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "raa-narrow", "--seed", "3",
         "--seconds", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_named_metrics_last(bench, trace):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
