#!/usr/bin/env python3
"""spotalign benchmark: one workload per run, timed from outside the library.

    python3 perfbench/run.py --workload raa-wide --seed 1 --seconds 20 --trace 0

Run from the repository root.  The harness imports ``spotalign`` from
``src/``, generates the workload's seeded input, writes it to CSV under
``.perfbench_out/``, and then repeats passes over it for ``--seconds``.
Every output is checked (see ``workloads.check_points``) and every pass must
repeat the first one exactly.  Pass and op times are scaled to a reference
machine speed (``workloads.SpeedProbe``); the record line keeps the wall
clock values too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes for a third of the time, then installs span recorders around the
library's public functions (``tracing.WRAPPED``) and prints the per-layer
metrics, including the tracing overhead.  The last line of standard output
is always one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
for _var in BLAS_THREAD_VARS:  # before numpy loads: the process stays on one core
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SEEDS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["seeds"]

SETUP_REPEATS = 5
MIN_PASSES = 2
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it

# end-to-end metrics of an untraced run, as BENCHMARK.json gates them
END_TO_END = {
    "segments_per_s": "1/s",
    "segment_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed and recorded, not gated: a gate needs a value that is never 0 and
# steady across seeds
REPORTED_ONLY = {
    "segment_ms_p90": "ms",   # only where a run holds >= 100 samples
    "acd_m": "m",             # 0 whenever every window is right
    "ar": "fraction",         # one wrong window in six moves it by a sixth
    "failed_frac": "fraction",
}

SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import spotalign
from spotalign.dataio import load_dataset
t1 = time.perf_counter()
if len(sys.argv) > 2:
    load_dataset(*sys.argv[2:])
print(json.dumps([t1 - t0, time.perf_counter() - t1]))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=SEEDS["default"])
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(load_args) -> dict:
    """Median over fresh interpreters of importing spotalign plus loading the CSVs.

    Not scaled by the speed kernel: the import is mostly file and loader work,
    which the kernel does not follow.
    """
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), *map(str, load_args)],
            capture_output=True, text=True, timeout=120, env=os.environ.copy(), check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(a + b for a, b in runs),
        "import_s": statistics.median(a for a, _ in runs),
        "load_s": statistics.median(b for _, b in runs),
    }


def run_passes(workload, seconds: float, tracer=None) -> list:
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.pass_index = len(passes)
        passes.append(workload.run_pass(tracer))
    return passes


def consistency_failures(passes) -> list[str]:
    """Every pass must give the first pass's outputs and accuracy exactly."""
    first = passes[0]
    out = []
    for i, p in enumerate(passes[1:], start=1):
        if p.outputs != first.outputs:
            out.append(f"pass {i}: outputs differ from pass 0")
        if (p.acd_m, p.ar) != (first.acd_m, first.ar) and not p.failures:
            out.append(f"pass {i}: acd/ar {(p.acd_m, p.ar)} != pass 0 {(first.acd_m, first.ar)}")
    return out


def pass_rate(workload, passes, scaled: bool = True) -> float:
    """Segments (segment x method ops on baselines) per second of the median
    pass, taken op by op: the sum over ops of each op's median time."""
    times = [p.scaled_s if scaled else p.latencies_s for p in passes]
    return workload.segments_per_pass / sum(statistics.median(op) for op in zip(*times))


def segment_ms_p50(workload, passes, scaled: bool = True) -> float:
    times = [p.scaled_s if scaled else p.latencies_s for p in passes]
    if workload.times_each_segment:
        return statistics.median(x for t in times for x in t) * 1e3
    # only whole commands are observable: per-segment cost of each pass
    return statistics.median(sum(t) / workload.segments_per_pass for t in times) * 1e3


def end_to_end(workload, passes, setup: dict) -> tuple[dict, dict]:
    lat = [x for p in passes for x in p.scaled_s]
    values = {
        "segments_per_s": pass_rate(workload, passes),
        "segment_ms_p50": segment_ms_p50(workload, passes),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acd_m": passes[0].acd_m,
        "ar": passes[0].ar,
        "failed_frac": sum(len(p.failures) for p in passes) / (len(passes) * workload.segments_per_pass),
    }
    if workload.times_each_segment and len(lat) >= P90_MIN_SAMPLES:
        values["segment_ms_p90"] = statistics.quantiles(lat, n=10)[8] * 1e3
    extra = {
        "latency_samples": len(lat), "passes": len(passes),
        "speed_scale": [p.scale for p in passes],
        "wall_pass_s": [sum(p.latencies_s) for p in passes],
        "wall_segments_per_s": pass_rate(workload, passes, scaled=False),
        "wall_segment_ms_p50": segment_ms_p50(workload, passes, scaled=False),
    }
    return values, extra


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spotalign" / "__init__.py").is_file():
        print(f"error: no spotalign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spotalign

    if Path(spotalign.__file__).resolve().parent != SRC / "spotalign":
        print(f"error: imported spotalign from {spotalign.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        workload = workloads.build(args.workload, args.seed, Path(tmp))
        setup = measure_setup(workload.load_args())
        workload.setup()
        if args.trace:
            untraced = run_passes(workload, args.seconds / 3.0)
            tracer = Tracer()
            tracer.install()
            try:
                if workload.load_args():  # record the set-up load in the trace too
                    tracer.pass_index = -1
                    spotalign.dataio.load_dataset(*workload.load_args())
                traced = run_passes(workload, args.seconds * 2.0 / 3.0, tracer)
            finally:
                tracer.uninstall()
            metrics = layers.per_layer(tracer.spans)
            metrics["trace.overhead_frac"] = (
                1.0 - pass_rate(workload, traced) / pass_rate(workload, untraced), "fraction")
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            passes = untraced + traced
        else:
            untraced = passes = run_passes(workload, args.seconds)
        e2e, extra = end_to_end(workload, untraced, setup)

    failures = [f for p in passes for f in p.failures] + consistency_failures(passes)
    if args.trace:
        failures += layers.count_failures(tracer.spans, len(traced))
    attempted = len(passes) * workload.segments_per_pass
    units = {**END_TO_END, **REPORTED_ONLY}
    for name, value in e2e.items():
        print(f"{name:>16s} = {value:.6g} {units[name]}")
    for reason in failures[:20]:
        print(f"FAILED: {reason}")
    print("record " + json.dumps({
        "workload": args.workload, "trace": args.trace, "environment": environment(args.seed),
        "input": workload.shape(), "setup": setup, **extra,
        "end_to_end": {k: [v, units[k]] for k, v in e2e.items()},
    }))

    if args.trace:
        shown = metrics
    else:
        shown = {k: (e2e[k], unit) for k, unit in END_TO_END.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
