"""The benchmark harness still resolves every library name it uses.

``perfbench`` builds its inputs through library functions and times layers
by wrapping module attributes (``spotalign.pipeline.admm_solve``,
``spotalign.solver.warp_values``, ...).  A refactor that renames or removes
one of them breaks the benchmark without failing any library test, so this
imports the harness's workload module and installs every wrapper once.
"""

import importlib
from pathlib import Path

import numpy as np

import spotalign.pipeline
import spotalign.solver
from spotalign import synth_corpus
from spotalign.roads import sample_candidates
from spotalign.solver import SolverConfig, admm_solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_workloads_import_and_every_wrapper_installs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")

    targets = [(importlib.import_module(module), attr) for module, attr, *_ in tracing.WRAPPED]
    originals = [getattr(module, attr) for module, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not original
                   for (module, attr), original in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr in targets] == originals


# perfbench's per-layer metrics read these call structures: a solver span per
# window (solver.admm_solve.calls, sweeps) and the warp count per solve
# (rigid.warp_values.calls_per_solve)

def _counting(monkeypatch, module, attr) -> list:
    calls = []
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


def test_untraced_solve_warps_once_per_sweep_and_once_at_setup(monkeypatch):
    rng = np.random.default_rng(3)
    calls = _counting(monkeypatch, spotalign.solver, "warp_values")
    a, b = (rng.uniform(-40, 40, (12, 2)) for _ in range(2))
    result = admm_solve(a, b, SolverConfig())
    assert result.iterations > 1
    assert len(calls) == result.iterations + 1


def test_window_search_solves_each_window_once(monkeypatch):
    segment, collected = synth_corpus(1, 0, seed=1)[0]
    calls = _counting(monkeypatch, spotalign.pipeline, "admm_solve")
    out = spotalign.pipeline.raa_rectify(collected, segment, th=1.0)
    windows = sample_candidates(segment).window_count(len(collected.points))
    assert not out.already_correct and windows > 1
    assert len(calls) == len(out.window_losses) == windows
