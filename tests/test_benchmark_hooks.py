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
from spotalign.solver import SolverConfig, SolverState, admm_solve

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
# (rigid.warp_values.calls_per_solve), which reads 0: a state starts W as its
# inputs and the solver re-warps through SolverState.moments, and the Jacobian
# count per solve (rigid.jacobian_values.calls_per_solve), which only trace mode raises

def _counting(monkeypatch, module, attr) -> list:
    calls = []
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


def test_solver_never_calls_warp_values(monkeypatch):
    rng = np.random.default_rng(3)
    calls = _counting(monkeypatch, spotalign.solver, "warp_values")
    a, b = (rng.uniform(-40, 40, (12, 2)) for _ in range(2))
    SolverState(a, b, SolverConfig().mu0)
    result = admm_solve(a, b, SolverConfig())
    assert result.iterations > 1
    assert calls == []


def test_only_a_traced_solve_calls_jacobian_values_twice_per_sweep(monkeypatch):
    # rigid.jacobian_values.calls_per_solve counts these calls through the module attribute
    assert spotalign.warp_values is spotalign.solver.warp_values
    assert spotalign.jacobian_values is spotalign.solver.jacobian_values
    rng = np.random.default_rng(3)
    calls = _counting(monkeypatch, spotalign.solver, "jacobian_values")
    a, b = (rng.uniform(-40, 40, (12, 2)) for _ in range(2))
    assert admm_solve(a, b, SolverConfig()).iterations > 1
    assert calls == []
    traced = admm_solve(a, b, SolverConfig(), collect_trace=True)
    assert len(traced.trace.lagrangians) == traced.iterations > 1
    assert len(calls) == 2 * traced.iterations


def test_window_search_solves_each_window_once(monkeypatch):
    segment, collected = synth_corpus(1, 0, seed=1)[0]
    calls = _counting(monkeypatch, spotalign.pipeline, "admm_solve")
    out = spotalign.pipeline.raa_rectify(collected, segment, th=1.0)
    windows = sample_candidates(segment).window_count(len(collected.points))
    assert not out.already_correct and windows > 1
    assert len(calls) == len(out.window_losses) == windows
