"""The benchmark harness still resolves every library name it uses.

``perfbench`` builds its inputs through library functions and times layers
by wrapping module attributes (``spotalign.pipeline.admm_solve``,
``spotalign.solver.warp_values``, ...).  A refactor that renames or removes
one of them breaks the benchmark without failing any library test, so this
imports the harness's workload module and installs every wrapper once.
"""

import importlib
from pathlib import Path

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
