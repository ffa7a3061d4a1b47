import pytest

import spotalign.bench
from spotalign import synth_corpus
from spotalign.bench import LAMBDA_SWEEP, bench_matrix, lambda_sweep_rows
from spotalign.dataio import Dataset, RunConfig


@pytest.fixture(scope="module")
def dataset():
    pairs = synth_corpus(1, 1, seed=0)
    return Dataset(segments={s.id: s for s, _ in pairs}, collected={s.id: c for s, c in pairs}, metadata={})


@pytest.mark.parametrize("lam, raa_runs", [(100.0, 6), (50.0, 7)])
def test_sweep_reuses_the_main_clean_raa_run(dataset, monkeypatch, lam, raa_runs):
    # two main arms plus the sweep, less the sweep's point at cfg.lam when the
    # main clean arm already ran RAA there
    assert (lam in LAMBDA_SWEEP) == (raa_runs == 6)
    original, methods = spotalign.bench.run_method, []

    def counted(data, cfg):
        methods.append(cfg.method)
        return original(data, cfg)

    monkeypatch.setattr(spotalign.bench, "run_method", counted)
    bench_rows, _ = bench_matrix(dataset, RunConfig(lam=lam, th=1.0))
    assert methods.count("raa") == raa_runs
    monkeypatch.undo()
    swept = [row for row in bench_rows if row["run"] == "sweep"]
    assert swept == lambda_sweep_rows(dataset, RunConfig(lam=lam, th=1.0))
