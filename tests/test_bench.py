import math
from dataclasses import replace

import pytest

import spotalign.bench
from spotalign import synth_corpus
from spotalign.bench import CLEAN, LAMBDA_SWEEP, NOISY, bench_matrix, lambda_sweep_rows
from spotalign.dataio import Dataset, RunConfig
from spotalign.metrics import HIGHER_BETTER, LOWER_BETTER, robustness_index
from spotalign.pipeline import ALL_METHODS


def corpus(seed: int) -> Dataset:
    pairs = synth_corpus(1, 1, seed=seed)
    return Dataset(segments={s.id: s for s, _ in pairs}, collected={s.id: c for s, c in pairs}, metadata={})


@pytest.fixture(scope="module")
def dataset():
    return corpus(0)


def main_rows(bench_rows: list[dict]) -> dict[tuple[str, str, str], dict]:
    return {(r["method"], r["noise"], r["segment_class"]): r for r in bench_rows if r["run"] == "main"}


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


def test_robustness_rows_pair_each_methods_clean_and_noisy_main_rows():
    # at seed 5 every clean AR is above 0, and some ACD and AR move under noise
    bench_rows, robustness_rows = bench_matrix(corpus(5), RunConfig(th=1.0))
    main = main_rows(bench_rows)
    classes = sorted({cls for _, _, cls in main})
    assert classes == ["all", "curve", "straight"]
    assert [(r["method"], r["segment_class"]) for r in robustness_rows] == \
        [(method, cls) for method in ALL_METHODS for cls in classes]
    for row in robustness_rows:
        clean = main[(row["method"], CLEAN, row["segment_class"])]
        noisy = main[(row["method"], NOISY, row["segment_class"])]
        assert row["r_acd"] == robustness_index(noisy["acd"], clean["acd"], LOWER_BETTER)
        assert row["r_ar"] == robustness_index(noisy["ar"], clean["ar"], HIGHER_BETTER)
    assert any(r["r_acd"] > 0 for r in robustness_rows) and any(r["r_ar"] > 0 for r in robustness_rows)


def test_zero_clean_recall_leaves_r_ar_undefined(dataset, monkeypatch):
    original = spotalign.bench.evaluate_by_class

    def zero_clean_curve_recall(data, rectified, tau):
        reports = original(data, rectified, tau)
        # every clean ACD is 0 at seed 0; a raised one gives a nonzero r_acd
        if data is dataset:
            reports["curve"] = replace(reports["curve"], acd=reports["curve"].acd + 1.0, ar=0.0)
        return reports

    monkeypatch.setattr(spotalign.bench, "evaluate_by_class", zero_clean_curve_recall)
    bench_rows, robustness_rows = bench_matrix(dataset, RunConfig(th=1.0))
    main = main_rows(bench_rows)
    assert [r["segment_class"] for r in robustness_rows] == ["all", "curve", "straight"] * len(ALL_METHODS)
    for row in robustness_rows:
        clean = main[(row["method"], CLEAN, row["segment_class"])]
        noisy = main[(row["method"], NOISY, row["segment_class"])]
        assert row["r_acd"] == robustness_index(noisy["acd"], clean["acd"], LOWER_BETTER)
        if row["segment_class"] == "curve":
            assert clean["ar"] == 0.0 and math.isnan(row["r_ar"]) and row["r_acd"] > 0
        else:
            assert row["r_ar"] == robustness_index(noisy["ar"], clean["ar"], HIGHER_BETTER)
