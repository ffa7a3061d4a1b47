"""Benchmark matrix: methods x noise arms x segment classes, the coupling
weight sweep, and the robustness table derived from the clean/noisy pairs;
also the one seeded corruption that the noise arm and ``spotalign noise`` use."""

from __future__ import annotations

import hashlib
import logging
from dataclasses import replace

from .dataio import Dataset, RunConfig
from .geo import project_points, unproject_points
from .metrics import HIGHER_BETTER, LOWER_BETTER, EvalReport, evaluate_segments, robustness_index
from .pipeline import ALL_METHODS, RAA, NoiseKind, NoiseSpec, RandomNoise, RectifiedSet, inject_noise, rectify
from .roads import sample_candidates

log = logging.getLogger(__name__)

LAMBDA_SWEEP = (1.0, 10.0, 100.0, 1000.0, 10000.0)
ALL_CLASSES = "all"
NOISE_ARM_BOUND_M = 20.0
CLEAN = "clean"
NOISY = "noisy"


def apply_noise(dataset: Dataset, kind: NoiseKind, seed: int) -> Dataset:
    """Corrupt every collected segment with ``kind``; ground truth is kept.

    Each segment draws from ``seed`` plus a tag hashed from its id, so
    segments of equal size move differently and a segment's draw does not
    depend on which others the dataset holds.
    """
    corrupted = {}
    for sid, cset in sorted(dataset.collected.items()):
        sid_tag = int(hashlib.sha256(sid.encode("utf-8")).hexdigest()[:8], 16)
        spec = NoiseSpec(kind, seed=seed + sid_tag % 100_000)
        frame = dataset.segments[sid].frame()
        corrupted[sid] = replace(cset, points=tuple(inject_noise(cset.points, spec, frame)))
    return Dataset(segments=dataset.segments, collected=corrupted, metadata=dict(dataset.metadata))


def apply_noise_arm(dataset: Dataset, seed: int) -> Dataset:
    """The benchmark's noise arm: every collected point moved uniformly up to NOISE_ARM_BOUND_M."""
    return apply_noise(dataset, RandomNoise(bound=NOISE_ARM_BOUND_M, fraction=1.0), seed)


def run_method(dataset: Dataset, cfg: RunConfig) -> dict[str, RectifiedSet]:
    """Rectify every collected segment with the configured method."""
    return {
        sid: rectify(cset, dataset.segments[sid], cfg.method, th=cfg.th, cfg=cfg.solver_config())
        for sid, cset in sorted(dataset.collected.items())
    }


def evaluate_by_class(dataset: Dataset, rectified: dict[str, RectifiedSet], tau: float) -> dict[str, EvalReport]:
    """Index-aligned evaluation against ground truth, grouped by shape class.

    Each segment is projected once; "all" and its shape class share the arrays.
    """
    groups: dict[str, list[tuple]] = {ALL_CLASSES: []}
    for sid in sorted(rectified):
        truth = dataset.collected[sid].ground_truth
        if truth is None:
            continue
        frame = dataset.segments[sid].frame()
        scored = (project_points(frame, rectified[sid].points), project_points(frame, truth))
        groups[ALL_CLASSES].append(scored)
        groups.setdefault(dataset.segments[sid].shape_class, []).append(scored)
    return {cls: evaluate_segments(*zip(*segs), tau=tau) for cls, segs in groups.items() if segs}


def lambda_sweep_rows(dataset: Dataset, cfg: RunConfig) -> list[dict]:
    """Clean-arm sweep of the main method over the coupling-weight grid."""
    return _lambda_sweep_rows(dataset, cfg, {})


def _lambda_sweep_rows(dataset: Dataset, cfg: RunConfig,
                       solved: dict[float, dict[str, EvalReport]]) -> list[dict]:
    """:func:`lambda_sweep_rows`, taking the clean RAA reports at a lam in ``solved`` from there."""
    rows: list[dict] = []
    for lam in LAMBDA_SWEEP:
        reports = solved.get(lam)
        if reports is None:
            sweep_cfg = replace(cfg, method=RAA, lam=lam)
            reports = evaluate_by_class(dataset, run_method(dataset, sweep_cfg), cfg.tau)
        log.info("bench: sweep lam=%g done", lam)
        for cls, rep in sorted(reports.items()):
            rows.append({
                "run": "sweep", "method": RAA, "lam": lam, "noise": CLEAN,
                "segment_class": cls, "acd": rep.acd, "ar": rep.ar,
            })
    return rows


def bench_matrix(dataset: Dataset, cfg: RunConfig) -> tuple[list[dict], list[dict]]:
    """Full comparison matrix plus the coupling-weight sweep.

    Returns (bench_rows, robustness_rows).  Bench rows carry
    run/method/lam/noise/segment_class/acd/ar; the sweep runs the main method
    over ``LAMBDA_SWEEP`` on the clean arm, reusing the main clean RAA run
    at ``cfg.lam``.  Robustness rows combine each method's clean and noisy
    scores per class.
    """
    noisy_dataset = apply_noise_arm(dataset, seed=cfg.seed + 7919)
    bench_rows: list[dict] = []
    scores: dict[tuple[str, str, str], EvalReport] = {}
    solved: dict[float, dict[str, EvalReport]] = {}

    for method in ALL_METHODS:
        for arm, data in ((CLEAN, dataset), (NOISY, noisy_dataset)):
            run_cfg = replace(cfg, method=method)
            reports = evaluate_by_class(data, run_method(data, run_cfg), cfg.tau)
            log.info("bench: method=%s arm=%s done", method, arm)
            if method == RAA and arm == CLEAN:
                solved[cfg.lam] = reports
            for cls, rep in sorted(reports.items()):
                scores[(method, arm, cls)] = rep
                bench_rows.append({
                    "run": "main", "method": method, "lam": cfg.lam, "noise": arm,
                    "segment_class": cls, "acd": rep.acd, "ar": rep.ar,
                })

    bench_rows.extend(_lambda_sweep_rows(dataset, cfg, solved))

    robustness_rows: list[dict] = []
    for method in ALL_METHODS:
        for cls in sorted({cls for (_, _, cls) in scores}):
            clean = scores.get((method, CLEAN, cls))
            noisy = scores.get((method, NOISY, cls))
            if clean is None or noisy is None:
                continue
            # a zero clean recall leaves the relative change undefined
            r_ar = (robustness_index(noisy.ar, clean.ar, HIGHER_BETTER)
                    if clean.ar != 0 else float("nan"))
            robustness_rows.append({
                "method": method, "segment_class": cls,
                "r_acd": robustness_index(noisy.acd, clean.acd, LOWER_BETTER),
                "r_ar": r_ar,
            })
    return bench_rows, robustness_rows


def candidate_rows(dataset: Dataset) -> list[list]:
    """Rows for candidates.csv: every sampled candidate of every segment."""
    rows: list[list] = []
    for sid in dataset.segment_ids():
        cands = sample_candidates(dataset.segments[sid])
        geo = unproject_points(cands.frame, cands.points)
        rows.extend(
            [sid, i, s, g.lat, g.lon] for i, (s, g) in enumerate(zip(cands.arclengths.tolist(), geo))
        )
    return rows
