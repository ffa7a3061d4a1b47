"""The window race picks the exhaustive search's window, loss and points.

``raa_rectify`` solves windows nearest-centroid first and abandons a solve
whose loss after ``RACE_CHECK_SWEEP`` sweeps exceeds ``RACE_MARGIN`` times
the best finished loss so far.  That is safe while every winner's loss at
the check sweep stays below ``RACE_MARGIN`` times its final loss.  The
constants were chosen on the golden corpus, ``synth_corpus(10, 10)`` at
seeds 0-9, the gap arm at seeds 11-13 and 21-22 and the criterion-05
corpus; every corpus here is held out from that choice.  A margin pin at
1.2, well inside 1.5, fails before a solver change can cost a window.

Run as a script to print, for each corpus (all by default), the largest
ratio of a winner's loss at the check sweep to its final loss and the share
of windows abandoned:

    PYTHONPATH=src python tests/test_window_race.py [CORPUS ...]
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest

import spotalign.pipeline
from spotalign import synth_corpus
from spotalign.geo import project_points, unproject_points
from spotalign.pipeline import RACE_MARGIN, RectifiedSet, raa_rectify
from spotalign.roads import sample_candidates
from spotalign.solver import RACE_CHECK_SWEEP, SolverConfig, SolverResult, admm_solve

from conftest import exhaustive_search, gap_case

TH = 1.0
MARGIN_PIN = 1.2
GAP_DRIFTS = (6.0, 9.0, 12.0)
GAP_TRIALS = 3  # per drift


def gap_arm(seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [gap_case(rng, d)[:2] for d in GAP_DRIFTS for _ in range(GAP_TRIALS)]


def mixed(seed: int) -> list:
    return synth_corpus(3, 3, seed=seed, taxonomies=("mixed",))


# name: (segments and collected sets, solver settings)
CORPORA = {
    "gap-31": (lambda: gap_arm(31), SolverConfig()),
    "gap-32": (lambda: gap_arm(32), SolverConfig()),
    "gap-33-rho-1.3": (lambda: gap_arm(33), SolverConfig(rho=1.3)),
    "synth-10": (lambda: synth_corpus(10, 10, seed=10), SolverConfig()),
    "lambda-1": (lambda: mixed(11), SolverConfig(lam=1.0)),
    "lambda-10000": (lambda: mixed(11), SolverConfig(lam=10000.0)),
}


@dataclass(frozen=True)
class Outcome:
    race: RectifiedSet
    winner: int  # the exhaustive search's window, its loss and snapped points
    loss: float
    points: tuple
    check_loss: float  # the winner's loss after RACE_CHECK_SWEEP sweeps


def outcome(segment, collected, cfg: SolverConfig) -> Outcome:
    losses = [r.loss for r in exhaustive_search(segment, collected, cfg)]
    winner = losses.index(min(losses))
    cands = sample_candidates(segment)
    pts = project_points(cands.frame, collected.points)
    window = cands.xy()[winner:winner + len(pts)]
    center = window.mean(axis=0)
    early = admm_solve(pts - center, window - center, replace(cfg, max_iters=RACE_CHECK_SWEEP))
    return Outcome(raa_rectify(collected, segment, th=TH, cfg=cfg), winner, losses[winner],
                   tuple(unproject_points(cands.frame, window)), early.loss)


def run_corpus(name: str) -> list[Outcome]:
    build, cfg = CORPORA[name]
    return [outcome(segment, collected, cfg) for segment, collected in build()]


@pytest.fixture(scope="module")
def outcomes():
    return {name: run_corpus(name) for name in CORPORA}


@pytest.mark.parametrize("name", list(CORPORA))
def test_race_picks_the_exhaustive_winner(outcomes, name):
    for o in outcomes[name]:
        where = f"{name} {o.race.segment_id}"
        assert not o.race.already_correct, where
        assert (o.race.window_start_index, o.race.loss.hex()) == (o.winner, o.loss.hex()), where
        assert o.race.points == o.points, where


@pytest.mark.parametrize("name", list(CORPORA))
def test_winners_stay_inside_the_margin_at_the_check_sweep(outcomes, name):
    ratios = [o.check_loss / o.loss for o in outcomes[name]]
    assert max(ratios) <= MARGIN_PIN < RACE_MARGIN, (name, max(ratios))


def test_the_race_abandons_windows(outcomes):
    windows = [v for o in outcomes["synth-10"] for v in o.race.window_losses]
    assert 0 < windows.count(math.inf) < len(windows)


def drifted_window(m: int = 20, seed: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """A centred 6 m window and the same points turned 4 degrees, drifted 3 m and jittered."""
    rng = np.random.default_rng(seed)
    window = np.column_stack([np.arange(m) * 6.0, np.zeros(m)])
    window -= window.mean(axis=0)
    turn = math.radians(4.0)
    rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    return window @ rot.T + [1.0, 3.0] + rng.uniform(-1.0, 1.0, window.shape), window


def same_solve(a: SolverResult, b: SolverResult) -> bool:
    return ((a.loss.hex(), a.iterations, a.converged) == (b.loss.hex(), b.iterations, b.converged)
            and a.state.vector.tobytes() == b.state.vector.tobytes())


class TestAbandon:
    def test_abandoned_solve_reports_inf_unconverged_at_the_check_sweep(self):
        pts, window = drifted_window()
        assert admm_solve(pts, window).iterations > RACE_CHECK_SWEEP
        got = admm_solve(pts, window, abandon_above=0.0)
        assert (got.loss, got.converged, got.iterations) == (math.inf, False, RACE_CHECK_SWEEP)

    def test_infinite_bound_is_the_plain_solve(self):
        pts, window = drifted_window()
        assert same_solve(admm_solve(pts, window, abandon_above=math.inf), admm_solve(pts, window))

    def test_solve_shorter_than_the_check_sweep_is_never_abandoned(self):
        pts, window = drifted_window()
        cfg = SolverConfig(max_iters=RACE_CHECK_SWEEP - 1)
        got = admm_solve(pts, window, cfg, abandon_above=0.0)
        assert got.iterations == RACE_CHECK_SWEEP - 1
        assert same_solve(got, admm_solve(pts, window, cfg))

    def test_window_tying_the_best_is_not_abandoned(self):
        pts, window = drifted_window()
        plain = admm_solve(pts, window)
        assert same_solve(admm_solve(pts, window, abandon_above=RACE_MARGIN * plain.loss), plain)

    @pytest.mark.parametrize("best, later_bound", [(2.0, RACE_MARGIN * 2.0), (0.0, math.inf)])
    def test_bound_follows_the_best_finished_loss(self, monkeypatch, best, later_bound):
        # a zero best would make the bound zero and abandon every positive
        # loss, so a window tying it at the end but not at the check sweep too
        bounds = []

        def fake(P, Rd, cfg, *, abandon_above):
            bounds.append(abandon_above)
            return SolverResult(state=None, loss=best, iterations=1, converged=True)

        monkeypatch.setattr(spotalign.pipeline, "admm_solve", fake)
        segment, collected = synth_corpus(1, 0, seed=1)[0]
        out = raa_rectify(collected, segment, th=TH)
        assert len(bounds) == len(out.window_losses) > 1
        assert bounds == [math.inf] + [later_bound] * (len(bounds) - 1)
        assert out.window_start_index == 0  # every window ties: the smallest start wins


def test_script_prints_the_margin_and_abandoned_share():
    from test_golden_scripts import run_script

    (line,) = run_script("test_window_race.py", "lambda-1").splitlines()
    assert line.startswith(f"lambda-1: winner loss at sweep {RACE_CHECK_SWEEP} / final at most ")
    assert line.endswith(" windows abandoned")


if __name__ == "__main__":
    for name in sys.argv[1:] or CORPORA:
        results = run_corpus(name)
        ratio = max(o.check_loss / o.loss for o in results)
        windows = [v for o in results for v in o.race.window_losses]
        print(f"{name}: winner loss at sweep {RACE_CHECK_SWEEP} / final at most {ratio:.4f}, "
              f"{windows.count(math.inf) / len(windows):.1%} of {len(windows)} windows abandoned")
