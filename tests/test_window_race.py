"""The window race picks the exhaustive search's window, loss and points.

``search_windows`` solves windows nearest-centroid first and abandons a solve
whose loss after any of ``RACE_CHECK_SWEEPS`` (1, 2, 4 and 8 sweeps)
exceeds ``RACE_MARGIN`` times the best finished loss so far.  That is safe
while every winner's loss at each check sweep stays below ``RACE_MARGIN``
times its final loss.  The margin was chosen on the golden corpus,
``synth_corpus(10, 10)`` at seeds 0-9, the gap arm at seeds 11-13 and 21-22
and the criterion-05 corpus, and the check sweeps on ``synth_corpus(10,
10)`` at seeds 0-3 and the same gap arm; every corpus here is held out from
both choices.  A margin pin at 1.2, well inside 1.5, at every check sweep
fails before a solver change or a new check sweep can cost a window.

Run as a script to print, for each corpus (all by default), the largest
ratio of a winner's loss at each check sweep to its final loss and the
share of windows abandoned at each check sweep:

    PYTHONPATH=src python tests/test_window_race.py [CORPUS ...]
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest

import spotalign.pipeline
from spotalign import synth_corpus
from spotalign.geo import project_points, unproject_points
from spotalign.pipeline import RACE_MARGIN, CollectedSet, RectifiedSet, raa_rectify, search_windows
from spotalign.roads import sample_candidates
from spotalign.solver import RACE_CHECK_SWEEPS, SolverConfig, SolverResult, admm_solve

from conftest import exhaustive_search, gap_case, polyline_segment

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
    check_losses: tuple[float, ...]  # the winner's loss after each of RACE_CHECK_SWEEPS
    abandoned_at: tuple[int, ...]  # the sweep each window the race abandoned stopped at, in start order


def outcome(segment, collected, cfg: SolverConfig) -> Outcome:
    losses = [r.loss for r in exhaustive_search(segment, collected, cfg)]
    winner = losses.index(min(losses))
    cands = sample_candidates(segment)
    pts = project_points(cands.frame, collected.points)
    window = cands.xy()[winner:winner + len(pts)]
    center = window.mean(axis=0)
    early = tuple(admm_solve(pts - center, window - center, replace(cfg, max_iters=k)).loss
                  for k in RACE_CHECK_SWEEPS)
    raced, sweeps, _ = search_windows(pts, cands.xy(), cfg)
    return Outcome(raa_rectify(collected, segment, TH, cfg), winner, losses[winner],
                   tuple(unproject_points(cands.frame, window)), early, tuple(sweeps[raced == math.inf].tolist()))


def run_corpus(name: str) -> list[Outcome]:
    build, cfg = CORPORA[name]
    return [outcome(segment, collected, cfg) for segment, collected in build()]


def worst_ratios(results: list[Outcome]) -> list[float]:
    """Per check sweep, the largest ratio of a winner's loss there to its final loss."""
    return [max(o.check_losses[j] / o.loss for o in results) for j in range(len(RACE_CHECK_SWEEPS))]


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


@pytest.mark.parametrize("m", [2, 7, 8, 9, 127, 128, 129, 200])
def test_race_matches_the_exhaustive_search_at_any_window_length(monkeypatch, m):
    # the race centres all windows at once, the exhaustive search one by one
    # with window.mean(axis=0); numpy's pairwise summation changes blocks at 8
    # and 128 entries.  A race that abandons nothing finishes every window.
    rng = np.random.default_rng(m)
    heading = rng.uniform(0.0, 2.0 * math.pi)  # off the axes, so that no mean is exact
    direction = np.array([math.cos(heading), math.sin(heading)])
    segment = polyline_segment(rng.uniform(-500.0, 500.0, 2) + np.outer([0.0, (m + 2) * 6.0], direction))
    cands = sample_candidates(segment)
    start = int(rng.integers(0, cands.window_count(m)))
    truth = cands.xy()[start:start + m]
    drifted = truth + rng.choice([-1.0, 1.0], 2) * [2.0, 3.0] + rng.uniform(-1.5, 1.5, truth.shape)
    collected = CollectedSet(segment.id, tuple(unproject_points(cands.frame, drifted)))
    race = raa_rectify(collected, segment, th=TH)
    losses = [r.loss for r in exhaustive_search(segment, collected)]
    winner = losses.index(min(losses))
    assert not race.already_correct and len(race.window_losses) == len(losses) > 1
    assert (race.window_start_index, race.loss.hex()) == (winner, losses[winner].hex())
    finished = [(raced.hex(), full.hex()) for raced, full in zip(race.window_losses, losses) if raced < math.inf]
    assert finished and all(raced == full for raced, full in finished)
    searched, sweeps, _ = search_windows(project_points(cands.frame, collected.points), cands.xy())
    assert searched.tolist() == list(race.window_losses)
    assert set(sweeps[searched == math.inf].tolist()) <= set(RACE_CHECK_SWEEPS)
    monkeypatch.setattr(spotalign.pipeline, "RACE_MARGIN", math.inf)
    assert [v.hex() for v in raa_rectify(collected, segment, th=TH).window_losses] == [v.hex() for v in losses]


@pytest.mark.parametrize("name", list(CORPORA))
def test_winners_stay_inside_the_margin_at_the_check_sweep(outcomes, name):
    ratios = worst_ratios(outcomes[name])
    assert max(ratios) <= MARGIN_PIN < RACE_MARGIN, (name, dict(zip(RACE_CHECK_SWEEPS, ratios)))


def test_the_race_abandons_windows(outcomes):
    windows = [v for o in outcomes["synth-10"] for v in o.race.window_losses]
    stops = [k for o in outcomes["synth-10"] for k in o.abandoned_at]
    assert 0 < windows.count(math.inf) == len(stops) < len(windows)
    assert RACE_CHECK_SWEEPS[0] in stops and set(stops) <= set(RACE_CHECK_SWEEPS)


def drifted_window(m: int = 20, seed: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """A centred 6 m window and the same points turned 4 degrees, drifted 1.1 m and jittered.

    The solve runs past the last check sweep, and its loss rises over the
    check sweeps and stays below its final loss.
    """
    rng = np.random.default_rng(seed)
    window = np.column_stack([np.arange(m) * 6.0, np.zeros(m)])
    window -= window.mean(axis=0)
    turn = math.radians(4.0)
    rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    return window @ rot.T + [0.5, 1.0] + rng.uniform(-1.0, 1.0, window.shape), window


def same_solve(a: SolverResult, b: SolverResult) -> bool:
    return ((a.loss.hex(), a.iterations, a.converged) == (b.loss.hex(), b.iterations, b.converged)
            and a.state.vector.tobytes() == b.state.vector.tobytes())


def loss_after(pts: np.ndarray, window: np.ndarray, sweeps: int) -> float:
    return admm_solve(pts, window, SolverConfig(max_iters=sweeps)).loss


class TestAbandon:
    def test_abandoned_solve_reports_inf_unconverged_at_the_check_sweep(self):
        pts, window = drifted_window()
        assert admm_solve(pts, window).iterations > RACE_CHECK_SWEEPS[-1]
        got = admm_solve(pts, window, abandon_above=0.0)
        assert (got.loss, got.converged, got.iterations) == (math.inf, False, RACE_CHECK_SWEEPS[0])

    @pytest.mark.parametrize("k", RACE_CHECK_SWEEPS)
    def test_bound_under_the_loss_at_a_check_sweep_abandons_there(self, k):
        pts, window = drifted_window()
        bound = math.nextafter(loss_after(pts, window, k), -math.inf)
        assert all(loss_after(pts, window, j) <= bound for j in RACE_CHECK_SWEEPS if j < k)
        got = admm_solve(pts, window, abandon_above=bound)
        assert (got.loss, got.converged, got.iterations) == (math.inf, False, k)

    def test_infinite_bound_is_the_plain_solve(self):
        pts, window = drifted_window()
        assert same_solve(admm_solve(pts, window, abandon_above=math.inf), admm_solve(pts, window))

    def test_solve_shorter_than_the_check_sweep_is_never_abandoned(self):
        # the solve stops one sweep before a check sweep; the bound ties its
        # loss at the earlier check sweeps and is under its loss at the stop
        pts, window = drifted_window()
        stop = RACE_CHECK_SWEEPS[2] - 1
        assert stop not in RACE_CHECK_SWEEPS
        plain = admm_solve(pts, window, SolverConfig(max_iters=stop))
        bound = max(loss_after(pts, window, j) for j in RACE_CHECK_SWEEPS if j < stop)
        assert plain.loss > bound
        got = admm_solve(pts, window, SolverConfig(max_iters=stop), abandon_above=bound)
        assert got.iterations == stop and same_solve(got, plain)

    def test_window_tying_the_best_is_not_abandoned(self):
        pts, window = drifted_window()
        plain = admm_solve(pts, window)
        assert same_solve(admm_solve(pts, window, abandon_above=plain.loss), plain)

    @pytest.mark.parametrize("best, later_bound", [(2.0, RACE_MARGIN * 2.0), (0.0, math.inf)])
    def test_bound_follows_the_best_finished_loss(self, monkeypatch, best, later_bound):
        # a zero best would make the bound zero and abandon every positive
        # loss, so a window tying it at the end but not at a check sweep too
        bounds = []

        def fake(P, Rd, cfg, *, abandon_above, out=None):
            bounds.append(abandon_above)
            return SolverResult(state=None, loss=best, iterations=1, converged=True)

        monkeypatch.setattr(spotalign.pipeline, "admm_solve", fake)
        segment, collected = synth_corpus(1, 0, seed=1)[0]
        out = raa_rectify(collected, segment, th=TH)
        assert len(bounds) == len(out.window_losses) > 1
        assert bounds == [math.inf] + [later_bound] * (len(bounds) - 1)
        assert out.window_start_index == 0  # every window ties: the smallest start wins


def summary(name: str, results: list[Outcome]) -> str:
    """One line: per check sweep, the winners' worst ratio and the share of windows abandoned there."""
    windows = sum(len(o.race.window_losses) for o in results)
    stops = [k for o in results for k in o.abandoned_at]
    return (f"{name}: at sweeps {', '.join(map(str, RACE_CHECK_SWEEPS))} a winner's loss / final is at most "
            f"{', '.join(f'{r:.4f}' for r in worst_ratios(results))} and "
            f"{', '.join(f'{stops.count(k) / windows:.1%}' for k in RACE_CHECK_SWEEPS)} "
            f"of {windows} windows are abandoned")


def test_script_prints_the_margin_and_abandoned_share():
    from test_golden_scripts import run_script

    (line,) = run_script("test_window_race.py", "lambda-1").splitlines()
    sweeps = ", ".join(map(str, RACE_CHECK_SWEEPS))
    got = re.fullmatch(rf"lambda-1: at sweeps {sweeps} a winner's loss / final is at most ([\d., ]+) "
                       rf"and ([\d.%, ]+) of \d+ windows are abandoned", line)
    assert got, line
    ratios, shares = (group.split(", ") for group in got.groups())
    assert len(ratios) == len(shares) == len(RACE_CHECK_SWEEPS)
    assert all(float(r) <= MARGIN_PIN for r in ratios) and all(s.endswith("%") for s in shares)


if __name__ == "__main__":
    for name in sys.argv[1:] or CORPORA:
        print(summary(name, run_corpus(name)))
