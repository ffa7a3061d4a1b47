"""The window race picks the exhaustive search's window, loss and points.

``search_windows`` solves windows nearest-centroid first and abandons a solve
at the first rung of ``RACE_CHECKS`` where its loss exceeds the rung's
margin times the best finished loss so far: 1.5 after 1, 2, 4 and 8 sweeps,
1.1 after 10.  That is safe while every winner's loss at each rung stays
below the rung's margin times its final loss.  The margin of the first four
rungs was chosen on the golden corpus, ``synth_corpus(10, 10)`` at seeds
0-9, the gap arm at seeds 11-13 and 21-22 and the criterion-05 corpus, and
every rung's sweep, and the late rung's margin, on ``synth_corpus(10, 10)``
at seeds 0-3 and the same gap arm; every corpus here is held out from all
of these choices.  A margin pin per rung, 1.2 at the first four (well inside
1.5) and 1.05 at the late one (inside 1.1), fails before a solver change or
a new rung can cost a window.

Run as a script to print, for each corpus (all by default), the largest
ratio of a winner's loss at each rung to its final loss, the share of
windows abandoned at each rung and the sweeps the race runs in all:

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
import spotalign.solver
from spotalign import synth_corpus
from spotalign.geo import project_points, unproject_points
from spotalign.pipeline import CollectedSet, RectifiedSet, raa_rectify, search_windows
from spotalign.roads import SpotType, sample_candidates
from spotalign.solver import RACE_CHECKS, SolverConfig, SolverResult, admm_solve

from conftest import exhaustive_search, gap_case, polyline_segment, straight_segment

TH = 1.0
RUNGS = [k for k, _ in RACE_CHECKS]  # the sweeps of the race's rungs
MARGINS = dict(RACE_CHECKS)
MARGIN_PINS = {1: 1.2, 2: 1.2, 4: 1.2, 8: 1.2, 10: 1.05}  # per rung, each inside the rung's margin
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
    check_losses: tuple[float, ...]  # the winner's loss after each rung's sweeps
    abandoned_at: tuple[int, ...]  # the sweep each window the race abandoned stopped at, in start order
    sweeps: int  # the race's sweeps over all windows


def outcome(segment, collected, cfg: SolverConfig) -> Outcome:
    losses = [r.loss for r in exhaustive_search(segment, collected, cfg)]
    winner = losses.index(min(losses))
    cands = sample_candidates(segment)
    pts = project_points(cands.frame, collected.points)
    window = cands.xy()[winner:winner + len(pts)]
    center = window.mean(axis=0)
    early = tuple(admm_solve(pts - center, window - center, replace(cfg, max_iters=k)).loss
                  for k in RUNGS)
    raced, sweeps, _ = search_windows(pts, cands.xy(), cfg)
    return Outcome(raa_rectify(collected, segment, TH, cfg), winner, losses[winner],
                   tuple(unproject_points(cands.frame, window)), early, tuple(sweeps[raced == math.inf].tolist()),
                   int(sweeps.sum()))


def run_corpus(name: str) -> list[Outcome]:
    build, cfg = CORPORA[name]
    return [outcome(segment, collected, cfg) for segment, collected in build()]


def worst_ratios(results: list[Outcome]) -> list[float]:
    """Per rung, the largest ratio of a winner's loss there to its final loss."""
    return [max(o.check_losses[j] / o.loss for o in results) for j in range(len(RUNGS))]


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
    assert set(sweeps[searched == math.inf].tolist()) <= set(RUNGS)
    monkeypatch.setattr(spotalign.solver, "RACE_CHECKS", ())  # a race that abandons nothing
    assert [v.hex() for v in raa_rectify(collected, segment, th=TH).window_losses] == [v.hex() for v in losses]


@pytest.mark.parametrize("name", list(CORPORA))
def test_winners_stay_inside_the_margin_at_the_check_sweep(outcomes, name):
    ratios = dict(zip(RUNGS, worst_ratios(outcomes[name])))
    assert list(MARGIN_PINS) == RUNGS
    assert all(ratios[k] <= MARGIN_PINS[k] < MARGINS[k] for k in RUNGS), (name, ratios)


def test_the_race_abandons_windows(outcomes):
    windows = [v for o in outcomes["synth-10"] for v in o.race.window_losses]
    stops = [k for o in outcomes["synth-10"] for k in o.abandoned_at]
    assert 0 < windows.count(math.inf) == len(stops) < len(windows)
    assert {RUNGS[0], RUNGS[-1]} <= set(stops) <= set(RUNGS)


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


def best_under(loss: float, margin: float) -> float:
    """The largest best finished loss whose ``margin`` multiple is under ``loss``."""
    best = loss / margin
    while margin * best >= loss:
        best = math.nextafter(best, -math.inf)
    while margin * math.nextafter(best, math.inf) < loss:
        best = math.nextafter(best, math.inf)
    return best


def best_over(loss: float, margin: float) -> float:
    """The smallest best finished loss whose ``margin`` multiple is not under ``loss``."""
    return math.nextafter(best_under(loss, margin), math.inf)


class TestAbandon:
    def test_abandoned_solve_reports_inf_unconverged_at_the_check_sweep(self):
        pts, window = drifted_window()
        assert admm_solve(pts, window).iterations > RUNGS[-1]
        got = admm_solve(pts, window, race_best=1e-9)
        assert (got.loss, got.converged, got.iterations) == (math.inf, False, RUNGS[0])

    @pytest.mark.parametrize("k", RUNGS)
    def test_bound_under_the_loss_at_a_check_sweep_abandons_there(self, k):
        # the best sits just under the loss at sweep k over that rung's margin
        pts, window = drifted_window()
        loss = loss_after(pts, window, k)
        best = best_under(loss, MARGINS[k])
        assert all(loss_after(pts, window, j) <= MARGINS[j] * best for j in RUNGS if j < k)
        got = admm_solve(pts, window, race_best=best)
        assert (got.loss, got.converged, got.iterations) == (math.inf, False, k)
        assert admm_solve(pts, window, race_best=best_over(loss, MARGINS[k])).iterations > k

    def test_infinite_bound_is_the_plain_solve(self):
        pts, window = drifted_window()
        assert same_solve(admm_solve(pts, window, race_best=math.inf), admm_solve(pts, window))

    @pytest.mark.parametrize("best", [0.0, -0.0, -1.0, math.nan])
    def test_best_not_positive_and_finite_abandons_nothing(self, best):
        # a zero best would abandon every positive loss, ties included
        pts, window = drifted_window()
        assert same_solve(admm_solve(pts, window, race_best=best), admm_solve(pts, window))

    def test_empty_table_abandons_nothing(self, monkeypatch):
        pts, window = drifted_window()
        plain = admm_solve(pts, window)
        monkeypatch.setattr(spotalign.solver, "RACE_CHECKS", ())
        assert same_solve(admm_solve(pts, window, race_best=1e-9), plain)

    def test_solve_shorter_than_the_check_sweep_is_never_abandoned(self):
        # the solve stops one sweep before a rung; the best ties its loss at
        # the earlier rungs, and the next rung's margin times it is under the
        # loss at the stop
        pts, window = drifted_window()
        stop = RUNGS[2] - 1
        assert stop not in RUNGS
        plain = admm_solve(pts, window, SolverConfig(max_iters=stop))
        best = max(best_over(loss_after(pts, window, j), MARGINS[j]) for j in RUNGS if j < stop)
        assert plain.loss > MARGINS[RUNGS[2]] * best
        got = admm_solve(pts, window, SolverConfig(max_iters=stop), race_best=best)
        assert got.iterations == stop and same_solve(got, plain)

    def test_window_tying_the_best_is_not_abandoned(self):
        pts, window = drifted_window()
        plain = admm_solve(pts, window)
        assert same_solve(admm_solve(pts, window, race_best=plain.loss), plain)

    @pytest.mark.parametrize("best", [2.0, 0.0])
    def test_bound_follows_the_best_finished_loss(self, monkeypatch, best):
        # search_windows passes the best finished loss itself, 0 included;
        # admm_solve applies the rungs' margins and the zero-best guard
        passed = []

        def fake(P, Rd, cfg, *, race_best, out=None):
            passed.append(race_best)
            return SolverResult(state=None, loss=best, iterations=1, converged=True)

        monkeypatch.setattr(spotalign.pipeline, "admm_solve", fake)
        segment, collected = synth_corpus(1, 0, seed=1)[0]
        out = raa_rectify(collected, segment, th=TH)
        assert len(passed) == len(out.window_losses) > 1
        assert passed == [math.inf] + [best] * (len(passed) - 1)
        assert out.window_start_index == 0  # every window ties: the smallest start wins


def narrow_street(rng: np.random.Generator, m: int, extra: int, curved: bool) -> tuple:
    """A street with room for M + ``extra`` candidates, so ``extra`` + 1 windows.

    The collected points are a seeded true window drifted 2.5-5 m across the
    road, turned 2-5 degrees about their centroid and jittered +-1.5 m.
    """
    length = (m + extra - 1 + 0.5) * SpotType.PARALLEL.spacing
    if curved:
        radius = rng.uniform(150.0, 400.0) * rng.choice([-1.0, 1.0])
        angles = np.linspace(0.0, length / radius, max(3, int(length // 10) + 1))
        segment = polyline_segment(radius * np.column_stack([np.sin(angles), 1.0 - np.cos(angles)]))
    else:
        segment = straight_segment(length)
    cands = sample_candidates(segment)
    m = len(cands) - extra  # keep K - M if the sampled count moved by one
    start = int(rng.integers(0, extra + 1))
    truth = cands.xy()[start:start + m]
    turn = math.radians(rng.uniform(2.0, 5.0)) * rng.choice([-1.0, 1.0])
    rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    centre = truth.mean(axis=0)
    chord = truth[-1] - truth[0]
    across = np.array([-chord[1], chord[0]]) / math.hypot(*chord)
    drifted = ((truth - centre) @ rot.T + centre + rng.uniform(2.5, 5.0) * rng.choice([-1.0, 1.0]) * across
               + rng.uniform(-1.5, 1.5, truth.shape))
    return segment, CollectedSet(segment.id, tuple(unproject_points(cands.frame, drifted)))


def test_race_on_short_nearly_full_streets():
    # K - M of 0-3 (1-4 windows), straight and curved, M of 10-30: the shape of
    # perfbench's raa-narrow corpus, where the late rung saves most
    rng = np.random.default_rng(41)
    stops = []
    for i in range(32):
        segment, collected = narrow_street(rng, 10 + (11 * i) % 21, i % 4, curved=(i // 4) % 2 == 1)
        cands, m = sample_candidates(segment), len(collected.points)
        losses = [r.loss for r in exhaustive_search(segment, collected)]
        winner = losses.index(min(losses))
        race = raa_rectify(collected, segment, th=TH)
        where = f"street {i}"
        assert len(race.window_losses) == i % 4 + 1 and not race.already_correct, where
        assert (race.window_start_index, race.loss.hex()) == (winner, losses[winner].hex()), where
        assert race.points == tuple(unproject_points(cands.frame, cands.xy()[winner:winner + m])), where
        raced, sweeps, _ = search_windows(project_points(cands.frame, collected.points), cands.xy())
        stops += sweeps[raced == math.inf].tolist()
    assert RUNGS[-1] in stops and set(stops) <= set(RUNGS)


def summary(name: str, results: list[Outcome]) -> str:
    """One line: per rung, the winners' worst ratio and the share of windows abandoned there; the race's sweeps."""
    windows = sum(len(o.race.window_losses) for o in results)
    stops = [k for o in results for k in o.abandoned_at]
    return (f"{name}: at sweeps {', '.join(map(str, RUNGS))} a winner's loss / final is at most "
            f"{', '.join(f'{r:.4f}' for r in worst_ratios(results))} and "
            f"{', '.join(f'{stops.count(k) / windows:.1%}' for k in RUNGS)} "
            f"of {windows} windows are abandoned; the race runs {sum(o.sweeps for o in results)} sweeps")


def test_script_prints_the_margin_and_abandoned_share():
    from test_golden_scripts import run_script

    (line,) = run_script("test_window_race.py", "lambda-1").splitlines()
    sweeps = ", ".join(map(str, RUNGS))
    got = re.fullmatch(rf"lambda-1: at sweeps {sweeps} a winner's loss / final is at most ([\d., ]+) "
                       rf"and ([\d.%, ]+) of \d+ windows are abandoned; the race runs \d+ sweeps", line)
    assert got, line
    ratios, shares = (group.split(", ") for group in got.groups())
    assert len(ratios) == len(shares) == len(RUNGS)
    assert all(float(r) <= MARGIN_PINS[k] for k, r in zip(RUNGS, ratios)) and all(s.endswith("%") for s in shares)


if __name__ == "__main__":
    for name in sys.argv[1:] or CORPORA:
        print(summary(name, run_corpus(name)))
