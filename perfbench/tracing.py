"""In-memory span recorder installed around spotalign's public functions.

Each wrapper replaces a module attribute (``spotalign.pipeline.admm_solve``,
``spotalign.solver.warp_values``, ...) so that the library's own callers go
through it.  Nothing is installed unless a traced run asks for it, and
``uninstall`` puts every original back.

A span is one call: its name, parent span, the harness request it belongs
to (one segment, or one CLI command), the pass index, start and end times,
self time (duration minus the time covered by child spans) and an optional
``info`` value taken from the call (points projected, sweeps run, ...).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    request: str | None
    pass_index: int
    name: str
    start: float
    end: float
    self_s: float
    info: Any = None

    @property
    def dur_s(self) -> float:
        return self.end - self.start


def _points(args, result):
    return len(args[1])


def _solve_info(args, result):
    return [result.iterations, result.converged]


def _raa_info(args, result):
    return [0 if result.window_losses is None else len(result.window_losses), result.already_correct]


def _dataset_rows(args, result):
    truth = sum(len(c.ground_truth) for c in result.collected.values() if c.ground_truth is not None)
    return (sum(len(s.polyline) for s in result.segments.values())
            + sum(len(c.points) for c in result.collected.values()) + truth)


def _bytes(args, result):
    return len(args[1].encode("utf-8"))


# (module, attribute, span name or name-from-args, info extractor); the
# module is the one whose callers look the name up, so the wrapper sits on
# the boundary between the caller's layer and the callee's.
WRAPPED: tuple[tuple[str, str, str | Callable, Callable | None], ...] = (
    ("spotalign.pipeline", "admm_solve", "solver.admm_solve", _solve_info),
    ("spotalign.solver", "warp_values", "rigid.warp_values", None),
    ("spotalign.solver", "jacobian_values", "rigid.jacobian_values", None),
    ("spotalign.pipeline", "sample_candidates", "roads.sample_candidates", lambda a, r: len(r)),
    ("spotalign.bench", "sample_candidates", "roads.sample_candidates", lambda a, r: len(r)),
    ("spotalign.cli", "sample_candidates", "roads.sample_candidates", lambda a, r: len(r)),
    ("spotalign.pipeline", "project_points", "geo.project_points", _points),
    ("spotalign.roads", "project_points", "geo.project_points", _points),
    ("spotalign.bench", "project_points", "geo.project_points", _points),
    ("spotalign.pipeline", "unproject_points", "geo.unproject_points", _points),
    ("spotalign.pipeline", "raa_rectify", "pipeline.raa_rectify", _raa_info),
    ("spotalign.pipeline", "baseline_rectify", lambda args: f"matchers.baseline_rectify.{args[2]}", None),
    ("spotalign.matchers", "linear_sum_assignment", "matchers.linear_sum_assignment", None),
    ("spotalign.matchers", "linprog", "matchers.linprog", None),
    ("spotalign.dataio", "load_dataset", "dataio.load_dataset", _dataset_rows),
    ("spotalign.cli", "load_dataset", "dataio.load_dataset", _dataset_rows),
    ("spotalign.cli", "render_csv", "dataio.render_csv", None),
    ("spotalign.cli", "atomic_write_text", "dataio.atomic_write_text", _bytes),
    ("spotalign.bench", "evaluate_segments", "metrics.evaluate_segments", None),
    ("spotalign.bench", "evaluate_by_class", "bench.evaluate_by_class", None),
    ("spotalign.bench", "candidate_rows", "bench.candidate_rows", None),
    ("spotalign.bench", "run_method", "bench.run_method", None),
)


class Tracer:
    """Records nested spans in memory; single-threaded by construction."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_index = 0
        self.request: str | None = None
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._next_id = 0
        self._originals: list[tuple[Any, str, Any]] = []

    def _enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self, info_fn: Callable | None = None, args=None, result=None) -> None:
        end = time.perf_counter()
        info = info_fn(args, result) if info_fn is not None else None
        span_id, name, start, child_s = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append(Span(span_id, parent[0] if parent else None, self.request,
                               self.pass_index, name, start, end, dur - child_s, info))

    @contextmanager
    def span(self, name: str, request: str | None = None):
        """A harness-level root span (one segment or one CLI command)."""
        self.request = request
        self._enter(name)
        try:
            yield
        finally:
            self._exit()
            self.request = None

    def install(self) -> None:
        for module_name, attr, name, info in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, info):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit()
                raise
            tracer._exit(info, args, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.request, s.pass_index, s.name,
                                     s.start, s.end, s.self_s, s.info]) + "\n")
