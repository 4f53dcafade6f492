"""Traced daemon launcher: ``repro serve`` with spans around layer calls.

    PYTHONPATH=src python perfbench/launcher.py SPANS.json serve --tasks 6000 ...

Wraps the public functions each layer exposes (list in :func:`install`),
keeps every span in memory and writes them to ``SPANS.json`` when the
daemon exits (SIGINT is the graceful stop).  A span is
``{"id", "parent", "name", "start", "end", ...attributes}`` with
``perf_counter`` seconds; a span's parent is the span open in the same
asyncio task when it started.  Requests carry ``path`` and ``assign``;
solve batches carry the ``workers`` they served; each ``scheduler.wait``
runs from ``submit`` to the start of the batch that served its worker.
The program itself is not modified.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import time
from pathlib import Path


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        #: worker id -> open ``scheduler.wait`` spans, closed by its batch.
        self.waiting: dict[str, list[dict]] = {}

    def begin(self, name: str, start: float | None = None, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self.current.get(),
            "name": name,
            "start": time.perf_counter() if start is None else start,
            "end": None,
            **attrs,
        }
        self.spans.append(span)
        return span

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``describe(args, result)`` returns extra attributes for the span.
        """
        original = getattr(owner, attr)
        recorder = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span = recorder.begin(name)
                token = recorder.current.set(span["id"])
                try:
                    result = await original(*args, **kwargs)
                finally:
                    recorder.current.reset(token)
                    span["end"] = time.perf_counter()
                if describe is not None:
                    span.update(describe(args, result))
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = recorder.begin(name)
                token = recorder.current.set(span["id"])
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.current.reset(token)
                    span["end"] = time.perf_counter()
                if describe is not None:
                    span.update(describe(args, result))
                return result

        setattr(owner, attr, wrapper)

    def wrap_submit(self, scheduler_cls) -> None:
        """``SolveScheduler.submit`` opens a ``scheduler.wait`` span."""
        original = scheduler_cls.submit
        recorder = self

        @functools.wraps(original)
        def submit(scheduler, worker_id, *args, **kwargs):
            span = recorder.begin("scheduler.wait", worker=worker_id)
            recorder.waiting.setdefault(worker_id, []).append(span)
            return original(scheduler, worker_id, *args, **kwargs)

        scheduler_cls.submit = submit

    def wrap_batch(self, daemon_cls) -> None:
        """The in-loop batch: closes its workers' waits, then runs as a root
        span listing the workers it served."""
        original = daemon_cls._solve_batch
        recorder = self

        @functools.wraps(original)
        def solve_batch(daemon, worker_ids, *args, **kwargs):
            started = time.perf_counter()
            for worker_id in worker_ids:
                for wait in recorder.waiting.pop(worker_id, []):
                    wait["end"] = started
            span = recorder.begin("batch", start=started, workers=list(worker_ids))
            token = recorder.current.set(span["id"])
            try:
                return original(daemon, worker_ids, *args, **kwargs)
            finally:
                recorder.current.reset(token)
                span["end"] = time.perf_counter()

        daemon_cls._solve_batch = solve_batch


def _request_attrs(args, response) -> dict:
    request = args[1]
    return {
        "path": request.path,
        "method": request.method,
        "assign": b'"reassigned":true' in response,
    }


def _prepare_attrs(args, prepared) -> dict:
    return {"candidates": 0 if prepared is None else len(prepared.candidates)}


def _commit_attrs(args, events) -> dict:
    assigned = args[2]
    return {
        "solver_tasks": sum(len(assigned.get(w, ())) for w in events),
        "reassigned": len(events),
        "x_max": args[0].config.x_max,
    }


def install(recorder: SpanRecorder) -> None:
    from repro.core import qap
    from repro.core.solvers import pipeline
    from repro.core.solvers.base import iter_solvers
    from repro.crowd.service import AssignmentService
    from repro.serve import app, protocol
    from repro.serve.cache import IncrementalDiversityCache
    from repro.serve.replay import FlightRecorder
    from repro.serve.scheduler import SolveScheduler

    wrap = recorder.wrap
    wrap(app.AssignmentDaemon, "_dispatch", "app.request", _request_attrs)
    wrap(app.AssignmentDaemon, "snapshot_now", "app.snapshot")
    for attr in [a for a in vars(FlightRecorder) if a.startswith("record_")]:
        wrap(FlightRecorder, attr, "app.journal")
    wrap(protocol.Request, "json", "protocol.decode")
    wrap(protocol, "json_response", "protocol.encode")
    app.json_response = protocol.json_response
    recorder.wrap_submit(SolveScheduler)
    recorder.wrap_batch(app.AssignmentDaemon)
    wrap(AssignmentService, "prepare_solve", "service.prepare", _prepare_attrs)
    wrap(AssignmentService, "commit_solve", "service.commit", _commit_attrs)
    wrap(AssignmentService, "observe_completion", "service.observe")
    wrap(AssignmentService, "admit_tasks", "service.admit")
    for solver_cls in iter_solvers():
        if "solve" in vars(solver_cls):
            wrap(solver_cls, "solve", "solver.solve")
    wrap(pipeline, "build_encoding", "solver.encode")
    wrap(pipeline, "_diversity_matching", "solver.matching")
    wrap(qap.QAPEncoding, "profit_matrix", "solver.profits")
    wrap(pipeline, "solve_lsap", "solver.lsap")
    wrap(pipeline, "_best_swap", "solver.decode")
    wrap(IncrementalDiversityCache, "__init__", "diversity.build")
    wrap(IncrementalDiversityCache, "submatrix", "diversity.carve")
    wrap(IncrementalDiversityCache, "on_added", "diversity.append")


def main(argv: list[str]) -> int:
    out, serve_argv = Path(argv[0]), argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        out.write_text(json.dumps(recorder.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
