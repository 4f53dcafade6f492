"""Off-loop parallel solve engine.

The in-loop solve path runs synchronous numpy code on the event loop; every
batched HTA solve therefore stalls request handling for its full duration.
:class:`SolveEngine` moves the solve itself into a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* **prepare** (event loop) — :meth:`AssignmentService.prepare_solve` leases
  a disjoint candidate set out of the pool and builds a picklable
  :class:`~repro.crowd.service.PreparedSolve`;
* **solve** (worker process) — :func:`_solve_request` runs the named solver
  on the shipped :class:`~repro.core.instance.HTAInstance` with a seeded
  RNG and returns the per-worker task ids plus its own wall time;
* **commit** (event loop) — :meth:`AssignmentService.commit_solve` restores
  the lease and installs the displays through the normal removal path.

Worker processes keep *warm* solver instances: the pool initializer
resolves every solver tier of the degradation ladder once per process, so a
tier switch under overload never pays construction cost mid-solve.  The
wall times measured inside the worker (unpickle and solve) travel back with
the outcome — the solve time is the degradation controller's solve-budget
signal, unchanged in meaning across the process boundary (queueing time is
deliberately excluded; the controller budgets the solver, not the pool) —
and both become trace spans in every member request's trace.

A worker process dying mid-solve (OOM killer, fault injection) breaks the
whole :class:`ProcessPoolExecutor`, not just the one future; the engine
catches that, rebuilds a fresh warm pool, and fails only the affected
batch, so one crashed solve never takes the daemon's solve capacity down
with it (``serve_engine_pool_rebuilds_total`` counts these).
"""

from __future__ import annotations

import asyncio
import copy
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from ..core.instance import HTAInstance
from ..core.keywords import Vocabulary
from ..core.solvers import get_solver
from ..core.task import TaskPool
from ..core.worker import MotivationWeights, Worker, WorkerPool
from ..crowd.events import TasksAssigned
from ..perf.lsap_kernels import warm_context
from . import shm
from .metrics import MetricsRegistry, SolverPhaseMetrics
from .tracing import SolveContext, Span, SpanMetrics

if TYPE_CHECKING:
    from ..crowd.service import AssignmentService
    from .shm import ShmSegmentRef, TaskMatrixStore

#: Per-process warm solver cache, filled by the pool initializer.
_WARM_SOLVERS: dict[str, object] = {}

#: Per-process synthetic vocabularies keyed by keyword count; candidate
#: pools rebuilt from shared-memory rows only need *aligned* vectors, not
#: the daemon's keyword names, so one vocabulary per width is enough.
_SYNTH_VOCABS: dict[int, Vocabulary] = {}


def _synthetic_vocabulary(n_bits: int) -> Vocabulary:
    vocab = _SYNTH_VOCABS.get(n_bits)
    if vocab is None:
        vocab = _SYNTH_VOCABS[n_bits] = Vocabulary(
            [f"k{i}" for i in range(n_bits)]
        )
    return vocab


def _prewarm_instance() -> HTAInstance:
    """A tiny synthetic instance for first-dispatch warm-up solves."""
    rng = np.random.default_rng(0)
    vocab = _synthetic_vocabulary(8)
    matrix = rng.random((6, 8)) < 0.5
    tasks = TaskPool.from_trusted_matrix(
        [str(i) for i in range(6)], matrix, vocab
    )
    workers = WorkerPool(
        (Worker(f"w{i}", rng.random(8) < 0.5) for i in range(2)), vocab
    )
    return HTAInstance(tasks, workers, x_max=2)


def _warm_worker(
    solver_names: tuple[str, ...],
    shm_ref: "ShmSegmentRef | None" = None,
) -> None:
    """Pool initializer: make the first real dispatch indistinguishable
    from the hundredth.

    Resolving a solver tier is cheap; the expensive first-solve misses are
    the lazy numpy/solver code paths behind it — so each ladder tier runs
    one throwaway solve on a tiny synthetic instance here, off the serving
    clock.  The current shared-memory segment is decoded up front for the
    same reason, and workers nice themselves so the event loop wins the
    scheduler when a solve and request handling timeshare a core.
    """
    try:
        os.nice(5)
    except OSError:
        pass
    instance = _prewarm_instance()
    for name in solver_names:
        solver = _WARM_SOLVERS[name] = get_solver(name)
        try:
            solver.solve(instance, np.random.default_rng(0))
        except Exception:
            pass  # pre-warm must never break the pool
    shm.prefetch(shm_ref)


@dataclass(frozen=True)
class EngineRequest:
    """The picklable slice of a prepared solve shipped to a worker process.

    ``trace_id`` is the first member trace's id (debug correlation only);
    ``crash`` is the fault-injection seam — a worker receiving it dies
    mid-solve exactly like an OOM-killed process would.
    """

    worker_ids: tuple[str, ...]
    instance: "HTAInstance"
    solver_name: str
    seed: int
    trace_id: str | None = None
    crash: bool = False


@dataclass(frozen=True)
class ShmSolveRequest:
    """The zero-copy solve request: index arrays instead of an instance.

    The candidate keyword matrix lives in the shared-memory segment named
    by ``segment``; ``row_indices`` carve the candidate slice in lease
    order.  Only the per-batch worker data (a few dozen boolean rows plus
    alpha/beta vectors) rides the pickle — the payload is hundreds of
    bytes where :class:`EngineRequest` shipped the whole instance.

    The worker rebuilds the instance with *synthetic* task ids (``"0"`` …
    ``"k-1"``, the candidate positions); the engine translates them back to
    real ids before committing, so journals and displays are byte-identical
    to the pickled path.
    """

    worker_ids: tuple[str, ...]
    worker_matrix: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray
    segment: "ShmSegmentRef"
    row_indices: np.ndarray
    x_max: int
    solver_name: str
    seed: int
    trace_id: str | None = None
    crash: bool = False


@dataclass(frozen=True)
class EngineOutcome:
    """What a worker process sends back: the assignment and its cost.

    ``solve_seconds`` and ``unpickle_seconds`` are wall times measured
    *inside* the worker — real stage durations for the request traces, not
    loop-side approximations.  ``solve_cpu_seconds`` is the same solve leg
    on the worker's process-CPU clock: on a host where solver processes
    timeshare a core, it isolates the solver's actual cost from scheduling
    delay (the signal the pre-warm parity gate watches).  ``phase_seconds``
    is the solver's own per-phase breakdown of the solve leg.
    """

    assigned: dict[str, tuple[str, ...]]
    objective: float
    solve_seconds: float
    pid: int
    unpickle_seconds: float = 0.0
    solve_cpu_seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)


def _solve_blob(blob: bytes) -> EngineOutcome:
    """Unpickle an :class:`EngineRequest` shipped as bytes and solve it.

    The engine pickles the request itself on the event loop so the
    serialization cost is *measured* as loop occupancy instead of hiding in
    the executor's feeder thread; shipping pre-pickled bytes through the
    pool is then a cheap memcpy.
    """
    started = time.perf_counter()
    request = pickle.loads(blob)
    unpickle_seconds = time.perf_counter() - started
    if isinstance(request, ShmSolveRequest):
        outcome = _solve_shm_request(request)
    else:
        outcome = _solve_request(request)
    return replace(outcome, unpickle_seconds=unpickle_seconds)


def _warm_solver(solver_name: str):
    solver = _WARM_SOLVERS.get(solver_name)
    if solver is None:  # cold fallback, e.g. a tier added after pool start
        solver = _WARM_SOLVERS[solver_name] = get_solver(solver_name)
    return solver


def _solve_request(request: EngineRequest) -> EngineOutcome:
    """Run one HTA solve in a pool worker (module-level: must pickle)."""
    if request.crash:
        # Injected worker death: skip every interpreter-level cleanup, like
        # a SIGKILL would.  The parent sees a BrokenProcessPool.
        os._exit(1)
    solver = _warm_solver(request.solver_name)
    rng = np.random.default_rng(request.seed)
    started = time.perf_counter()
    cpu_started = time.process_time()
    with warm_context(request.worker_ids):
        result = solver.solve(request.instance, rng)
    cpu_elapsed = time.process_time() - cpu_started
    elapsed = time.perf_counter() - started
    assigned = {
        w: tuple(result.assignment.tasks_of(w)) for w in request.worker_ids
    }
    return EngineOutcome(
        assigned, float(result.objective), elapsed, os.getpid(),
        solve_cpu_seconds=cpu_elapsed, phase_seconds=result.timings,
    )


def _solve_shm_request(request: ShmSolveRequest) -> EngineOutcome:
    """Rebuild the instance from shared-memory rows and solve it.

    The candidate matrix is a fancy-index into this process's decoded copy
    of the segment; tasks get synthetic positional ids and a per-width
    synthetic vocabulary (solvers consume only matrices and weights — ids
    are output labels, translated back on the loop).  Both distance
    matrices are recomputed from the boolean rows exactly as the pickled
    path's workers do, so the solve is bit-identical to shipping the
    instance.
    """
    if request.crash:
        os._exit(1)
    dense = shm.attach_dense(request.segment)
    candidate_matrix = dense[request.row_indices]
    vocabulary = _synthetic_vocabulary(request.segment.n_bits)
    tasks = TaskPool.from_trusted_matrix(
        [str(i) for i in range(len(request.row_indices))],
        candidate_matrix,
        vocabulary,
    )
    workers = WorkerPool(
        (
            Worker(wid, vector, MotivationWeights(float(alpha), float(beta)))
            for wid, vector, alpha, beta in zip(
                request.worker_ids,
                request.worker_matrix,
                request.alphas,
                request.betas,
            )
        ),
        vocabulary,
    )
    instance = HTAInstance(tasks, workers, request.x_max)
    solver = _warm_solver(request.solver_name)
    rng = np.random.default_rng(request.seed)
    started = time.perf_counter()
    cpu_started = time.process_time()
    with warm_context(request.worker_ids):
        result = solver.solve(instance, rng)
    cpu_elapsed = time.process_time() - cpu_started
    elapsed = time.perf_counter() - started
    assigned = {
        w: tuple(result.assignment.tasks_of(w)) for w in request.worker_ids
    }
    return EngineOutcome(
        assigned, float(result.objective), elapsed, os.getpid(),
        solve_cpu_seconds=cpu_elapsed, phase_seconds=result.timings,
    )


class SolveEngine:
    """Ships scheduler batches to a warm process pool and commits the results.

    Args:
        service: The assignment service owning pool, workers, and displays.
        registry: Metrics sink; the engine owns the ``serve_engine_*``
            family (worker/queue/in-flight gauges, solve counter + errors,
            pool rebuilds, in-worker solve-seconds histogram), updated
            through one :class:`SpanMetrics` seam.
        n_workers: Solver processes to keep warm (the ``--solver-workers``
            flag; the daemon only builds an engine when it is positive).
        solver_names: Solver tiers to pre-construct in every worker.
        shm_store: Optional :class:`~repro.serve.shm.TaskMatrixStore`; when
            set, solves whose candidates are covered by the store ship as
            zero-copy index requests instead of pickled instances (the
            pickled path remains the automatic fallback).
    """

    def __init__(
        self,
        service: "AssignmentService",
        registry: MetricsRegistry,
        n_workers: int,
        solver_names: tuple[str, ...] = (),
        shm_store: "TaskMatrixStore | None" = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._service = service
        self.n_workers = n_workers
        self._solver_names = tuple(solver_names)
        self._shm = shm_store
        #: Optional :class:`repro.serve.replay.FlightRecorder`; when set, the
        #: engine journals lease/commit/abandon in event-loop order — the
        #: interleaving concurrency would otherwise erase.
        self.recorder = None
        self._executor = self._new_executor()
        self._slots = asyncio.Semaphore(n_workers)
        self._closed = False
        registry.gauge(
            "serve_engine_workers", "Solver worker processes in the pool"
        ).set(n_workers)
        self._queue_depth = registry.gauge(
            "serve_engine_queue_depth",
            "Solve batches waiting for a free worker process",
        )
        self._in_flight = registry.gauge(
            "serve_engine_in_flight",
            "Solve batches currently executing in worker processes",
        )
        self._rebuilds = registry.counter(
            "serve_engine_pool_rebuilds_total",
            "Process pools rebuilt after a worker died mid-solve",
        )
        self._span_metrics = SpanMetrics().route(
            "solve",
            seconds=registry.histogram(
                "serve_engine_solve_seconds",
                "Solver wall time per batch, measured inside the worker process",
            ),
            count=registry.counter(
                "serve_engine_solves_total", "Solve batches executed off-loop"
            ),
            errors=registry.counter(
                "serve_engine_solve_errors_total",
                "Off-loop solve batches that raised",
            ),
        ).route(
            "engine_loop",
            seconds=registry.histogram(
                "serve_engine_loop_seconds",
                "Event-loop occupancy per off-loop solve: prepare + request "
                "serialization + commit (the non-overlappable cost)",
            ),
        ).route(
            "pickle",
            seconds=registry.histogram(
                "serve_engine_pickle_seconds",
                "Request-serialization leg per batch: row lookup + segment "
                "pin + pickle.dumps under zero-copy shipping, full instance "
                "pickling under the fallback",
            ),
        ).route(
            "unpickle",
            seconds=registry.histogram(
                "serve_engine_unpickle_seconds",
                "Worker-side request deserialization per batch, measured "
                "inside the worker process",
            ),
        )
        self._payload_bytes = registry.histogram(
            "serve_engine_payload_bytes",
            "Pickled request size per batch shipped to the worker pool",
        )
        self._solve_cpu = registry.histogram(
            "serve_engine_solve_cpu_seconds",
            "Solver process-CPU time per batch: the solve leg minus any "
            "core timesharing delay (pre-warm parity signal)",
        )
        self._solver_phases = SolverPhaseMetrics(registry)

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_warm_worker,
            initargs=(
                self._solver_names,
                self._shm.current_ref() if self._shm is not None else None,
            ),
        )

    def _rebuild_pool(self) -> None:
        """Replace a broken executor with a fresh warm pool.

        The broken pool's shutdown is non-blocking (its processes are
        already dead); in-flight futures were failed by the executor
        itself.  Without this, one crashed worker would permanently wedge
        every future solve behind ``BrokenProcessPool``.
        """
        broken = self._executor
        self._executor = self._new_executor()
        self._rebuilds.inc()
        broken.shutdown(wait=False, cancel_futures=True)

    async def solve_batch(
        self,
        worker_ids,
        wall_time: float,
        solver_name: str | None = None,
        session_times: dict[str, float] | None = None,
        ctx: SolveContext | None = None,
        crash: bool = False,
    ) -> tuple[dict[str, TasksAssigned], float]:
        """Prepare on the loop, solve in a worker process, commit on the loop.

        Returns ``(events, solve_seconds)`` where ``solve_seconds`` is the
        solver wall time measured *inside* the worker — the degradation
        controller's budget signal — and ``0.0`` when there was nothing to
        solve.  On a worker-side failure the lease is released untouched,
        the pool is rebuilt if the failure killed it, and the exception
        propagates (the scheduler fails that batch's waiters).  Stage spans
        (pool_wait / prepare / pickle / unpickle / solve / commit) land in
        ``ctx``; ``crash`` ships an injected worker death with the request.
        """
        if self._closed:
            raise RuntimeError("solve engine is closed")
        ctx = ctx if ctx is not None else SolveContext()
        self._queue_depth.inc()
        try:
            with ctx.span("pool_wait"):
                await self._slots.acquire()
        finally:
            self._queue_depth.dec()
        shm_ref = None
        try:
            with ctx.span("prepare") as prepare_span:
                prepared = self._service.prepare_solve(worker_ids, solver_name)
            if prepared is None:
                return {}, 0.0
            if self.recorder is not None:
                self.recorder.record_lease(prepared, ctx.attrs.get("trace_ids"))
            with ctx.span("pickle") as pickle_span:
                rows = (
                    self._shm.rows_for(prepared.candidates)
                    if self._shm is not None
                    else None
                )
                if rows is not None:
                    # Zero-copy: the candidate matrix already lives in the
                    # shared segment; ship row indices plus the per-batch
                    # worker rows and pin the segment version until the
                    # outcome lands.
                    shm_ref = self._shm.acquire()
                    request = ShmSolveRequest(
                        worker_ids=tuple(prepared.worker_ids),
                        worker_matrix=prepared.instance.workers.matrix,
                        alphas=prepared.instance.alphas(),
                        betas=prepared.instance.betas(),
                        segment=shm_ref,
                        row_indices=rows,
                        x_max=prepared.instance.x_max,
                        solver_name=prepared.solver_name,
                        seed=prepared.seed,
                        trace_id=ctx.attrs.get("trace_id"),
                        crash=crash,
                    )
                else:
                    # Pickled fallback: ship bits, not floats — drop the
                    # primed (k, k) diversity matrix from the pickled copy;
                    # the worker recomputes it bit-identically from the
                    # boolean keyword matrix.
                    slim_instance = copy.copy(prepared.instance)
                    slim_instance.__dict__.pop("diversity", None)
                    request = EngineRequest(
                        worker_ids=tuple(prepared.worker_ids),
                        instance=slim_instance,
                        solver_name=prepared.solver_name,
                        seed=prepared.seed,
                        trace_id=ctx.attrs.get("trace_id"),
                        crash=crash,
                    )
                blob = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
            ctx.attrs.setdefault("tier", prepared.solver_name)
            ctx.attrs["payload_bytes"] = len(blob)
            ctx.attrs["shipping"] = "shm" if shm_ref is not None else "pickle"
            self._span_metrics.observe(pickle_span)
            self._payload_bytes.observe(len(blob))
            loop = asyncio.get_running_loop()
            self._in_flight.inc()
            dispatched = time.perf_counter()
            try:
                outcome = await loop.run_in_executor(
                    self._executor, _solve_blob, blob
                )
            except BaseException as exc:
                error_span = Span(
                    "solve",
                    start=dispatched,
                    duration=time.perf_counter() - dispatched,
                    attrs={"tier": prepared.solver_name},
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
                ctx.spans.append(error_span)
                self._span_metrics.observe(error_span)
                self._service.abandon_solve(prepared)
                if self.recorder is not None:
                    self.recorder.record_abandon(prepared)
                if isinstance(exc, BrokenProcessPool) and not self._closed:
                    self._rebuild_pool()
                raise
            finally:
                self._in_flight.dec()
            # The worker measured unpickle and solve with its own clock;
            # durations are exact, starts are placed inside the dispatch
            # window (attrs say so).
            unpickle_span = ctx.add_span(
                "unpickle",
                outcome.unpickle_seconds,
                abs_start=dispatched,
                measured="worker",
                pid=outcome.pid,
            )
            self._span_metrics.observe(unpickle_span)
            solve_span = ctx.add_span(
                "solve",
                outcome.solve_seconds,
                abs_start=dispatched + outcome.unpickle_seconds,
                measured="worker",
                pid=outcome.pid,
                tier=prepared.solver_name,
            )
            self._span_metrics.observe(solve_span)
            self._solve_cpu.observe(outcome.solve_cpu_seconds)
            self._solver_phases.observe(
                prepared.solver_name, outcome.phase_seconds
            )
            assigned = outcome.assigned
            if shm_ref is not None:
                # The worker solved against synthetic positional ids;
                # translate back to real task ids so commits, journals,
                # and replays are byte-identical to the pickled path.
                candidates = prepared.candidates
                assigned = {
                    w: tuple(candidates[int(s)].task_id for s in ids)
                    for w, ids in assigned.items()
                }
            with ctx.span("commit") as commit_span:
                events = self._service.commit_solve(
                    prepared, assigned, wall_time, session_times
                )
                if self.recorder is not None:
                    self.recorder.record_commit(prepared, wall_time, events)
            loop_busy = (
                prepare_span.duration + pickle_span.duration + commit_span.duration
            )
            self._span_metrics.observe(Span("engine_loop", 0.0, loop_busy))
            return events, outcome.solve_seconds
        finally:
            if shm_ref is not None:
                self._shm.release(shm_ref.version)
            self._slots.release()

    async def quiesce(self) -> None:
        """Wait until no solve occupies a worker slot (drain support).

        Acquiring every slot forces this coroutine behind all in-flight
        solves on the same semaphore the dispatch path uses, so when it
        returns the pool is momentarily empty; the slots are released
        immediately — quiesce observes idleness, it does not lock the
        engine down (the caller stops feeding it first).
        """
        for _ in range(self.n_workers):
            await self._slots.acquire()
        for _ in range(self.n_workers):
            self._slots.release()

    def describe(self) -> dict:
        """Healthz block: pool size and current load."""
        info = {
            "workers": self.n_workers,
            "queue_depth": int(self._queue_depth.value),
            "in_flight": int(self._in_flight.value),
            "solves": int(self._solves_value()),
            "pool_rebuilds": int(self._rebuilds.value),
            "shared_memory": self._shm is not None,
        }
        if self._shm is not None:
            info["shm_version"] = self._shm.version
            info["shm_rows"] = self._shm.n_rows
        return info

    def _solves_value(self) -> float:
        return self._span_metrics._routes["solve"]["count"].value

    async def close(self) -> None:
        """Shut the worker pool down without blocking the event loop."""
        if self._closed:
            return
        self._closed = True
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self._executor.shutdown(wait=True, cancel_futures=True)
        )
