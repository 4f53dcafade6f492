"""The load driver: one single-threaded asyncio process, a capped pool of
keep-alive connections, an open-loop phase and a closed-loop saturation
phase.

Open loop: every request has a due time from the seeded schedule and its
latency is timed from that due time.  When the worker's previous response
or a free connection is not ready yet, the request goes out late and the
wait counts in its latency; the wait inherited from the worker's previous
response (``inherited``), how late the driver itself woke up
(``lateness``) and the time spent waiting for a connection are each
reported separately.  Requests due after the phase ends are not sent: the
worker leaves early.

Closed loop: a fixed set of workers completes tasks back to back on the
same connections; completions per second is the capacity.

Both phases check the serving contract from the client side: every task id
shown in any display must be new (C1/C2), and no answer may carry
``deadline_exceeded``.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.crowd.behavior import BehaviorParams, WorkerBehavior
from repro.serve.protocol import HttpClient

from schedule import WorkerPlan
from workloads import REASSIGN_AFTER

#: Latency limits of ``within_limit_share``: one batch window for a plain
#: completion, the daemon's default ``solve_budget`` for an assignment.
PLAIN_LIMIT_S = 0.050
ASSIGN_LIMIT_S = 0.500


class ConnectionPool:
    """At most ``size`` keep-alive connections, lent one request at a time.

    A freed connection goes to the longest-waiting request that will not
    wait on a solve, and only then to one that will: a completion that
    triggers a reassignment holds its connection through the batch window
    and the solve, and would otherwise make every short request queued
    behind it wait that long too, a wait no user with a connection of
    their own would see.
    """

    def __init__(self, host: str, port: int, size: int):
        self.clients = [HttpClient(host, port) for _ in range(size)]
        self._idle = list(self.clients)
        self._waiting: tuple[deque, deque] = (deque(), deque())  # short, solving
        self.in_use = 0
        self.max_in_use = 0

    async def _acquire(self, solving: bool) -> HttpClient:
        if self._idle:
            return self._idle.pop()
        waiter = asyncio.get_running_loop().create_future()
        self._waiting[solving].append(waiter)
        return await waiter

    def _release(self, client: HttpClient) -> None:
        for queue in self._waiting:
            while queue:
                waiter = queue.popleft()
                if not waiter.done():
                    waiter.set_result(client)
                    return
        self._idle.append(client)

    async def request(
        self, method: str, path: str, payload=None, solving: bool = False
    ) -> tuple[int, object, float, float]:
        """``(status, body, connection wait s, send-to-answer s)``;
        ``solving`` marks a request expected to wait on a solve."""
        asked = time.perf_counter()
        client = await self._acquire(solving)
        sent = time.perf_counter()
        self.in_use += 1
        self.max_in_use = max(self.max_in_use, self.in_use)
        try:
            status, body = await client.request(method, path, payload)
        finally:
            self.in_use -= 1
            self._release(client)
        return status, body, sent - asked, time.perf_counter() - sent

    @property
    def connections_opened(self) -> int:
        return sum(client.connections_opened for client in self.clients)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()


@dataclass
class Sample:
    """One timed request."""

    kind: str  # register | assign | plain | tasks | delete
    latency: float  # answer time minus due time
    service: float  # answer time minus send time
    lateness: float  # how late the driver woke for it
    conn_wait: float
    ok: bool
    #: How long after its due time the worker's previous answer arrived.
    inherited: float = 0.0


@dataclass
class PhaseResult:
    samples: list[Sample] = field(default_factory=list)
    #: ``(plan, [keywords of each solver-assigned task])`` per fresh display.
    assigned_sets: list[tuple[WorkerPlan, list[list[str]]]] = field(
        default_factory=list
    )
    completions: int = 0
    duration: float = 0.0
    #: Open-loop sessions cut short because their next request fell due
    #: after the phase ended.
    truncated: int = 0

    def of(self, *kinds: str) -> list[Sample]:
        return [s for s in self.samples if s.kind in kinds]


def _jaccard_distance(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 0.0
    return 1.0 - len(a & b) / len(a | b)


class Driver:
    """Shared state of one run: connections, the C1/C2 oracle, counters."""

    def __init__(self, port: int, connections: int, n_random_pad: int):
        self.pool = ConnectionPool("127.0.0.1", port, connections)
        self.n_random_pad = n_random_pad
        self.seen: set[str] = set()
        self.duplicates = 0
        self.deadline_exceeded = 0
        self.errors: list[str] = []

    def _record_display(self, task_ids: list[str]) -> None:
        for task_id in task_ids:
            if task_id in self.seen:
                self.duplicates += 1
            self.seen.add(task_id)

    async def _timed(
        self,
        result: PhaseResult,
        kind: str,
        due: float,
        method: str,
        path: str,
        payload=None,
        solving: bool = False,
    ) -> tuple[int, object]:
        ready = time.perf_counter()
        inherited = max(0.0, ready - due)
        target = max(due, ready)
        if target > ready:
            await asyncio.sleep(target - ready)
        woke = time.perf_counter()
        try:
            status, body, conn_wait, service = await self.pool.request(
                method, path, payload, solving
            )
        except (OSError, asyncio.IncompleteReadError, EOFError) as exc:
            self.errors.append(f"{method} {path}: {type(exc).__name__}: {exc}")
            result.samples.append(
                Sample(kind, time.perf_counter() - due, float("nan"),
                       woke - target, 0.0, False, inherited)
            )
            return 0, None
        if status != 200:
            self.errors.append(f"{method} {path}: HTTP {status} {body}")
        if kind == "plain" and isinstance(body, dict) and body.get("reassigned"):
            kind = "assign"
        result.samples.append(
            Sample(kind, time.perf_counter() - due, service, woke - target,
                   conn_wait, status == 200, inherited)
        )
        return status, body

    async def session(
        self,
        result: PhaseResult,
        plan: WorkerPlan,
        start: float,
        stop: "Callable[[], bool] | None" = None,
        until: float = float("inf"),
    ) -> None:
        """One worker session.  Open loop: due times from ``plan``, none
        sent after ``until``; closed loop (``stop`` given): each request due
        when the previous answer arrived, until ``stop()`` says so."""
        closed = stop is not None
        behavior = WorkerBehavior(
            plan.profile, BehaviorParams(), np.random.default_rng(plan.choice_seed)
        )
        due = time.perf_counter() if closed else start + plan.arrival
        status, body = await self._timed(
            result, "register", due, "POST", "/workers",
            {"worker_id": plan.worker_id, "keywords": list(plan.keywords)},
        )
        if status != 200:
            return
        display = body["display"]
        self._record_display([t["task_id"] for t in display["tasks"]])
        keywords = {t["task_id"]: frozenset(t["keywords"]) for t in display["tasks"]}
        pending = list(display["pending"])
        iteration = display["iteration"]
        interests = frozenset(plan.keywords)
        recent: list[frozenset] = []
        for index, offset in enumerate(plan.due_times()):
            if closed and stop():
                break
            if not closed and start + offset > until:
                result.truncated += 1
                break
            if not pending:
                self.errors.append(f"{plan.worker_id}: empty display")
                break
            window = recent[-behavior.params.novelty_window:]
            novelty = [
                float(np.mean([_jaccard_distance(keywords[t], s) for s in window]))
                if window else 1.0
                for t in pending
            ]
            relevance = [1.0 - _jaccard_distance(keywords[t], interests) for t in pending]
            pick = behavior.choose_next(np.asarray(novelty), np.asarray(relevance))
            behavior.register_completion(novelty[pick])
            task_id = pending[pick]
            recent.append(keywords[task_id])
            due = time.perf_counter() if closed else start + offset
            status, body = await self._timed(
                result, "plain", due, "POST", "/complete",
                {"worker_id": plan.worker_id, "task_id": task_id,
                 "completion_key": f"{plan.worker_id}:{index}"},
                solving=(index + 1) % REASSIGN_AFTER == 0,
            )
            if status != 200:
                return
            result.completions += 1
            if body.get("deadline_exceeded"):
                self.deadline_exceeded += 1
            display = body["display"]
            if display["iteration"] != iteration:
                iteration = display["iteration"]
                shown = [t["task_id"] for t in display["tasks"]]
                self._record_display(shown)
                keywords.update(
                    (t["task_id"], frozenset(t["keywords"])) for t in display["tasks"]
                )
                if body.get("reassigned"):
                    solver_part = display["tasks"][: len(shown) - self.n_random_pad]
                    result.assigned_sets.append(
                        (plan, [t["keywords"] for t in solver_part])
                    )
            pending = list(display["pending"])
        await self._timed(
            result, "delete", time.perf_counter(), "DELETE",
            f"/workers/{plan.worker_id}",
        )

    async def post_tasks(
        self, result: PhaseResult, posts: list[list[dict]], gap_s: float
    ) -> None:
        """``POST /tasks`` each body in turn, ``gap_s`` after the last answer."""
        for tasks in posts:
            await self._timed(
                result, "tasks", time.perf_counter(), "POST", "/tasks", {"tasks": tasks}
            )
            await asyncio.sleep(gap_s)

    async def open_loop(self, plans: list[WorkerPlan], seconds: float) -> PhaseResult:
        """Every plan's session; requests due after ``seconds`` are not sent."""
        result = PhaseResult()
        start = time.perf_counter() + 0.05
        until = start + seconds
        await asyncio.gather(
            *(self.session(result, p, start, until=until) for p in plans)
        )
        result.duration = time.perf_counter() - start
        return result

    async def saturate(
        self,
        plans: list[WorkerPlan],
        n_concurrent: int,
        seconds: float,
        max_completions: int,
    ) -> PhaseResult:
        """Closed loop: ``n_concurrent`` back-to-back sessions until
        ``seconds`` pass or ``max_completions`` are done, whichever is
        first; the cap bounds how much of the pool the phase consumes."""
        result = PhaseResult()
        queue = iter(plans)
        start = time.perf_counter()
        until = start + seconds

        def stop() -> bool:
            return (
                result.completions >= max_completions
                or time.perf_counter() >= until
            )

        async def runner() -> None:
            while not stop():
                plan = next(queue, None)
                if plan is None:
                    self.errors.append("saturation ran out of worker plans")
                    return
                await self.session(result, plan, start, stop=stop)

        runners = [asyncio.create_task(runner()) for _ in range(n_concurrent)]
        while not stop():
            await asyncio.sleep(0.002)
        completions, elapsed = result.completions, time.perf_counter() - start
        await asyncio.gather(*runners)
        result.completions, result.duration = completions, elapsed
        return result

    async def remaining_tasks(self) -> int:
        """``/healthz`` ``remaining_tasks``: tasks left to lease."""
        status, body, _, _ = await self.pool.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"GET /healthz: HTTP {status} {body}")
        return int(body["remaining_tasks"])

    async def close(self) -> None:
        await self.pool.close()
