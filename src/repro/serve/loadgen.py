"""Closed-loop load generator for the assignment daemon.

Simulates a crowd of workers against a running daemon over real sockets:
each worker registers with sampled interest keywords, then loops — pick a
pending task with the softmax choice model from :mod:`repro.crowd.behavior`
(novelty/relevance computed client-side from the keyword sets the daemon
returns), optionally think, ``POST /complete``, absorb the refreshed display
— until its completion budget or the pool runs out.

Besides driving load, the generator *verifies* the serving contract from the
client side: every task id shown across every display of every worker must
be globally unique (the paper drops displayed tasks from subsequent
iterations, so a duplicate means the daemon re-served a task).  Violations,
error responses and per-request latency quantiles are all in the
:class:`LoadgenResult`, and :func:`main` exits non-zero when the run was not
clean — which is what the CI smoke test keys off.

Run standalone against a live daemon::

    python -m repro.serve.loadgen --port 8080 --workers 50 --completions 10

or self-contained (spawns an in-process daemon on an ephemeral port)::

    python -m repro.serve.loadgen --spawn-server --workers 50
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from ..crowd.behavior import (
    BehaviorParams,
    Persona,
    WorkerBehavior,
    sample_latent_profiles,
    sample_personas,
)
from ..quality.gold import _digest, truth_label
from ..rng import ensure_rng
from .metrics import Histogram
from .protocol import HttpClient, install_uvloop


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one load-generation run."""

    host: str = "127.0.0.1"
    port: int = 8080
    n_workers: int = 50
    completions_per_worker: int = 10
    n_keywords: int = 6
    think_time: float = 0.0  # mean seconds between completions (0 = slam)
    spawn_delay: float = 0.0  # mean stagger between worker arrivals
    seed: int = 0
    max_retries: int = 3  # per logical request, on transport errors and 5xx
    backoff_base: float = 0.05  # first retry delay; doubles per attempt
    backoff_cap: float = 1.0  # ceiling on any single backoff sleep
    request_deadline: float = 0.0  # seconds per logical request (0 = none);
    # the remaining budget is propagated to the daemon via x-deadline-ms
    #: When > 0, workers answer every completion with an integer label in
    #: ``[0, answer_labels)`` derived from the displayed keywords — the same
    #: content hash the daemon's quality layer uses, so honest answers score
    #: as correct on gold probes.  0 sends no answers (the seed protocol).
    answer_labels: int = 0
    #: Must match the daemon's ``GoldConfig.seed`` for truth labels to agree.
    quality_seed: int = 0
    #: Adversarial persona mix (fractions of ``n_workers``; the rest are
    #: honest).  See :func:`repro.crowd.behavior.sample_personas`.
    spammer_fraction: float = 0.0
    drifting_fraction: float = 0.0
    colluder_fraction: float = 0.0
    clique_size: int = 3
    drift_per_task: float = 0.03
    #: Open-world arrivals: while workers run, a driver coroutine POSTs new
    #: tasks to ``/tasks``.  ``None`` disables (closed-world, the seed
    #: behavior); ``"trickle"`` posts single tasks at a steady interval;
    #: ``"burst"`` posts batches whose members share a perturbed base
    #: keyword set (correlated similarity, the diversity cache's worst
    #: case); ``"spike"`` posts everything in one entry-rush batch.
    arrival_pattern: str | None = None
    arrival_tasks: int = 0  # total tasks the driver injects over the run
    arrival_batch: int = 5  # batch size for "burst" (others ignore it)
    arrival_interval: float = 0.05  # seconds between arrival posts

    def __post_init__(self) -> None:
        if self.arrival_pattern not in (None, "trickle", "burst", "spike"):
            raise ValueError(
                f"arrival_pattern must be one of trickle/burst/spike/None, "
                f"got {self.arrival_pattern!r}"
            )
        if self.arrival_pattern is not None and self.arrival_tasks < 1:
            raise ValueError(
                "arrival_tasks must be >= 1 when an arrival_pattern is set"
            )
        if self.arrival_tasks < 0:
            raise ValueError(
                f"arrival_tasks must be >= 0, got {self.arrival_tasks}"
            )
        if self.arrival_batch < 1:
            raise ValueError(
                f"arrival_batch must be >= 1, got {self.arrival_batch}"
            )
        if self.arrival_interval < 0:
            raise ValueError(
                f"arrival_interval must be >= 0, got {self.arrival_interval}"
            )
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.answer_labels < 0:
            raise ValueError(
                f"answer_labels must be >= 0, got {self.answer_labels}"
            )
        if self.answer_labels == 1:
            raise ValueError("answer_labels needs at least 2 labels (or 0)")
        if (
            self.spammer_fraction or self.drifting_fraction
            or self.colluder_fraction
        ) and self.answer_labels == 0:
            raise ValueError(
                "adversarial personas need answer_labels > 0 to matter"
            )
        if self.completions_per_worker < 1:
            raise ValueError(
                f"completions_per_worker must be >= 1, "
                f"got {self.completions_per_worker}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.request_deadline < 0:
            raise ValueError(
                f"request_deadline must be >= 0, got {self.request_deadline}"
            )


@dataclass
class LoadgenResult:
    """What happened, plus the client-side contract checks."""

    workers_started: int = 0
    workers_finished: int = 0
    completions: int = 0
    displays_received: int = 0
    reassignments: int = 0
    http_errors: int = 0
    transport_errors: int = 0
    retries: int = 0
    deadline_exceeded_responses: int = 0
    #: Responses served from the daemon's idempotency caches — a retried
    #: completion answered with the original event, or a retried
    #: registration answered with the current display.  Nonzero only when
    #: responses were lost (chaos) and the retry was absorbed cleanly.
    deduplicated_responses: int = 0
    #: Open-world arrivals posted by the arrival driver (when configured).
    tasks_posted: int = 0
    arrival_batches: int = 0
    #: Arrival POSTs the daemon rejected (4xx/409) or that exhausted their
    #: transport retries — any of these makes the run unclean.
    arrival_failures: int = 0
    duplicate_display_violations: int = 0
    duration_seconds: float = 0.0
    requests: int = 0
    #: TCP connections the run opened, summed over every client (workers,
    #: arrival driver, probe).  With keep-alive working this stays near
    #: ``n_workers + 2``; anything close to ``requests`` means every request
    #: paid a fresh TCP handshake.
    connections_opened: int = 0
    #: Responses that carried an ``x-trace-id`` header (sampled requests).
    traced_requests: int = 0
    #: trace_id -> client-measured latency of that request's final attempt;
    #: the differential trace suite joins these against the daemon's JSONL
    #: trace file.  Not serialized (unbounded for long runs).
    trace_latencies: dict[str, float] = field(default_factory=dict)
    latency: dict[str, float] = field(default_factory=dict)
    #: Latency of ``/complete`` requests whose response carried a *fresh*
    #: assignment — the client-observed per-iteration solve latency.
    assign_latency: dict[str, float] = field(default_factory=dict)
    #: Latency of plain ``/complete`` requests (no reassignment): these never
    #: need a solve, so any stall they see is the event loop being blocked.
    plain_latency: dict[str, float] = field(default_factory=dict)

    @property
    def requests_per_second(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.requests / self.duration_seconds

    @property
    def clean(self) -> bool:
        """True when the run exposed no contract violations or errors."""
        return (
            self.duplicate_display_violations == 0
            and self.http_errors == 0
            and self.transport_errors == 0
            and self.arrival_failures == 0
            and self.completions > 0
        )

    def to_dict(self) -> dict:
        return {
            "workers_started": self.workers_started,
            "workers_finished": self.workers_finished,
            "completions": self.completions,
            "displays_received": self.displays_received,
            "reassignments": self.reassignments,
            "http_errors": self.http_errors,
            "transport_errors": self.transport_errors,
            "retries": self.retries,
            "deadline_exceeded_responses": self.deadline_exceeded_responses,
            "deduplicated_responses": self.deduplicated_responses,
            "tasks_posted": self.tasks_posted,
            "arrival_batches": self.arrival_batches,
            "arrival_failures": self.arrival_failures,
            "duplicate_display_violations": self.duplicate_display_violations,
            "duration_seconds": round(self.duration_seconds, 4),
            "requests": self.requests,
            "connections_opened": self.connections_opened,
            "traced_requests": self.traced_requests,
            "requests_per_second": round(self.requests_per_second, 2),
            "latency_seconds": {k: round(v, 6) for k, v in self.latency.items()},
            "assign_latency_seconds": {
                k: round(v, 6) for k, v in self.assign_latency.items()
            },
            "plain_latency_seconds": {
                k: round(v, 6) for k, v in self.plain_latency.items()
            },
            "clean": self.clean,
        }


def _keyword_jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    """Jaccard distance between two keyword sets (client-side novelty)."""
    if not a and not b:
        return 0.0
    union = len(a | b)
    return 1.0 - len(a & b) / union


class _SharedState:
    """Cross-worker bookkeeping for the contract checks and latency stats."""

    def __init__(self):
        self.seen_task_ids: set[str] = set()
        self.result = LoadgenResult()
        self.latency = Histogram("loadgen_request_seconds")
        self.assign_latency = Histogram("loadgen_assign_seconds")
        self.plain_latency = Histogram("loadgen_plain_complete_seconds")

    def record_display(self, shown: list[str]) -> None:
        self.result.displays_received += 1
        for task_id in shown:
            if task_id in self.seen_task_ids:
                self.result.duplicate_display_violations += 1
            self.seen_task_ids.add(task_id)


class _SimulatedWorker:
    """One closed-loop worker session."""

    def __init__(
        self,
        worker_id: str,
        config: LoadgenConfig,
        vocabulary: list[str],
        shared: _SharedState,
        rng: np.random.Generator,
        persona: "Persona | None" = None,
    ):
        self.worker_id = worker_id
        self.config = config
        self.shared = shared
        self._rng = rng
        take = min(config.n_keywords, len(vocabulary))
        picks = rng.choice(len(vocabulary), size=take, replace=False)
        self.keywords = frozenset(vocabulary[int(i)] for i in picks)
        profile = sample_latent_profiles(1, rng=rng)[0]
        self.behavior = WorkerBehavior(profile, BehaviorParams(), rng, persona=persona)
        self._last_novelty = 1.0
        self._last_relevance = 0.0
        self.recent: list[frozenset[str]] = []
        self.client = HttpClient(config.host, config.port)
        # task_id -> keyword set, refreshed from every display payload
        self.task_keywords: dict[str, frozenset[str]] = {}
        self.pending: list[str] = []

    async def _request(self, method: str, path: str, payload=None):
        """One logical request: retries with exponential backoff and
        propagates the remaining deadline budget to the daemon.

        Transport errors (dropped connections) and 5xx responses are retried
        up to ``max_retries`` times; only a *final* failure counts against
        the run, so a daemon under chaos that recovers within the retry
        budget still yields a clean result.
        """
        config = self.config
        deadline = (
            time.perf_counter() + config.request_deadline
            if config.request_deadline > 0
            else None
        )
        attempt = 0
        while True:
            headers = None
            if deadline is not None:
                remaining_ms = (deadline - time.perf_counter()) * 1000.0
                headers = {"x-deadline-ms": f"{max(remaining_ms, 1.0):.0f}"}
            started = time.perf_counter()
            try:
                status, body = await self.client.request(
                    method, path, payload, headers=headers
                )
            except (OSError, asyncio.IncompleteReadError, EOFError):
                self.shared.latency.observe(time.perf_counter() - started)
                self.shared.result.requests += 1
                if attempt >= config.max_retries or self._out_of_budget(deadline):
                    self.shared.result.transport_errors += 1
                    raise
                attempt += 1
                self.shared.result.retries += 1
                await self._backoff(attempt, deadline)
                continue
            self.shared.latency.observe(time.perf_counter() - started)
            self.shared.result.requests += 1
            if (
                status >= 500
                and attempt < config.max_retries
                and not self._out_of_budget(deadline)
            ):
                attempt += 1
                self.shared.result.retries += 1
                await self._backoff(attempt, deadline)
                continue
            if status >= 400:
                self.shared.result.http_errors += 1
            if isinstance(body, dict) and body.get("deadline_exceeded"):
                self.shared.result.deadline_exceeded_responses += 1
            trace_id = self.client.last_headers.get("x-trace-id")
            if trace_id:
                self.shared.result.traced_requests += 1
                self.shared.result.trace_latencies[trace_id] = (
                    time.perf_counter() - started
                )
            return status, body

    @staticmethod
    def _out_of_budget(deadline: float | None) -> bool:
        return deadline is not None and time.perf_counter() >= deadline

    async def _backoff(self, attempt: int, deadline: float | None) -> None:
        """Jittered exponential backoff, clipped to the remaining budget."""
        delay = min(
            self.config.backoff_cap,
            self.config.backoff_base * (2 ** (attempt - 1)),
        )
        delay *= 0.5 + self._rng.random()  # full jitter in [0.5x, 1.5x)
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - time.perf_counter()))
        if delay > 0:
            await asyncio.sleep(delay)

    def _absorb_display(self, display: dict, count_display: bool) -> None:
        for task in display.get("tasks", []):
            self.task_keywords[task["task_id"]] = frozenset(task["keywords"])
        self.pending = list(display.get("pending", []))
        if count_display:
            shown = [task["task_id"] for task in display.get("tasks", [])]
            self.shared.record_display(shown)

    def _choose_task(self) -> str:
        novelties = []
        relevances = []
        window = self.recent[-self.behavior.params.novelty_window:]
        for task_id in self.pending:
            keywords = self.task_keywords.get(task_id, frozenset())
            if window:
                novelty = float(
                    np.mean([_keyword_jaccard(keywords, seen) for seen in window])
                )
            else:
                novelty = 1.0
            novelties.append(novelty)
            relevances.append(1.0 - _keyword_jaccard(keywords, self.keywords))
        position = self.behavior.choose_next(
            np.asarray(novelties), np.asarray(relevances)
        )
        self.recent.append(self.task_keywords.get(self.pending[position], frozenset()))
        self.behavior.register_completion(novelties[position])
        self._last_novelty = novelties[position]
        self._last_relevance = relevances[position]
        return self.pending[position]

    def _answer_for(self, task_id: str) -> int:
        """This worker's answer label for ``task_id``.

        Honest workers recompute the daemon's content-derived truth from
        the displayed keywords and pass it through their accuracy model;
        adversarial personas corrupt it per
        :meth:`repro.crowd.behavior.WorkerBehavior.answer_label`.
        Colluders agree on a clique-wide label that is itself a content
        hash, so clique members answer identically without coordination.
        """
        keywords = sorted(self.task_keywords.get(task_id, frozenset()))
        truth = truth_label(
            keywords, self.config.quality_seed, self.config.answer_labels
        )
        collusion_label = None
        if self.behavior.persona is not None and (
            self.behavior.persona.kind == "colluder"
        ):
            digest = _digest(
                "clique",
                self.config.quality_seed,
                self.behavior.persona.clique,
                ",".join(keywords),
            )
            collusion_label = int.from_bytes(digest[:8], "big")
        return self.behavior.answer_label(
            truth,
            self.config.answer_labels,
            self._last_novelty,
            self._last_relevance,
            collusion_label=collusion_label,
        )

    async def run(self) -> None:
        self.shared.result.workers_started += 1
        try:
            if self.config.spawn_delay > 0:
                await asyncio.sleep(self._rng.exponential(self.config.spawn_delay))
            status, body = await self._request(
                "POST",
                "/workers",
                {"worker_id": self.worker_id, "keywords": sorted(self.keywords)},
            )
            if status != 200:
                return
            if body.get("already_registered"):
                # A lost response made the retry land on an existing
                # registration; the daemon answered with the current display.
                self.shared.result.deduplicated_responses += 1
            self._absorb_display(body["display"], count_display=True)
            last_iteration = body["display"]["iteration"]
            for completion_index in range(self.config.completions_per_worker):
                if not self.pending:
                    break
                task_id = self._choose_task()
                if self.config.think_time > 0:
                    await asyncio.sleep(
                        self._rng.exponential(self.config.think_time)
                    )
                complete_started = time.perf_counter()
                # The key is built once per *logical* completion, so every
                # retry of a lost response carries the same key and the
                # daemon can recognize the duplicate delivery.
                complete_body = {
                    "worker_id": self.worker_id,
                    "task_id": task_id,
                    "completion_key": f"{self.worker_id}:{completion_index}",
                }
                if self.config.answer_labels > 0:
                    complete_body["answer"] = self._answer_for(task_id)
                status, body = await self._request(
                    "POST", "/complete", complete_body
                )
                if status != 200:
                    break
                if body.get("deduplicated"):
                    self.shared.result.deduplicated_responses += 1
                self.shared.result.completions += 1
                display = body["display"]
                is_new = display["iteration"] != last_iteration
                complete_elapsed = time.perf_counter() - complete_started
                if body.get("reassigned"):
                    self.shared.result.reassignments += 1
                    self.shared.assign_latency.observe(complete_elapsed)
                else:
                    self.shared.plain_latency.observe(complete_elapsed)
                self._absorb_display(display, count_display=is_new)
                last_iteration = display["iteration"]
            await self._request("DELETE", f"/workers/{self.worker_id}")
            self.shared.result.workers_finished += 1
        except (OSError, asyncio.IncompleteReadError, EOFError, KeyError):
            pass  # already counted as transport/protocol failure
        finally:
            self.shared.result.connections_opened += self.client.connections_opened
            await self.client.close()


class _ArrivalDriver:
    """Posts new tasks to ``/tasks`` while the workers run.

    Arrival ids are ``arr-{i}`` — disjoint from the corpus's ``t{i}``
    namespace, so a collision rejection always indicates a real bug rather
    than an unlucky id draw.  Burst batches share a base keyword set with
    one keyword swapped per member, producing the correlated-similarity
    arrivals that stress the diversity term hardest.
    """

    def __init__(
        self,
        config: LoadgenConfig,
        vocabulary: list[str],
        shared: _SharedState,
        rng: np.random.Generator,
    ):
        self.config = config
        self.vocabulary = vocabulary
        self.shared = shared
        self._rng = rng
        self.client = HttpClient(config.host, config.port)

    def _keywords(self, base: list[str] | None = None) -> list[str]:
        """One task's keyword list; perturbs ``base`` when given."""
        take = min(self.config.n_keywords, len(self.vocabulary))
        if base is None:
            picks = self._rng.choice(len(self.vocabulary), size=take, replace=False)
            return sorted(self.vocabulary[int(i)] for i in picks)
        swapped = list(base)
        if swapped and len(self.vocabulary) > len(swapped):
            out = int(self._rng.integers(len(swapped)))
            pool = [k for k in self.vocabulary if k not in swapped]
            swapped[out] = pool[int(self._rng.integers(len(pool)))]
        return sorted(swapped)

    def _batches(self) -> list[list[dict]]:
        """The full arrival schedule, one entry per ``POST /tasks``."""
        config = self.config
        specs = []
        if config.arrival_pattern == "trickle":
            sizes = [1] * config.arrival_tasks
        elif config.arrival_pattern == "spike":
            sizes = [config.arrival_tasks]
        else:  # burst
            sizes, left = [], config.arrival_tasks
            while left > 0:
                sizes.append(min(config.arrival_batch, left))
                left -= sizes[-1]
        index = 0
        for batch_no, size in enumerate(sizes):
            base = (
                self._keywords()
                if config.arrival_pattern == "burst"
                else None
            )
            batch = []
            for _ in range(size):
                batch.append(
                    {
                        "task_id": f"arr-{index}",
                        "keywords": self._keywords(base),
                        "group": "arrival",
                        "title": f"arrival {index}",
                    }
                )
                index += 1
            specs.append(batch)
        return specs

    async def _post(self, batch: list[dict]) -> None:
        config = self.config
        attempt = 0
        while True:
            started = time.perf_counter()
            try:
                status, _body = await self.client.request(
                    "POST", "/tasks", {"tasks": batch}
                )
            except (OSError, asyncio.IncompleteReadError, EOFError):
                self.shared.latency.observe(time.perf_counter() - started)
                self.shared.result.requests += 1
                if attempt >= config.max_retries:
                    self.shared.result.arrival_failures += 1
                    return
                attempt += 1
                self.shared.result.retries += 1
                await asyncio.sleep(
                    min(
                        config.backoff_cap,
                        config.backoff_base * (2 ** (attempt - 1)),
                    )
                )
                continue
            self.shared.latency.observe(time.perf_counter() - started)
            self.shared.result.requests += 1
            if status >= 500 and attempt < config.max_retries:
                attempt += 1
                self.shared.result.retries += 1
                continue
            if status == 409 and attempt > 0:
                # A lost response made the retry collide with its own
                # earlier admission; the batch is in the pool.
                self.shared.result.deduplicated_responses += 1
            elif status != 200:
                self.shared.result.arrival_failures += 1
                return
            self.shared.result.tasks_posted += len(batch)
            self.shared.result.arrival_batches += 1
            return

    async def run(self) -> None:
        config = self.config
        try:
            for batch in self._batches():
                if config.arrival_interval > 0:
                    await asyncio.sleep(config.arrival_interval)
                await self._post(batch)
        finally:
            self.shared.result.connections_opened += self.client.connections_opened
            await self.client.close()


async def run_loadgen(config: LoadgenConfig | None = None) -> LoadgenResult:
    """Drive one closed-loop run against a live daemon; returns the result."""
    config = config or LoadgenConfig()
    shared = _SharedState()
    probe = HttpClient(config.host, config.port)
    try:
        # The probe runs against the same (possibly fault-injected) daemon
        # as the workers, so give it the same transport-retry budget: a
        # chaos plan may drop the probe's response just like any other.
        for remaining in range(config.max_retries, -1, -1):
            try:
                status, body = await probe.request("GET", "/vocabulary")
                break
            except (OSError, asyncio.IncompleteReadError, EOFError):
                if not remaining:
                    raise
                await asyncio.sleep(0.05)
    finally:
        shared.result.connections_opened += probe.connections_opened
        await probe.close()
    if status != 200:
        raise RuntimeError(f"daemon refused /vocabulary: HTTP {status}")
    vocabulary = list(body["keywords"])
    seed_source = ensure_rng(config.seed)
    if (
        config.spammer_fraction or config.drifting_fraction
        or config.colluder_fraction
    ):
        personas = sample_personas(
            config.n_workers,
            rng=np.random.default_rng(seed_source.integers(0, 2**63)),
            spammer_fraction=config.spammer_fraction,
            drifting_fraction=config.drifting_fraction,
            colluder_fraction=config.colluder_fraction,
            clique_size=config.clique_size,
            drift_per_task=config.drift_per_task,
        )
    else:
        # All honest, without consuming the seed stream: a persona-free
        # config drives byte-identical load to builds before personas.
        personas = [Persona() for _ in range(config.n_workers)]
    workers = [
        _SimulatedWorker(
            f"lg-w{i}",
            config,
            vocabulary,
            shared,
            np.random.default_rng(seed_source.integers(0, 2**63)),
            persona=personas[i],
        )
        for i in range(config.n_workers)
    ]
    drivers = []
    if config.arrival_pattern is not None:
        drivers.append(
            _ArrivalDriver(
                config,
                vocabulary,
                shared,
                np.random.default_rng(seed_source.integers(0, 2**63)),
            )
        )
    started = time.perf_counter()
    await asyncio.gather(
        *(worker.run() for worker in workers),
        *(driver.run() for driver in drivers),
    )
    shared.result.duration_seconds = time.perf_counter() - started
    shared.result.latency = {
        "mean": shared.latency.summary()["mean"],
        "p50": shared.latency.quantile(0.50),
        "p95": shared.latency.quantile(0.95),
        "p99": shared.latency.quantile(0.99),
    }
    shared.result.assign_latency = {
        "mean": shared.assign_latency.summary()["mean"],
        "p50": shared.assign_latency.quantile(0.50),
        "p95": shared.assign_latency.quantile(0.95),
        "p99": shared.assign_latency.quantile(0.99),
    }
    shared.result.plain_latency = {
        "mean": shared.plain_latency.summary()["mean"],
        "p50": shared.plain_latency.quantile(0.50),
        "p95": shared.plain_latency.quantile(0.95),
        "p99": shared.plain_latency.quantile(0.99),
    }
    return shared.result


async def run_self_contained(
    config: LoadgenConfig,
    n_tasks: int = 2000,
    strategy: str = "hta-gre",
    serve_config: "ServeConfig | None" = None,
) -> tuple[LoadgenResult, dict]:
    """Spawn an in-process daemon, run the loadgen against it, tear down.

    Returns the loadgen result plus the daemon's metrics snapshot — the CI
    smoke test and the throughput benchmark both use this.  Pass
    ``serve_config`` to control the daemon fully (e.g. ``solver_workers``);
    its host/port are overridden to co-locate with the load generator.
    """
    from dataclasses import replace

    from ..data import CrowdFlowerConfig, generate_crowdflower_corpus
    from .app import AssignmentDaemon, ServeConfig

    corpus = generate_crowdflower_corpus(
        CrowdFlowerConfig(n_tasks=n_tasks), rng=config.seed
    )
    # The spec lets a journal recorded against this daemon rebuild the exact
    # pool later (``repro replay`` re-derives the corpus from it).
    corpus_spec = {"kind": "crowdflower", "n_tasks": n_tasks, "seed": config.seed}
    if serve_config is None:
        serve_config = ServeConfig(
            host=config.host,
            port=0,
            strategy=strategy,
            seed=config.seed,
            corpus_spec=corpus_spec,
        )
    else:
        serve_config = replace(serve_config, host=config.host, port=0)
        if serve_config.corpus_spec is None:
            serve_config = replace(serve_config, corpus_spec=corpus_spec)
    daemon = AssignmentDaemon(corpus.pool, serve_config)
    await daemon.start()
    try:
        result = await run_loadgen(replace(config, port=daemon.port))
        snapshot = daemon.registry.snapshot()
    finally:
        await daemon.stop()
    return result, snapshot


async def run_sharded(
    config: LoadgenConfig,
    n_shards: int,
    n_tasks: int = 2000,
    strategy: str = "hta-gre",
    serve_config: "ServeConfig | None" = None,
    journal_dir: "str | None" = None,
    routing_journal: "str | None" = None,
) -> tuple[LoadgenResult, dict]:
    """Self-contained sharded run: N shards behind a router, all driven.

    Spawns an in-process :class:`~repro.serve.shard.ShardCluster` over
    disjoint corpus slices plus a :class:`~repro.serve.router.RouterDaemon`
    on ephemeral ports, then points the closed-loop crowd at the *router* —
    so the loadgen's global duplicate-display oracle is checking C1/C2
    across shard boundaries, not just within one daemon.  With
    ``journal_dir`` each shard records a flight journal
    (``journal-shardN.jsonl``, each verifiable with ``repro replay``);
    ``routing_journal`` records the router's decisions for
    :func:`~repro.serve.router.verify_routing_journal`.

    Returns the loadgen result plus
    ``{"router": ..., "shards": [...]}`` metrics snapshots.
    """
    from dataclasses import replace

    from ..data import CrowdFlowerConfig, generate_crowdflower_corpus
    from .app import ServeConfig
    from .router import RouterConfig, RouterDaemon
    from .shard import ShardCluster

    corpus = generate_crowdflower_corpus(
        CrowdFlowerConfig(n_tasks=n_tasks), rng=config.seed
    )
    corpus_spec = {"kind": "crowdflower", "n_tasks": n_tasks, "seed": config.seed}
    if serve_config is None:
        serve_config = ServeConfig(
            host=config.host, port=0, strategy=strategy, seed=config.seed,
            corpus_spec=corpus_spec,
        )
    else:
        serve_config = replace(serve_config, host=config.host, port=0)
        if serve_config.corpus_spec is None:
            serve_config = replace(serve_config, corpus_spec=corpus_spec)
    journal_base = None
    if journal_dir is not None:
        os.makedirs(journal_dir, exist_ok=True)
        journal_base = os.path.join(journal_dir, "journal.jsonl")
    serve_config = replace(serve_config, journal_path=journal_base)
    cluster = ShardCluster(corpus.pool, serve_config, n_shards)
    await cluster.start()
    router = RouterDaemon(
        cluster.specs,
        RouterConfig(host=config.host, port=0, journal_path=routing_journal),
    )
    await router.start()
    try:
        result = await run_loadgen(replace(config, port=router.port))
        snapshot = {
            "router": router.registry.snapshot(),
            "shards": [d.registry.snapshot() for d in cluster.daemons],
        }
    finally:
        await router.stop()
        await cluster.stop()
    return result, snapshot


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Closed-loop load generator for the repro assignment daemon",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--workers", type=int, default=50)
    parser.add_argument("--completions", type=int, default=10)
    parser.add_argument("--keywords", type=int, default=6)
    parser.add_argument("--think-time", type=float, default=0.0)
    parser.add_argument("--spawn-delay", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--retries", type=int, default=3,
        help="max retries per logical request (transport errors and 5xx)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=0.0,
        help="per-request deadline in ms, propagated via x-deadline-ms "
             "(0 disables)",
    )
    parser.add_argument(
        "--spawn-server",
        action="store_true",
        help="start an in-process daemon on an ephemeral port and drive it",
    )
    parser.add_argument(
        "--tasks", type=int, default=2000,
        help="corpus size for --spawn-server",
    )
    parser.add_argument("--strategy", default="hta-gre")
    parser.add_argument(
        "--solver-workers", type=int, default=0,
        help="solver worker processes for --spawn-server (0 = in-loop solves)",
    )
    parser.add_argument(
        "--trace-file", default=None,
        help="JSONL trace file for the spawned daemon (--spawn-server only)",
    )
    parser.add_argument(
        "--trace-sample-rate", type=float, default=0.0,
        help="fraction of requests the spawned daemon traces, in [0, 1]",
    )
    parser.add_argument(
        "--journal", default=None,
        help="record the spawned daemon's flight journal to this JSONL file "
             "(--spawn-server only; replay it with `repro replay`)",
    )
    parser.add_argument(
        "--fault-plan", default=None,
        help="JSON file with a FaultPlan for the spawned daemon "
             "(--spawn-server only)",
    )
    parser.add_argument(
        "--answer-labels", type=int, default=0,
        help="send integer answers in [0, N) with every completion "
             "(0 disables; required for quality scenarios)",
    )
    parser.add_argument(
        "--quality-seed", type=int, default=0,
        help="seed for content-derived truth labels (must match the "
             "daemon's gold seed)",
    )
    parser.add_argument(
        "--spammers", type=float, default=0.0,
        help="fraction of workers answering uniformly at random",
    )
    parser.add_argument(
        "--drifting", type=float, default=0.0,
        help="fraction of workers whose accuracy decays per completion",
    )
    parser.add_argument(
        "--colluders", type=float, default=0.0,
        help="fraction of workers colluding in answer cliques",
    )
    parser.add_argument(
        "--arrival-pattern", default=None,
        choices=["trickle", "burst", "spike"],
        help="inject new tasks via POST /tasks while workers run "
             "(trickle = singles, burst = correlated batches, "
             "spike = one entry rush)",
    )
    parser.add_argument(
        "--arrival-tasks", type=int, default=0,
        help="total tasks the arrival driver posts over the run",
    )
    parser.add_argument(
        "--arrival-batch", type=int, default=5,
        help="batch size for --arrival-pattern burst",
    )
    parser.add_argument(
        "--arrival-interval", type=float, default=0.05,
        help="seconds between arrival posts",
    )
    parser.add_argument(
        "--gold-rate", type=float, default=0.0,
        help="spawned daemon's gold-injection rate (--spawn-server only)",
    )
    parser.add_argument(
        "--redundancy", type=int, default=1,
        help="spawned daemon's answers-per-task target (--spawn-server only)",
    )
    parser.add_argument(
        "--reputation-weight", type=float, default=0.0,
        help="spawned daemon's reputation-weighted relevance term "
             "(--spawn-server only)",
    )
    parser.add_argument(
        "--shared-memory", action=argparse.BooleanOptionalAction, default=True,
        help="ship solves to engine workers via shared memory "
             "(--spawn-server only; --no-shared-memory forces pickling)",
    )
    parser.add_argument(
        "--estimator", choices=["plain", "bayes"], default="plain",
        help="spawned daemon's motivation estimator (--spawn-server only)",
    )
    parser.add_argument(
        "--bandit", choices=["off", "thompson", "ucb"], default="off",
        help="spawned daemon's weight-policy bandit (--spawn-server only; "
             "thompson requires --estimator bayes)",
    )
    parser.add_argument(
        "--tier-policy", choices=["streak", "bandit"], default="streak",
        help="spawned daemon's solver-tier selection policy "
             "(--spawn-server only)",
    )
    parser.add_argument(
        "--uvloop", choices=["auto", "on", "off"], default="auto",
        help="event-loop policy: auto uses uvloop when installed, "
             "on requires it, off keeps the stdlib loop",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="with --spawn-server: spawn an N-shard cluster behind a "
             "router on ephemeral ports and drive the router "
             "(0 keeps the classic single daemon)",
    )
    parser.add_argument(
        "--shard-journal-dir", default=None,
        help="with --shards: record each shard's flight journal to "
             "DIR/journal-shardN.jsonl (verify with `repro replay`)",
    )
    parser.add_argument(
        "--routing-journal", default=None,
        help="with --shards: record the router's routing journal to this "
             "JSONL file (verify with `repro replay`)",
    )
    args = parser.parse_args(argv)
    install_uvloop(args.uvloop)
    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        n_workers=args.workers,
        completions_per_worker=args.completions,
        n_keywords=args.keywords,
        think_time=args.think_time,
        spawn_delay=args.spawn_delay,
        seed=args.seed,
        max_retries=args.retries,
        request_deadline=args.deadline_ms / 1000.0,
        answer_labels=args.answer_labels,
        quality_seed=args.quality_seed,
        spammer_fraction=args.spammers,
        drifting_fraction=args.drifting,
        colluder_fraction=args.colluders,
        arrival_pattern=args.arrival_pattern,
        arrival_tasks=args.arrival_tasks,
        arrival_batch=args.arrival_batch,
        arrival_interval=args.arrival_interval,
    )
    if args.shards > 0 and not args.spawn_server:
        print("--shards requires --spawn-server", file=sys.stderr)
        return 2
    if args.shards > 0 and args.journal:
        print(
            "--journal is single-daemon only; use --shard-journal-dir and "
            "--routing-journal with --shards",
            file=sys.stderr,
        )
        return 2
    if args.bandit == "thompson" and args.estimator != "bayes":
        print("--bandit thompson requires --estimator bayes", file=sys.stderr)
        return 2
    if args.spawn_server:
        serve_config = None
        quality_wanted = args.gold_rate > 0 or args.redundancy > 1
        adaptivity_wanted = (
            args.estimator != "plain"
            or args.bandit != "off"
            or args.tier_policy != "streak"
        )
        if (
            args.trace_file
            or args.trace_sample_rate > 0
            or args.solver_workers > 0
            or args.journal
            or args.fault_plan
            or quality_wanted
            or args.reputation_weight > 0
            or not args.shared_memory
            or adaptivity_wanted
        ):
            from ..crowd.service import ServiceConfig
            from ..quality import (
                AdjudicationConfig,
                GoldConfig,
                QualityConfig,
            )
            from .app import ServeConfig
            from .resilience import FaultPlan

            fault_plan = (
                FaultPlan.from_file(args.fault_plan) if args.fault_plan else None
            )
            quality = None
            if quality_wanted:
                quality = QualityConfig(
                    gold=GoldConfig(
                        rate=args.gold_rate,
                        seed=args.quality_seed,
                        n_labels=max(2, args.answer_labels),
                    ),
                    adjudication=AdjudicationConfig(redundancy=args.redundancy),
                )
            serve_config = ServeConfig(
                strategy=args.strategy,
                seed=args.seed,
                service=ServiceConfig(
                    reputation_weight=args.reputation_weight
                ),
                solver_workers=args.solver_workers,
                shared_memory=args.shared_memory,
                trace_file=args.trace_file,
                trace_sample_rate=args.trace_sample_rate,
                fault_plan=fault_plan,
                journal_path=args.journal,
                quality=quality,
                estimator=args.estimator,
                bandit=args.bandit,
                tier_policy=args.tier_policy,
            )
        if args.shards > 0:
            result, snapshot = asyncio.run(
                run_sharded(
                    config,
                    args.shards,
                    n_tasks=args.tasks,
                    strategy=args.strategy,
                    serve_config=serve_config,
                    journal_dir=args.shard_journal_dir,
                    routing_journal=args.routing_journal,
                )
            )
        else:
            result, snapshot = asyncio.run(
                run_self_contained(
                    config,
                    n_tasks=args.tasks,
                    strategy=args.strategy,
                    serve_config=serve_config,
                )
            )
        payload = {"loadgen": result.to_dict(), "daemon_metrics": snapshot}
    else:
        result = asyncio.run(run_loadgen(config))
        payload = {"loadgen": result.to_dict()}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if result.clean else 1


if __name__ == "__main__":
    sys.exit(main())
