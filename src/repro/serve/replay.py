"""Deterministic record/replay for the assignment daemon.

The paper's iterated assignment loop is a pure function of the observation
stream: the same registrations and completions, in the same order, produce
the same ``W^i`` batches, the same Eq. 7/8 instances, and the same displays.
The serving stack obscures that determinism behind an asyncio scheduler, a
process-pool engine, a degradation ladder and fault injection — this module
makes it checkable again:

* :class:`FlightRecorder` — an append-only JSONL *journal* written at the
  daemon's ingress and solve boundaries.  Ingress events (``register`` /
  ``complete`` / ``unregister`` / ``task_arrival``) capture what the outside
  world did, in event-loop order, with the request's trace id; solve events
  (``lease`` / ``commit`` / ``abandon``) capture how the daemon's
  lease/commit protocol interleaved — which is exactly the information
  concurrency erases.  The header pins the config fingerprint (strategy,
  seed, service knobs) and a SHA-256 of the *startup* task corpus, so a
  journal can refuse to replay against the wrong world; tasks posted after
  startup enter through ``task_arrival`` events carrying their full specs,
  which is what lets an open-world run replay from the startup pool alone.

* :func:`replay_journal` — re-drives a fresh
  :class:`~repro.crowd.service.AssignmentService` from a journal and asserts
  bit-identical outcomes: every lease must draw the same solver seed and
  candidate set, every commit must install byte-for-byte identical display
  events (task ids, pads, alpha/beta — floats survive JSON exactly via
  ``repr`` round-tripping), and the final service state must hash to the
  recorded ``end`` digest, RNG position included.  The first mismatch is
  reported as a :class:`Divergence` carrying the journal seq, the offending
  lease and worker, and the trace ids of the requests that rode that solve.

* :func:`replay_differential` — replays one journal under multiple
  configurations (:class:`ReplayVariant`): the in-loop solver path, the
  engine's worker-process path (same pickle round-trip, run in-process),
  the zero-copy shared-memory shipping path (index arrays against a real
  segment), the dense vs bit-packed Jaccard kernels, the reference and
  warm-started vs vectorized LSAP kernels, and optionally a pinned
  degradation-ladder tier.  Because live
  serving funnels every solve through the same
  :func:`~repro.crowd.service.execute_prepared` computation, all unpinned
  variants must agree bit-for-bit; a pinned tier is a diagnostic that shows
  *where* outcomes start depending on the ladder position.

See docs/SERVING.md ("Record/replay") for the journal schema and CLI.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import pickle
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.bandit import build_adaptivity
from ..core.task import Task, TaskPool
from ..core.worker import Worker
from ..crowd.events import TasksAssigned
from ..crowd.service import (
    AssignmentService,
    PreparedSolve,
    ServiceConfig,
    execute_prepared,
)
from ..core.solvers import get_solver
from ..errors import ReproError
from ..perf.config import use_kernel

#: Bump on any change to the journal line format; replay refuses mismatches.
JOURNAL_VERSION = 1

#: Required fields per event type (beyond ``type`` and ``seq``); an event
#: with a missing field or an unknown type is schema drift and fails load.
_EVENT_FIELDS: dict[str, frozenset[str]] = {
    "restore": frozenset({"state"}),
    "register": frozenset({"worker_id", "interest", "solver", "event"}),
    "complete": frozenset({"worker_id", "task_id"}),
    "unregister": frozenset({"worker_id"}),
    # Open-world ingestion: a ``POST /tasks`` batch admitted into the live
    # pool.  Each entry carries the full task spec (id, keyword indices,
    # metadata), so replay can rebuild tasks that never existed in the
    # startup corpus the header's ``pool_sha`` pins.
    "task_arrival": frozenset({"tasks"}),
    # Quality-layer events (present only when the daemon ran with a quality
    # config; see repro.quality).  ``probe`` records the aliases minted for
    # one installed display; ``tick`` marks a reputation flush.  Both are
    # recorded synchronously next to the controller call, so the journal
    # order IS the call order even under overlapping engine solves.
    "probe": frozenset({"worker_id", "iteration", "aliases"}),
    "tick": frozenset(),
    # Shard drain/rebalance: ``handoff_out`` records a worker leaving this
    # shard (the state blob is the exported session — replay re-derives the
    # export and demands bit-equality before unregistering); ``handoff_in``
    # records an adoption, carrying the full task specs of the worker's
    # display because those tasks belong to the *source* shard's corpus.
    "handoff_out": frozenset({"worker_id", "state"}),
    "handoff_in": frozenset({"worker_id", "state"}),
    "lease": frozenset(
        {"lease_id", "worker_ids", "solver", "seed", "n_candidates",
         "candidates_sha"}
    ),
    "commit": frozenset({"lease_id", "wall_time", "events"}),
    "abandon": frozenset({"lease_id"}),
    "snapshot": frozenset({"snapshot_id"}),
    "end": frozenset({"state_sha"}),
}


class ReplayError(ReproError):
    """A journal could not be recorded, loaded, or replayed."""


# -- fingerprints -----------------------------------------------------------


def pool_fingerprint(pool: TaskPool) -> str:
    """SHA-256 over the corpus: vocabulary, task ids, keyword vectors."""
    digest = hashlib.sha256()
    for keyword in pool.vocabulary.keywords:
        digest.update(keyword.encode())
        digest.update(b"\x00")
    digest.update(b"\x01")
    for task in pool:
        digest.update(task.task_id.encode())
        digest.update(b"\x00")
        digest.update(np.packbits(np.asarray(task.vector, dtype=bool)).tobytes())
    return digest.hexdigest()


def candidates_fingerprint(task_ids: Iterable[str]) -> str:
    """SHA-256 over an ordered candidate id sequence (lease identity)."""
    digest = hashlib.sha256()
    for task_id in task_ids:
        digest.update(task_id.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def state_fingerprint(state: dict) -> str:
    """SHA-256 of a JSON-serializable state payload (key-order independent)."""
    return hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()
    ).hexdigest()


def event_payload(event: TasksAssigned) -> dict:
    """The JSON form of one display event; the unit of bit-identity.

    Floats round-trip JSON exactly (``json.dumps`` emits ``repr``), so two
    payloads compare equal iff the events were bit-identical — alpha/beta
    estimates included.
    """
    return {
        "wall_time": event.wall_time,
        "session_time": event.session_time,
        "worker_id": event.worker_id,
        "iteration": event.iteration,
        "task_ids": list(event.task_ids),
        "random_pad_ids": list(event.random_pad_ids),
        "alpha": event.alpha,
        "beta": event.beta,
    }


# -- recording --------------------------------------------------------------


class FlightRecorder:
    """Writes the journal: one JSON object per line, flushed per event.

    One recorder documents one daemon process: the file is truncated on
    open (a restored daemon re-records its starting state as a ``restore``
    event, so the fresh journal is self-contained) and every event carries
    a contiguous ``seq`` starting at 1.
    """

    def __init__(self, path: "str | Path", header: dict):
        self._path = Path(path)
        self._fh = self._path.open("w", encoding="utf-8")
        self._seq = 0
        self._closed = False
        self._emit({"type": "header", "version": JOURNAL_VERSION, **header})

    @property
    def path(self) -> Path:
        return self._path

    @property
    def seq(self) -> int:
        """Seq of the most recently recorded event (0 = header only)."""
        return self._seq

    def _emit(self, payload: dict) -> None:
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")
        self._fh.flush()

    def _record(self, event_type: str, **fields) -> None:
        if self._closed:
            return
        self._seq += 1
        self._emit({"type": event_type, "seq": self._seq, **fields})

    def record_restore(self, state: dict, snapshot_id: "int | None") -> None:
        self._record("restore", state=state, snapshot_id=snapshot_id)

    def record_register(
        self,
        worker_id: str,
        vector: np.ndarray,
        solver: str,
        event: TasksAssigned,
        trace_id: "str | None",
    ) -> None:
        self._record(
            "register",
            worker_id=worker_id,
            interest=np.flatnonzero(np.asarray(vector, dtype=bool)).tolist(),
            solver=solver,
            event=event_payload(event),
            trace_id=trace_id,
        )

    def record_complete(
        self,
        worker_id: str,
        task_id: str,
        trace_id: "str | None",
        completion_key: "str | None",
        answer: "int | None" = None,
    ) -> None:
        self._record(
            "complete",
            worker_id=worker_id,
            task_id=task_id,
            trace_id=trace_id,
            completion_key=completion_key,
            answer=answer,
        )

    def record_probe(
        self, worker_id: str, iteration: int, aliases: Sequence[str]
    ) -> None:
        self._record(
            "probe",
            worker_id=worker_id,
            iteration=iteration,
            aliases=list(aliases),
        )

    def record_tick(self) -> None:
        self._record("tick")

    def record_unregister(self, worker_id: str) -> None:
        self._record("unregister", worker_id=worker_id)

    def record_task_arrival(self, tasks, trace_id: "str | None") -> None:
        """One admitted ``POST /tasks`` batch (a sequence of ``Task``s)."""
        self._record(
            "task_arrival",
            tasks=[
                {
                    "task_id": task.task_id,
                    "interest": np.flatnonzero(
                        np.asarray(task.vector, dtype=bool)
                    ).tolist(),
                    "group": task.group,
                    "title": task.title,
                    "reward": task.reward,
                    "n_questions": task.n_questions,
                }
                for task in tasks
            ],
            trace_id=trace_id,
        )

    def record_handoff_out(self, worker_id: str, state: dict) -> None:
        """A worker drained off this shard (state = the handoff blob)."""
        self._record("handoff_out", worker_id=worker_id, state=state)

    def record_handoff_in(self, worker_id: str, state: dict) -> None:
        """A worker adopted onto this shard (state = the handoff blob)."""
        self._record("handoff_in", worker_id=worker_id, state=state)

    def record_lease(
        self, prepared: PreparedSolve, trace_ids: "Sequence[str] | None"
    ) -> None:
        self._record(
            "lease",
            lease_id=prepared.lease_id,
            worker_ids=list(prepared.worker_ids),
            solver=prepared.solver_name,
            seed=prepared.seed,
            n_candidates=len(prepared.candidates),
            candidates_sha=candidates_fingerprint(
                t.task_id for t in prepared.candidates
            ),
            trace_ids=list(trace_ids) if trace_ids else None,
        )

    def record_commit(
        self,
        prepared: PreparedSolve,
        wall_time: float,
        events: dict[str, TasksAssigned],
    ) -> None:
        self._record(
            "commit",
            lease_id=prepared.lease_id,
            wall_time=wall_time,
            events={w: event_payload(e) for w, e in events.items()},
        )

    def record_abandon(self, prepared: PreparedSolve) -> None:
        self._record("abandon", lease_id=prepared.lease_id)

    def record_snapshot(self, snapshot_id: int) -> None:
        self._record("snapshot", snapshot_id=snapshot_id)

    def record_end(self, state_sha: str) -> None:
        self._record("end", state_sha=state_sha)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fh.close()


# -- loading ----------------------------------------------------------------


@dataclass(frozen=True)
class Journal:
    """A parsed, schema-validated journal."""

    header: dict
    events: list[dict]

    @property
    def strategy(self) -> str:
        return self.header["strategy"]

    @property
    def seed(self) -> int:
        return int(self.header["seed"])

    @property
    def pool_sha(self) -> str:
        return self.header["pool_sha"]

    @property
    def corpus_spec(self) -> "dict | None":
        return self.header.get("corpus")

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(**self.header["service"])

    def quality_config(self):
        """The recorded quality config, or ``None`` for quality-free runs."""
        spec = self.header.get("quality")
        if spec is None:
            return None
        from ..quality import QualityConfig

        return QualityConfig.from_dict(spec)

    def adaptivity(self) -> dict:
        """The recorded estimator/bandit config; journals recorded before
        the adaptivity header key default to the paper's behaviour."""
        spec = self.header.get("adaptivity") or {}
        return {
            "estimator": spec.get("estimator", "plain"),
            "bandit": spec.get("bandit", "off"),
            "tier_policy": spec.get("tier_policy", "streak"),
        }


def load_journal(path: "str | Path") -> Journal:
    """Parse and validate a journal file; raises :class:`ReplayError` on
    malformed lines, schema drift, or a version mismatch."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ReplayError(f"journal {path} is empty")
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReplayError(f"{path}:{lineno}: not JSON: {exc}") from None
        if not isinstance(record, dict) or "type" not in record:
            raise ReplayError(f"{path}:{lineno}: not a journal record")
        records.append((lineno, record))
    lineno, header = records[0]
    if header["type"] != "header":
        raise ReplayError(f"{path}:{lineno}: first record must be the header")
    if header.get("version") != JOURNAL_VERSION:
        raise ReplayError(
            f"{path}: journal version {header.get('version')!r}, "
            f"this build reads {JOURNAL_VERSION}"
        )
    for key in ("strategy", "seed", "service", "pool_sha"):
        if key not in header:
            raise ReplayError(f"{path}: header is missing {key!r}")
    events = []
    for lineno, record in records[1:]:
        event_type = record["type"]
        required = _EVENT_FIELDS.get(event_type)
        if required is None:
            raise ReplayError(
                f"{path}:{lineno}: unknown event type {event_type!r} "
                f"(schema drift?)"
            )
        missing = sorted(required - set(record))
        if missing:
            raise ReplayError(
                f"{path}:{lineno}: {event_type} event is missing {missing}"
            )
        if record.get("seq") != len(events) + 1:
            raise ReplayError(
                f"{path}:{lineno}: seq {record.get('seq')!r}, "
                f"expected {len(events) + 1} (truncated or spliced journal?)"
            )
        events.append(record)
    return Journal(header=header, events=events)


def pool_from_corpus_spec(spec: dict) -> TaskPool:
    """Rebuild the recorded corpus from the header's ``corpus`` spec.

    A sharded daemon serves a disjoint slice of the full corpus; its spec
    carries ``{"shard": {"index": k, "count": n}}`` and the rebuilt pool is
    re-sliced the same way, so the journal's ``pool_sha`` matches the
    shard's actual startup pool.
    """
    if not isinstance(spec, dict) or spec.get("kind") != "crowdflower":
        raise ReplayError(
            f"cannot rebuild corpus from spec {spec!r}; pass the pool explicitly"
        )
    from ..data import CrowdFlowerConfig, generate_crowdflower_corpus

    corpus = generate_crowdflower_corpus(
        CrowdFlowerConfig(n_tasks=int(spec["n_tasks"])), rng=int(spec["seed"])
    )
    pool = corpus.pool
    shard = spec.get("shard")
    if shard is not None:
        from .shard import shard_slice

        pool = shard_slice(pool, int(shard["index"]), int(shard["count"]))
    return pool


# -- replay -----------------------------------------------------------------


@dataclass(frozen=True)
class ReplayVariant:
    """One configuration to replay a journal under.

    ``engine_semantics`` routes each solve through the engine's exact
    worker-process code path (pickle round-trip of the slimmed instance,
    :func:`repro.serve.engine._solve_blob`) but in-process — proving the
    process boundary itself changes nothing.  ``shm_shipping`` (implies
    engine semantics) goes further: each solve publishes its candidates
    into a real shared-memory segment and ships a
    :class:`~repro.serve.engine.ShmSolveRequest` of index arrays through
    the same blob path, proving zero-copy shipping is bit-identical to
    pickling the instance.  Kernel overrides select the oracle kernels;
    ``pinned_solver`` forces every solve (and non-adaptive register) onto
    one ladder tier regardless of what was recorded.
    """

    label: str = "in-loop"
    engine_semantics: bool = False
    shm_shipping: bool = False
    jaccard_kernel: "str | None" = None
    lsap_kernel: "str | None" = None
    pinned_solver: "str | None" = None


@dataclass(frozen=True)
class Divergence:
    """The first point where a replay stopped matching the journal."""

    seq: int
    event_type: str
    field: str
    recorded: object
    replayed: object
    lease_id: "int | None" = None
    worker_id: "str | None" = None
    trace_ids: "tuple[str, ...] | None" = None

    def describe(self) -> str:
        where = f"seq {self.seq} ({self.event_type})"
        if self.lease_id is not None:
            where += f" lease {self.lease_id}"
        if self.worker_id is not None:
            where += f" worker {self.worker_id!r}"
        traces = (
            f" [traces: {', '.join(self.trace_ids)}]" if self.trace_ids else ""
        )
        return (
            f"{where}: {self.field} recorded={self.recorded!r} "
            f"replayed={self.replayed!r}{traces}"
        )


@dataclass
class ReplayReport:
    """Outcome of one replay pass."""

    variant: str
    events_applied: int = 0
    registers: int = 0
    completions: int = 0
    arrivals: int = 0
    solves_committed: int = 0
    solves_abandoned: int = 0
    displays_checked: int = 0
    disjointness_violations: int = 0
    state_verified: bool = False
    divergence: "Divergence | None" = None

    @property
    def ok(self) -> bool:
        return self.divergence is None and self.disjointness_violations == 0

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "ok": self.ok,
            "events_applied": self.events_applied,
            "registers": self.registers,
            "completions": self.completions,
            "arrivals": self.arrivals,
            "solves_committed": self.solves_committed,
            "solves_abandoned": self.solves_abandoned,
            "displays_checked": self.displays_checked,
            "disjointness_violations": self.disjointness_violations,
            "state_verified": self.state_verified,
            "divergence": (
                None if self.divergence is None else self.divergence.describe()
            ),
        }


def _first_mismatch(recorded: dict, replayed: dict) -> "tuple | None":
    for key in sorted(set(recorded) | set(replayed)):
        if recorded.get(key) != replayed.get(key):
            return key, recorded.get(key), replayed.get(key)
    return None


def _run_prepared(
    prepared: PreparedSolve, variant: ReplayVariant
) -> dict[str, tuple[str, ...]]:
    """The solve itself, under in-loop, engine, or zero-copy semantics."""
    if variant.shm_shipping:
        return _run_prepared_shm(prepared)
    if not variant.engine_semantics:
        assigned, _ = execute_prepared(prepared)
        return assigned
    # The engine's exact worker path: slim the instance (the worker
    # recomputes diversity from the keyword matrix), pickle, solve the
    # unpickled copy.  Run here in-process; determinism must not care.
    from .engine import EngineRequest, _solve_blob

    slim_instance = copy.copy(prepared.instance)
    slim_instance.__dict__.pop("diversity", None)
    request = EngineRequest(
        worker_ids=tuple(prepared.worker_ids),
        instance=slim_instance,
        solver_name=prepared.solver_name,
        seed=prepared.seed,
    )
    blob = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
    return _solve_blob(blob).assigned


def _run_prepared_shm(prepared: PreparedSolve) -> dict[str, tuple[str, ...]]:
    """The engine's zero-copy path, end to end, against a real segment.

    Publishes this solve's candidates into a throwaway
    :class:`~repro.serve.shm.TaskMatrixStore`, ships a
    :class:`~repro.serve.engine.ShmSolveRequest` through the same pickled
    blob the process pool would carry, and translates the worker's
    synthetic positional ids back — exactly the live engine's shm branch,
    minus the process boundary the plain engine variant already covers.
    """
    from .engine import ShmSolveRequest, _solve_blob
    from .shm import TaskMatrixStore

    candidates = prepared.candidates
    instance = prepared.instance
    store = TaskMatrixStore(
        candidates, n_bits=instance.workers.matrix.shape[1]
    )
    try:
        rows = store.rows_for(candidates)
        ref = store.acquire()
        request = ShmSolveRequest(
            worker_ids=tuple(prepared.worker_ids),
            worker_matrix=instance.workers.matrix,
            alphas=instance.alphas(),
            betas=instance.betas(),
            segment=ref,
            row_indices=rows,
            x_max=instance.x_max,
            solver_name=prepared.solver_name,
            seed=prepared.seed,
        )
        blob = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
        assigned = _solve_blob(blob).assigned
        store.release(ref.version)
    finally:
        store.close()
    return {
        w: tuple(candidates[int(s)].task_id for s in ids)
        for w, ids in assigned.items()
    }


@dataclass
class _ReplayState:
    service: AssignmentService
    task_index: dict
    displayed_ever: set = field(default_factory=set)
    leases: dict = field(default_factory=dict)
    lease_traces: dict = field(default_factory=dict)
    quality: "object | None" = None  # QualityController when recorded with one

    def end_payload(self) -> dict:
        """The state the ``end``/snapshot fingerprints cover (must mirror
        :meth:`repro.serve.app.AssignmentDaemon._state_payload`)."""
        payload = {
            "service": self.service.snapshot_state(),
            "displayed_ever": sorted(self.displayed_ever),
        }
        if self.quality is not None:
            payload["quality"] = self.quality.state_dict()
        return payload


def replay_journal(
    journal: Journal,
    pool: TaskPool,
    variant: "ReplayVariant | None" = None,
    verify_pool: bool = True,
) -> ReplayReport:
    """Re-drive a fresh service from ``journal`` and check bit-identity."""
    variant = variant or ReplayVariant()
    if verify_pool:
        actual = pool_fingerprint(pool)
        if actual != journal.pool_sha:
            raise ReplayError(
                f"corpus mismatch: journal was recorded against pool "
                f"{journal.pool_sha[:12]}…, got {actual[:12]}…"
            )
    report = ReplayReport(variant=variant.label)
    quality_config = journal.quality_config()
    quality = None
    serving_pool = pool
    if quality_config is not None:
        # The controller sees the full corpus (the gold bank lives there);
        # the service serves the corpus minus the holdout — the same split
        # the recording daemon made.
        from ..quality import QualityController

        quality = QualityController(pool, quality_config)
        serving_pool = QualityController.serving_pool(pool, quality_config)
    # Rebuild the recorded estimator/bandit stack exactly as the daemon did
    # (including the Thompson stream derived from the journal seed), so a
    # bandit-policy journal replays its draw sequence bit-identically.
    estimator, weight_policy = build_adaptivity(
        journal.adaptivity(), seed=journal.seed
    )
    state = _ReplayState(
        service=AssignmentService(
            serving_pool,
            journal.strategy,
            journal.service_config(),
            estimator=estimator,
            rng=journal.seed,
            weight_policy=weight_policy,
        ),
        task_index={t.task_id: t for t in serving_pool},
        quality=quality,
    )
    if quality is not None:
        # Same seam the daemon wires: reputation scales the relevance term.
        state.service.set_reputation_provider(quality.reputation.mean)
    with contextlib.ExitStack() as stack:
        if variant.jaccard_kernel is not None:
            stack.enter_context(use_kernel("jaccard", variant.jaccard_kernel))
        if variant.lsap_kernel is not None:
            stack.enter_context(use_kernel("lsap", variant.lsap_kernel))
        for event in journal.events:
            divergence = _apply_event(event, state, variant, report)
            if divergence is not None:
                report.divergence = divergence
                return report
            report.events_applied += 1
    return report


def _check_display(payload: dict, state: _ReplayState, report: ReplayReport) -> None:
    """The daemon's C1/C2 guard, re-run over the replayed displays."""
    shown = tuple(payload["task_ids"]) + tuple(payload["random_pad_ids"])
    if len(set(shown)) != len(shown) or state.displayed_ever & set(shown):
        report.disjointness_violations += 1
    state.displayed_ever.update(shown)
    report.displays_checked += 1


def _apply_event(
    event: dict,
    state: _ReplayState,
    variant: ReplayVariant,
    report: ReplayReport,
) -> "Divergence | None":
    event_type = event["type"]
    seq = event["seq"]
    service = state.service

    if event_type == "restore":
        snapshot = event["state"]
        service.restore_state(snapshot["service"], state.task_index)
        # Tasks admitted before the snapshot are rebuilt from its own
        # arrival log; future events may reference them by id.
        for task in service.admitted_tasks():
            state.task_index[task.task_id] = task
        state.displayed_ever = set(snapshot["displayed_ever"])
        if state.quality is not None:
            if "quality" in snapshot:
                state.quality.load_state_dict(snapshot["quality"])
            state.quality.on_admitted(service.admitted_tasks())
        return None

    if event_type == "register":
        return _apply_register(event, state, variant, report)

    if event_type == "complete":
        worker_id = event["worker_id"]
        task_id = event["task_id"]
        is_alias = state.quality is not None and state.quality.is_quality_task(
            task_id
        )
        if is_alias:
            # Gold/replica aliases never reached the service when recorded;
            # they route straight to the quality layer here too.
            state.quality.on_answer(worker_id, task_id, event.get("answer"))
            report.completions += 1
            return None
        try:
            service.observe_completion(worker_id, task_id)
        except Exception as exc:
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="completion",
                recorded="accepted",
                replayed=f"{type(exc).__name__}: {exc}",
                worker_id=worker_id,
                trace_ids=(event["trace_id"],) if event.get("trace_id") else None,
            )
        if state.quality is not None:
            state.quality.on_answer(worker_id, task_id, event.get("answer"))
        report.completions += 1
        return None

    if event_type == "probe":
        if state.quality is None:
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="quality",
                recorded=event["aliases"],
                replayed=None,
                worker_id=event["worker_id"],
            )
        minted = state.quality.on_display(
            event["worker_id"], event["iteration"]
        )
        minted_ids = [task.task_id for task in minted]
        if minted_ids != list(event["aliases"]):
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="aliases",
                recorded=event["aliases"],
                replayed=minted_ids,
                worker_id=event["worker_id"],
            )
        state.displayed_ever.update(minted_ids)
        return None

    if event_type == "tick":
        if state.quality is not None:
            state.quality.on_tick()
        return None

    if event_type == "task_arrival":
        n_keywords = len(next(iter(state.task_index.values())).vector)
        tasks = []
        for spec in event["tasks"]:
            vector = np.zeros(n_keywords, dtype=bool)
            if spec["interest"]:
                vector[np.asarray(spec["interest"], dtype=int)] = True
            tasks.append(
                Task(
                    task_id=spec["task_id"],
                    vector=vector,
                    group=spec.get("group", ""),
                    title=spec.get("title", ""),
                    reward=float(spec.get("reward", 0.05)),
                    n_questions=int(spec.get("n_questions", 1)),
                )
            )
        try:
            service.admit_tasks(tasks)
        except Exception as exc:
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="admission",
                recorded="admitted",
                replayed=f"{type(exc).__name__}: {exc}",
                trace_ids=(event["trace_id"],) if event.get("trace_id") else None,
            )
        for task in tasks:
            state.task_index[task.task_id] = task
        if state.quality is not None:
            state.quality.on_admitted(tasks)
        report.arrivals += 1
        return None

    if event_type == "unregister":
        removed = service.unregister_worker(event["worker_id"])
        if removed and state.quality is not None:
            state.quality.on_unregister(event["worker_id"])
        if not removed:
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="registered",
                recorded=True,
                replayed=False,
                worker_id=event["worker_id"],
            )
        return None

    if event_type == "handoff_out":
        worker_id = event["worker_id"]
        recorded_blob = event["state"]
        try:
            exported = service.export_worker(worker_id)
        except Exception as exc:
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="export",
                recorded="exported",
                replayed=f"{type(exc).__name__}: {exc}",
                worker_id=worker_id,
            )
        mismatch = _first_mismatch(recorded_blob.get("service", {}), exported)
        if mismatch is not None:
            field_name, rec, rep = mismatch
            return Divergence(
                seq=seq,
                event_type=event_type,
                field=field_name,
                recorded=rec,
                replayed=rep,
                worker_id=worker_id,
            )
        service.unregister_worker(worker_id)
        return None

    if event_type == "handoff_in":
        worker_id = event["worker_id"]
        blob = event["state"]
        n_keywords = len(next(iter(state.task_index.values())).vector)
        for spec in blob.get("tasks", ()):
            vector = np.zeros(n_keywords, dtype=bool)
            if spec["interest"]:
                vector[np.asarray(spec["interest"], dtype=int)] = True
            state.task_index.setdefault(
                spec["task_id"],
                Task(
                    task_id=spec["task_id"],
                    vector=vector,
                    group=spec.get("group", ""),
                    title=spec.get("title", ""),
                    reward=float(spec.get("reward", 0.05)),
                    n_questions=int(spec.get("n_questions", 1)),
                ),
            )
        try:
            service.import_worker(worker_id, blob["service"], state.task_index)
        except Exception as exc:
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="adopt",
                recorded="adopted",
                replayed=f"{type(exc).__name__}: {exc}",
                worker_id=worker_id,
            )
        display = blob["service"].get("display")
        if display is not None:
            # Mirror the daemon's C2 ledger: adopted display ids can never
            # reappear in this shard's disjoint pool, but the end-state
            # fingerprint covers the ledger, so replay must carry them.
            state.displayed_ever.update(display["task_ids"])
        return None

    if event_type == "lease":
        return _apply_lease(event, state, variant)

    if event_type == "commit":
        return _apply_commit(event, state, variant, report)

    if event_type == "abandon":
        prepared = state.leases.pop(event["lease_id"], None)
        state.lease_traces.pop(event["lease_id"], None)
        if prepared is None:
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="lease",
                recorded=event["lease_id"],
                replayed=None,
                lease_id=event["lease_id"],
            )
        service.abandon_solve(prepared)
        report.solves_abandoned += 1
        return None

    if event_type == "snapshot":
        return None

    if event_type == "end":
        replayed_sha = state_fingerprint(state.end_payload())
        if replayed_sha != event["state_sha"]:
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="state_sha",
                recorded=event["state_sha"],
                replayed=replayed_sha,
            )
        report.state_verified = True
        return None

    raise ReplayError(f"seq {seq}: unknown event type {event_type!r}")


def _apply_register(
    event: dict,
    state: _ReplayState,
    variant: ReplayVariant,
    report: ReplayReport,
) -> "Divergence | None":
    service = state.service
    recorded = event["event"]
    n_keywords = len(
        next(iter(state.task_index.values())).vector
    )
    vector = np.zeros(n_keywords, dtype=bool)
    if event["interest"]:
        vector[np.asarray(event["interest"], dtype=int)] = True
    solver_name = variant.pinned_solver or event["solver"]
    if solver_name != service.strategy:
        # The live daemon registers through the degradation controller's
        # active tier; reproduce that (or the pinned override) here.
        service.set_solver_provider(lambda: get_solver(solver_name))
    try:
        replayed = service.register_worker(
            Worker(event["worker_id"], vector),
            wall_time=recorded["wall_time"],
        )
    finally:
        service.set_solver_provider(None)
    report.registers += 1
    trace_ids = (event["trace_id"],) if event.get("trace_id") else None
    mismatch = _first_mismatch(recorded, event_payload(replayed))
    if mismatch is not None:
        field_name, rec, rep = mismatch
        return Divergence(
            seq=event["seq"],
            event_type="register",
            field=field_name,
            recorded=rec,
            replayed=rep,
            worker_id=event["worker_id"],
            trace_ids=trace_ids,
        )
    _check_display(recorded, state, report)
    return None


def _apply_lease(
    event: dict, state: _ReplayState, variant: ReplayVariant
) -> "Divergence | None":
    service = state.service
    seq = event["seq"]
    trace_ids = tuple(event["trace_ids"]) if event.get("trace_ids") else None
    solver_name = variant.pinned_solver or event["solver"]
    prepared = service.prepare_solve(event["worker_ids"], solver_name=solver_name)
    if prepared is None:
        return Divergence(
            seq=seq,
            event_type="lease",
            field="prepared",
            recorded="leased",
            replayed=None,
            lease_id=event["lease_id"],
            trace_ids=trace_ids,
        )
    checks = [
        ("worker_ids", event["worker_ids"], list(prepared.worker_ids)),
        ("seed", event["seed"], prepared.seed),
        ("n_candidates", event["n_candidates"], len(prepared.candidates)),
        (
            "candidates_sha",
            event["candidates_sha"],
            candidates_fingerprint(t.task_id for t in prepared.candidates),
        ),
    ]
    if variant.pinned_solver is None:
        checks.append(("solver", event["solver"], prepared.solver_name))
    for field_name, recorded, replayed in checks:
        if recorded != replayed:
            service.abandon_solve(prepared)
            return Divergence(
                seq=seq,
                event_type="lease",
                field=field_name,
                recorded=recorded,
                replayed=replayed,
                lease_id=event["lease_id"],
                trace_ids=trace_ids,
            )
    state.leases[event["lease_id"]] = prepared
    state.lease_traces[event["lease_id"]] = trace_ids
    return None


def _apply_commit(
    event: dict,
    state: _ReplayState,
    variant: ReplayVariant,
    report: ReplayReport,
) -> "Divergence | None":
    service = state.service
    seq = event["seq"]
    lease_id = event["lease_id"]
    trace_ids = state.lease_traces.pop(lease_id, None)
    prepared = state.leases.pop(lease_id, None)
    if prepared is None:
        return Divergence(
            seq=seq,
            event_type="commit",
            field="lease",
            recorded=lease_id,
            replayed=None,
            lease_id=lease_id,
            trace_ids=trace_ids,
        )
    assigned = _run_prepared(prepared, variant)
    replayed_events = service.commit_solve(
        prepared, assigned, event["wall_time"]
    )
    report.solves_committed += 1
    recorded_events = event["events"]
    workers_recorded = sorted(recorded_events)
    workers_replayed = sorted(replayed_events)
    if workers_recorded != workers_replayed:
        return Divergence(
            seq=seq,
            event_type="commit",
            field="workers",
            recorded=workers_recorded,
            replayed=workers_replayed,
            lease_id=lease_id,
            trace_ids=trace_ids,
        )
    for worker_id in workers_recorded:
        mismatch = _first_mismatch(
            recorded_events[worker_id], event_payload(replayed_events[worker_id])
        )
        if mismatch is not None:
            field_name, rec, rep = mismatch
            return Divergence(
                seq=seq,
                event_type="commit",
                field=field_name,
                recorded=rec,
                replayed=rep,
                lease_id=lease_id,
                worker_id=worker_id,
                trace_ids=trace_ids,
            )
        _check_display(recorded_events[worker_id], state, report)
    return None


def default_variants(
    pin_tier: "str | None" = None,
) -> list[ReplayVariant]:
    """The differential panel: every configuration that must agree."""
    variants = [
        ReplayVariant("in-loop"),
        ReplayVariant("engine", engine_semantics=True),
        ReplayVariant("engine+shm", engine_semantics=True, shm_shipping=True),
        ReplayVariant("jaccard-dense", jaccard_kernel="dense"),
        ReplayVariant("lsap-reference", lsap_kernel="reference"),
        ReplayVariant("lsap-warm", lsap_kernel="warm"),
        ReplayVariant(
            "engine+dense", engine_semantics=True, jaccard_kernel="dense"
        ),
    ]
    if pin_tier is not None:
        variants.append(ReplayVariant(f"pin:{pin_tier}", pinned_solver=pin_tier))
    return variants


def replay_differential(
    journal: Journal,
    pool: TaskPool,
    variants: "Sequence[ReplayVariant] | None" = None,
) -> list[ReplayReport]:
    """Replay one journal under every variant; one report each.

    Each variant replays against a fresh service, so reports are
    independent; the caller decides which divergences are fatal (a pinned
    tier diverging from a run recorded on a different tier is expected —
    that's the diagnostic).
    """
    return [
        replay_journal(journal, pool, variant)
        for variant in (variants if variants is not None else default_variants())
    ]
