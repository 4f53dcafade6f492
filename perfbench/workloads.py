"""The benchmark's workloads: daemon configuration plus offered load.

Why each workload was chosen and which layers it stresses is recorded in
``BENCHMARK.json`` (``why``) and ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Every workload's daemon uses this corpus seed.  The workload seed shapes
#: only the traffic, which is all the daemon receives.
DAEMON_SEED = 7
#: Daemon defaults the driver relies on: the random pad closes each display,
#: and the candidate cap is the serving shape the end-of-run gate checks.
RANDOM_PAD = 5
CANDIDATE_CAP = 400
#: The daemon reassigns on every 8th completion of a worker
#: (``--reassign-after`` default).
REASSIGN_AFTER = 8
#: Open loop: completions per worker session.  Each session ends with
#: exactly one fresh assignment, so none of a worker's plain completions
#: waits on its own pending assignment.
COMPLETIONS = REASSIGN_AFTER
#: Think times come from the crowd pace model,
#: ``repro.crowd.behavior.WorkerBehavior.task_duration`` (per-worker speed
#: spread, lognormal noise, 1 s floor), evaluated at a task of relevance
#: ``TASK_RELEVANCE`` on a display of diversity ``DISPLAY_DIVERSITY``.  Its
#: median is about 41 s a task, so one unscaled session lasts about six
#: minutes and holding the run's offered load would take thousands of
#: concurrent workers, each leasing 20 tasks from a pool whose diversity
#: cache grows with its square.  The crowd therefore runs
#: ``TIME_COMPRESSION`` times faster than the model (mean think about
#: 0.8 s, 5th percentile about 0.27 s): every think time shrinks by the
#: same factor, so the spread between workers and tasks is the model's.
TASK_RELEVANCE = 0.5
DISPLAY_DIVERSITY = 0.5
TIME_COMPRESSION = 60.0
#: Mean session length at that compression (8 think times of about 0.8 s);
#: arrivals stop this long before the open loop ends, and requests a slow
#: worker would send after the end are not sent (the worker leaves).
SESSION_S = 6.5
#: Offered load: each workload's workers arrive at ``OFFERED_LOAD`` times
#: the capacity its own saturation phase measured
#: (``Workload.reference_capacity_cps``), in sessions of ``COMPLETIONS``.
#: The load stays well below capacity: a 120 ms solve blocks the daemon's
#: loop and an assign request holds one of the ``nproc`` connections
#: through its batch, so at half load the plain tail swings from run to
#: run with how often both connections are held at once.
OFFERED_LOAD = 0.2
#: Closed-loop saturation: concurrent back-to-back workers.
SATURATION_WORKERS = 8
#: Tasks per ``POST /tasks`` of the ingest probe.
POST_BATCH = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: Corpus size: large enough that at least ``CANDIDATE_CAP`` tasks
    #: remain after the run's traffic.
    tasks: int
    #: Completions/s of the saturation phase, median of five seeds on a
    #: 2-core Intel Xeon container when the workload was defined.
    reference_capacity_cps: float
    strategy: str = "hta-gre"
    #: Keeps crash-safe snapshots and a flight journal in the run directory.
    durable: bool = False

    @property
    def arrival_rate(self) -> float:
        """Open-loop worker arrivals per second."""
        return OFFERED_LOAD * self.reference_capacity_cps / COMPLETIONS

    def serve_args(self, state_dir: str) -> list[str]:
        args = [
            "serve",
            "--tasks", str(self.tasks),
            "--strategy", self.strategy,
            "--seed", str(DAEMON_SEED),
            "--uvloop", "off",
        ]
        if self.durable:
            args += [
                "--snapshot-path", f"{state_dir}/state.db",
                "--journal", f"{state_dir}/journal.jsonl",
            ]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="steady-gre", tasks=5500, reference_capacity_cps=105.0, durable=True
        ),
        Workload(
            name="relevance-floor",
            tasks=9000,
            reference_capacity_cps=288.0,
            strategy="greedy-relevance",
        ),
    )
}
