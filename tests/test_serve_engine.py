"""SolveEngine: the prepare/solve/commit seam and the off-loop process pool."""

import asyncio
import time

import numpy as np
import pytest

from repro.core import Task, TaskPool, Vocabulary, Worker
from repro.core.distance import pairwise_jaccard
from repro.core.solvers.base import Solver, get_solver, register_solver
from repro.crowd.service import AssignmentService, ServiceConfig
from repro.serve.app import AssignmentDaemon, ServeConfig
from repro.serve.cache import IncrementalDiversityCache
from repro.serve.engine import SolveEngine
from repro.serve.metrics import MetricsRegistry
from repro.serve.resilience import ResilienceConfig
from repro.serve.shm import TaskMatrixStore, shm_entries
from repro.serve.tracing import SolveContext


class SlowSolver(Solver):
    """Sleeps, then delegates — inherited by forked pool workers, so the
    latency-under-solve test can stall a worker process on demand."""

    name = "slow-test-solver"
    delay = 0.4

    def solve(self, instance, rng=None):
        time.sleep(self.delay)
        return get_solver("hta-gre").solve(instance, rng)


try:
    register_solver(SlowSolver)
except ValueError:  # already registered by a previous collection
    pass


N_KEYWORDS = 20


@pytest.fixture
def vocab():
    return Vocabulary([f"k{i}" for i in range(N_KEYWORDS)])


@pytest.fixture
def pool(vocab):
    rng = np.random.default_rng(3)
    return TaskPool(
        [Task(f"t{i}", rng.random(N_KEYWORDS) < 0.3) for i in range(120)], vocab
    )


def make_service(pool, **config_kwargs):
    defaults = dict(x_max=4, n_random_pad=2, reassign_after=2, min_pending=1)
    defaults.update(config_kwargs)
    service = AssignmentService(pool, "hta-gre", ServiceConfig(**defaults), rng=0)
    rng = np.random.default_rng(9)
    for i in range(3):
        service.register_worker(Worker(f"w{i}", rng.random(N_KEYWORDS) < 0.3), 0.0)
    return service


class TestPrepareCommit:
    def test_prepare_leases_disjoint_candidates(self, pool):
        service = make_service(pool, candidate_cap=20)
        first = service.prepare_solve(["w0"])
        second = service.prepare_solve(["w1"])
        first_ids = {t.task_id for t in first.candidates}
        second_ids = {t.task_id for t in second.candidates}
        assert len(first_ids) == len(second_ids) == 20
        assert not first_ids & second_ids
        service.abandon_solve(first)
        service.abandon_solve(second)

    def test_abandon_restores_the_pool(self, pool):
        service = make_service(pool, candidate_cap=20)
        before = service.remaining_tasks()
        prepared = service.prepare_solve(["w0"])
        assert service.remaining_tasks() == before - 20
        service.abandon_solve(prepared)
        assert service.remaining_tasks() == before
        assert all(t.task_id in service.pool_state for t in prepared.candidates)

    def test_lease_is_silent_commit_notifies_once(self, pool):
        service = make_service(pool, candidate_cap=20)
        removed: list[str] = []
        service.pool_state.add_removal_listener(removed.extend)
        prepared = service.prepare_solve(["w0"])
        assert removed == []  # leasing never notifies listeners
        picked = [t.task_id for t in prepared.candidates[:3]]
        events = service.commit_solve(prepared, {"w0": picked}, 1.0)
        assert set(picked) <= set(removed)
        assert events["w0"].task_ids == tuple(picked)
        # Assigned tasks and pads left the pool exactly once.
        assert len(removed) == len(set(removed))
        for tid in removed:
            assert tid not in service.pool_state

    def test_commit_skips_unregistered_worker(self, pool):
        service = make_service(pool, candidate_cap=20)
        before = service.remaining_tasks()
        prepared = service.prepare_solve(["w0"])
        picked = [t.task_id for t in prepared.candidates[:3]]
        service.unregister_worker("w0")
        events = service.commit_solve(prepared, {"w0": picked}, 1.0)
        assert events == {}
        # The lease (and the would-be assignment) went back to the pool.
        assert service.remaining_tasks() == before

    def test_commit_falls_back_to_random_draws(self, pool):
        service = make_service(pool, candidate_cap=20)
        prepared = service.prepare_solve(["w0"])
        events = service.commit_solve(prepared, {}, 1.0)
        # Solver gave w0 nothing; it drew x_max random tasks instead.
        assert len(events["w0"].task_ids) == 4

    def test_prepare_returns_none_without_workers_or_tasks(self, pool):
        service = make_service(pool, candidate_cap=20)
        assert service.prepare_solve(["ghost"]) is None
        service.pool_state.remove(service.pool_state.task_ids())
        assert service.prepare_solve(["w0"]) is None

    def test_prepare_primes_cached_diversity(self, pool):
        service = make_service(pool, candidate_cap=None)
        IncrementalDiversityCache(pool).attach(service)
        prepared = service.prepare_solve(["w0"])
        ids = [t.task_id for t in prepared.candidates]
        expected = pairwise_jaccard(pool.subset(ids).matrix)
        np.testing.assert_allclose(prepared.instance.diversity, expected)
        service.abandon_solve(prepared)

    def test_cache_stays_in_parity_across_commits(self, pool):
        service = make_service(pool, candidate_cap=30)
        cache = IncrementalDiversityCache(pool).attach(service)
        # Registration drew tasks before the cache attached; sync it the way
        # the daemon's restore path does.
        cache.on_removed(
            [t.task_id for t in pool if t.task_id not in service.pool_state]
        )
        for _ in range(3):
            prepared = service.prepare_solve(["w0", "w1"])
            picked = [t.task_id for t in prepared.candidates[:4]]
            service.commit_solve(prepared, {"w0": picked[:2], "w1": picked[2:]}, 1.0)
        live = service.pool_state.task_ids()
        assert len(cache) == len(live)
        sample = live[:10]
        np.testing.assert_allclose(
            cache.submatrix(sample), pairwise_jaccard(pool.subset(sample).matrix)
        )


class TestSolveEngine:
    def test_end_to_end_solve_and_commit(self, pool):
        async def scenario():
            service = make_service(pool, candidate_cap=30)
            registry = MetricsRegistry()
            engine = SolveEngine(service, registry, n_workers=1)
            try:
                events, seconds = await engine.solve_batch(
                    ["w0", "w1", "w2"], wall_time=1.0
                )
            finally:
                await engine.close()
            return service, registry, events, seconds

        service, registry, events, seconds = asyncio.run(scenario())
        assert set(events) == {"w0", "w1", "w2"}
        assert seconds > 0.0
        shown: list[str] = []
        for event in events.values():
            shown.extend(event.task_ids)
            shown.extend(event.random_pad_ids)
        assert len(shown) == len(set(shown))  # C1/C2 across the whole batch
        for tid in shown:
            assert tid not in service.pool_state
        snapshot = registry.snapshot()
        assert snapshot["serve_engine_solves_total"] == 1
        assert snapshot["serve_engine_solve_errors_total"] == 0
        assert snapshot["serve_engine_queue_depth"] == 0
        assert snapshot["serve_engine_in_flight"] == 0

    def test_worker_phase_timings_published(self, pool):
        async def scenario():
            service = make_service(pool, candidate_cap=30)
            registry = MetricsRegistry()
            engine = SolveEngine(service, registry, n_workers=1)
            try:
                await engine.solve_batch(["w0", "w1"], wall_time=1.0)
            finally:
                await engine.close()
            return registry

        summaries = asyncio.run(scenario()).get(
            "serve_solver_phase_seconds"
        ).summaries()
        phases = {"encode", "matching", "profits", "lsap", "decode", "total"}
        assert set(summaries) == {("hta-gre", phase) for phase in phases}
        assert all(s["count"] == 1 for s in summaries.values())

    def test_unknown_solver_releases_lease(self, pool):
        async def scenario():
            service = make_service(pool, candidate_cap=30)
            registry = MetricsRegistry()
            engine = SolveEngine(service, registry, n_workers=1)
            before = service.remaining_tasks()
            try:
                with pytest.raises(Exception):
                    await engine.solve_batch(
                        ["w0"], 1.0, solver_name="no-such-solver"
                    )
            finally:
                await engine.close()
            return before, service.remaining_tasks(), registry

        before, after, registry = asyncio.run(scenario())
        assert after == before  # abandon_solve returned the lease
        assert registry.snapshot()["serve_engine_solve_errors_total"] == 1

    def test_event_loop_stays_responsive_during_solve(self, pool):
        """The acceptance criterion: a slow solve in a worker process must
        not stall the event loop the way the in-loop path does."""

        async def scenario():
            service = make_service(pool, candidate_cap=30)
            engine = SolveEngine(
                service,
                MetricsRegistry(),
                n_workers=1,
                solver_names=("slow-test-solver",),
            )
            stop = asyncio.Event()
            max_gap = 0.0

            async def ticker():
                nonlocal max_gap
                loop = asyncio.get_running_loop()
                last = loop.time()
                while not stop.is_set():
                    await asyncio.sleep(0.005)
                    now = loop.time()
                    max_gap = max(max_gap, now - last)
                    last = now

            tick_task = asyncio.create_task(ticker())
            try:
                events, seconds = await engine.solve_batch(
                    ["w0"], 1.0, solver_name="slow-test-solver"
                )
            finally:
                stop.set()
                await tick_task
                await engine.close()
            return events, seconds, max_gap

        events, seconds, max_gap = asyncio.run(scenario())
        assert "w0" in events
        assert seconds >= SlowSolver.delay * 0.9  # measured inside the worker
        # A blocked loop would show one gap >= the full solve delay; pass
        # anything clearly below it so scheduler jitter on a loaded CI
        # box (pytest -n, containers) can't trip the assertion.
        assert max_gap < SlowSolver.delay * 0.75, (
            f"event loop stalled for {max_gap:.3f}s "
            f"(solve delay {SlowSolver.delay}s)"
        )

    def test_rejects_zero_workers(self, pool):
        service = make_service(pool)
        with pytest.raises(ValueError, match="n_workers"):
            SolveEngine(service, MetricsRegistry(), n_workers=0)


def make_store(service):
    """The daemon's store construction: every remaining task, pool order."""
    tasks = service.pool_state.shortlist(None)
    return TaskMatrixStore(tasks, N_KEYWORDS)


class TestSharedMemoryEngine:
    def test_shm_shipping_bit_identical_to_pickled(self, pool):
        """The tentpole differential: the same batch solved via zero-copy
        index shipping and via the pickled instance must produce
        byte-identical display events."""

        async def run_one(use_shm):
            service = make_service(pool, candidate_cap=30)
            store = make_store(service) if use_shm else None
            engine = SolveEngine(
                service, MetricsRegistry(), n_workers=1, shm_store=store
            )
            ctx = SolveContext()
            try:
                events, _ = await engine.solve_batch(
                    ["w0", "w1", "w2"], wall_time=1.0, ctx=ctx
                )
            finally:
                await engine.close()
                if store is not None:
                    store.close()
            return events, ctx

        before = shm_entries()
        shm_events, shm_ctx = asyncio.run(run_one(True))
        pickle_events, pickle_ctx = asyncio.run(run_one(False))
        assert shm_ctx.attrs["shipping"] == "shm"
        assert pickle_ctx.attrs["shipping"] == "pickle"
        # Index arrays instead of a pickled instance: the payload collapses.
        assert shm_ctx.attrs["payload_bytes"] < pickle_ctx.attrs["payload_bytes"]
        assert set(shm_events) == set(pickle_events)
        for worker_id, event in shm_events.items():
            other = pickle_events[worker_id]
            assert event.task_ids == other.task_ids
            assert event.random_pad_ids == other.random_pad_ids
            assert event.alpha == other.alpha
            assert event.beta == other.beta
        assert not [n for n in shm_entries() if n not in before]

    def test_uncovered_candidates_fall_back_to_pickle(self, pool):
        async def scenario():
            service = make_service(pool, candidate_cap=30)
            # A store that knows none of the pool's tasks: rows_for -> None.
            store = TaskMatrixStore([], N_KEYWORDS)
            engine = SolveEngine(
                service, MetricsRegistry(), n_workers=1, shm_store=store
            )
            ctx = SolveContext()
            try:
                events, _ = await engine.solve_batch(["w0"], 1.0, ctx=ctx)
            finally:
                await engine.close()
                store.close()
            return events, ctx

        events, ctx = asyncio.run(scenario())
        assert "w0" in events
        assert ctx.attrs["shipping"] == "pickle"

    def test_crash_rebuild_keeps_segments_and_serving(self, pool):
        """Fault injection: a worker death mid-solve must not unlink the
        daemon's segments, and the rebuilt pool must keep solving via shm."""

        async def scenario():
            service = make_service(pool, candidate_cap=30)
            store = make_store(service)
            registry = MetricsRegistry()
            engine = SolveEngine(
                service, registry, n_workers=1, shm_store=store
            )
            try:
                with pytest.raises(Exception):
                    await engine.solve_batch(["w0"], 1.0, crash=True)
                live_after_crash = [
                    n for n in store.live_segments() if n in shm_entries()
                ]
                ctx = SolveContext()
                events, _ = await engine.solve_batch(["w1"], 1.0, ctx=ctx)
            finally:
                await engine.close()
                store.close()
            return registry.snapshot(), live_after_crash, events, ctx

        before = shm_entries()
        snapshot, live_after_crash, events, ctx = asyncio.run(scenario())
        assert snapshot["serve_engine_pool_rebuilds_total"] == 1
        assert live_after_crash  # the crash never unlinked the live segment
        assert "w1" in events
        assert ctx.attrs["shipping"] == "shm"
        assert not [n for n in shm_entries() if n not in before]

    def test_arrival_republishes_without_breaking_inflight_refs(self, pool):
        async def scenario():
            service = make_service(pool, candidate_cap=30)
            store = make_store(service)
            service.pool_state.add_arrival_listener(store.on_arrivals)
            engine = SolveEngine(
                service, MetricsRegistry(), n_workers=1, shm_store=store
            )
            try:
                version_before = store.version
                rng = np.random.default_rng(17)
                service.admit_tasks(
                    [
                        Task(f"arr{i}", rng.random(N_KEYWORDS) < 0.3)
                        for i in range(5)
                    ]
                )
                assert store.version == version_before + 1
                ctx = SolveContext()
                events, _ = await engine.solve_batch(["w0"], 1.0, ctx=ctx)
            finally:
                await engine.close()
                store.close()
            return events, ctx

        before = shm_entries()
        events, ctx = asyncio.run(scenario())
        assert "w0" in events
        assert ctx.attrs["shipping"] == "shm"
        assert not [n for n in shm_entries() if n not in before]


class TestDaemonIntegration:
    def test_zero_workers_keeps_in_loop_path(self, pool):
        async def scenario():
            daemon = AssignmentDaemon(pool, ServeConfig(port=0, solver_workers=0))
            await daemon.start()
            try:
                assert daemon.engine is None
                event = await daemon.scheduler.submit("nobody")
                assert event is None
            finally:
                await daemon.stop()

        asyncio.run(scenario())

    def test_engine_mode_serves_scheduler_batches(self, pool):
        async def scenario():
            config = ServeConfig(
                port=0,
                solver_workers=2,
                max_batch_delay=0.01,
                seed=0,
                service=ServiceConfig(
                    x_max=4, n_random_pad=2, reassign_after=2, min_pending=1
                ),
            )
            daemon = AssignmentDaemon(pool, config)
            await daemon.start()
            try:
                rng = np.random.default_rng(4)
                for i in range(4):
                    daemon.service.register_worker(
                        Worker(f"w{i}", rng.random(N_KEYWORDS) < 0.3), 0.0
                    )
                futures = [daemon.scheduler.submit(f"w{i}") for i in range(4)]
                events = await asyncio.gather(*futures)
                snapshot = daemon.registry.snapshot()
                health = daemon._healthz()
            finally:
                await daemon.stop()
            return events, snapshot, health

        events, snapshot, health = asyncio.run(scenario())
        assert all(e is not None for e in events)
        assert snapshot["serve_engine_solves_total"] >= 1
        assert snapshot["serve_disjointness_violations_total"] == 0
        assert snapshot["serve_reassignments_total"] == 4
        assert health["engine"]["workers"] == 2
        assert health["engine"]["shared_memory"] is True
        assert health["engine"]["shm_rows"] > 0

    def test_daemon_cleans_segments_and_honors_opt_out(self, pool):
        async def scenario(shared_memory):
            config = ServeConfig(
                port=0,
                solver_workers=1,
                max_batch_delay=0.0,
                shared_memory=shared_memory,
                seed=0,
            )
            daemon = AssignmentDaemon(pool, config)
            await daemon.start()
            try:
                health = daemon._healthz()
            finally:
                await daemon.stop()
            return health

        before = shm_entries()
        health_on = asyncio.run(scenario(True))
        health_off = asyncio.run(scenario(False))
        assert health_on["engine"]["shared_memory"] is True
        assert health_off["engine"]["shared_memory"] is False
        assert not [n for n in shm_entries() if n not in before]

    def test_solve_budget_signal_crosses_process_boundary(self, pool):
        """A worker-side solve over budget must still degrade the tier."""

        async def scenario():
            config = ServeConfig(
                port=0,
                solver_workers=1,
                max_batch_delay=0.0,
                seed=0,
                resilience=ResilienceConfig(
                    solve_budget=1e-6, breach_threshold=1, recovery_threshold=99
                ),
            )
            daemon = AssignmentDaemon(pool, config)
            await daemon.start()
            try:
                daemon.service.register_worker(
                    Worker("w0", np.ones(N_KEYWORDS, dtype=bool)), 0.0
                )
                assert daemon.degradation.tier == 0
                await daemon.scheduler.submit("w0")
                tier_after = daemon.degradation.tier
                strategy_after = daemon.degradation.strategy
            finally:
                await daemon.stop()
            return tier_after, strategy_after

        tier_after, strategy_after = asyncio.run(scenario())
        assert tier_after == 1
        assert strategy_after != "hta-gre"
