"""Diversity index: parity with the dense Jaccard oracle.

The index keeps packed keyword rows, not a pairwise matrix, and computes
each requested block on demand.  Under any hypothesis-generated
interleaving of appends and removals, every block it serves must be
*bit-identical* (``np.array_equal``, not allclose) to
``pairwise_jaccard(..., kernel="dense")`` over the same keyword rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Task, TaskPool, Vocabulary
from repro.core.distance import pairwise_jaccard, take_submatrix
from repro.crowd.service import AssignmentService, ServiceConfig
from repro.serve.cache import IncrementalDiversityCache


@pytest.fixture
def vocab():
    return Vocabulary([f"k{i}" for i in range(20)])


@pytest.fixture
def pool(vocab):
    rng = np.random.default_rng(3)
    return TaskPool(
        [Task(f"t{i}", rng.random(20) < 0.3) for i in range(80)], vocab
    )


class TestTakeSubmatrix:
    def test_matches_fancy_indexing(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((10, 10))
        idx = [7, 2, 5]
        expected = matrix[np.ix_(idx, idx)]
        got = take_submatrix(matrix, idx)
        np.testing.assert_array_equal(got, expected)
        assert got.flags["C_CONTIGUOUS"]

    def test_duplicate_indices(self):
        rng = np.random.default_rng(1)
        matrix = rng.random((8, 8))
        idx = [2, 2, 5]
        np.testing.assert_array_equal(
            take_submatrix(matrix, idx), matrix[np.ix_(idx, idx)]
        )

    def test_out_of_order_indices(self):
        rng = np.random.default_rng(2)
        matrix = rng.random((9, 9))
        idx = [8, 0, 4, 1]
        np.testing.assert_array_equal(
            take_submatrix(matrix, idx), matrix[np.ix_(idx, idx)]
        )

    def test_empty_index_set(self):
        assert take_submatrix(np.zeros((5, 5)), []).shape == (0, 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            take_submatrix(np.zeros((3, 4)), [0])


class TestCacheParity:
    def test_submatrix_matches_recompute(self, pool):
        cache = IncrementalDiversityCache(pool)
        ids = [t.task_id for t in pool][10:40]
        sub = cache.submatrix(ids)
        expected = pairwise_jaccard(pool.subset(ids).matrix, kernel="dense")
        assert np.array_equal(sub, expected)

    def test_parity_survives_removals(self, pool):
        rng = np.random.default_rng(1)
        cache = IncrementalDiversityCache(pool)
        alive = [t.task_id for t in pool]
        for _ in range(5):
            drop = list(rng.choice(alive, size=10, replace=False))
            cache.on_removed(drop)
            alive = [tid for tid in alive if tid not in set(drop)]
            sample = list(rng.choice(alive, size=min(12, len(alive)), replace=False))
            sub = cache.submatrix(sample)
            expected = pairwise_jaccard(pool.subset(sample).matrix, kernel="dense")
            assert np.array_equal(sub, expected)
        assert len(cache) == len(alive)

    def test_submatrix_duplicate_ids(self, pool):
        cache = IncrementalDiversityCache(pool)
        ids = ["t3", "t3", "t7"]
        base = [t.task_id for t in pool]
        rows = [base.index(tid) for tid in ids]
        full = pairwise_jaccard(pool.matrix, kernel="dense")
        assert np.array_equal(cache.submatrix(ids), full[np.ix_(rows, rows)])

    def test_submatrix_out_of_order_ids(self, pool):
        cache = IncrementalDiversityCache(pool)
        ids = ["t40", "t2", "t19", "t5"]
        base = [t.task_id for t in pool]
        rows = [base.index(tid) for tid in ids]
        full = pairwise_jaccard(pool.matrix, kernel="dense")
        assert np.array_equal(cache.submatrix(ids), full[np.ix_(rows, rows)])

    def test_submatrix_empty_ids(self, pool):
        cache = IncrementalDiversityCache(pool)
        assert cache.submatrix([]).shape == (0, 0)

    def test_unknown_id_declines(self, pool):
        cache = IncrementalDiversityCache(pool)
        cache.on_removed(["t0"])
        assert cache.submatrix(["t0", "t1"]) is None
        assert "t0" not in cache

    def test_holds_no_pairwise_matrix(self, pool):
        cache = IncrementalDiversityCache(pool)
        cache.submatrix([t.task_id for t in pool])
        assert cache.allocated_rows == 0
        assert cache.carves == 1


def _rebuild_oracle(rows: dict[str, np.ndarray]) -> np.ndarray:
    """From-scratch dense-kernel Jaccard over the live rows, in arrival order."""
    return pairwise_jaccard(np.vstack(list(rows.values())), kernel="dense")


class TestCacheGrowth:
    """Appends: the open-world direction of the cache contract."""

    R = 12

    def _make(self, seed=0, n=10, width=None, density=0.35):
        width = self.R if width is None else width
        rng = np.random.default_rng(seed)
        vocab = Vocabulary([f"k{i}" for i in range(width)])
        tasks = [Task(f"t{i}", rng.random(width) < density) for i in range(n)]
        pool = TaskPool(tasks, vocab)
        cache = IncrementalDiversityCache(pool)
        live = {t.task_id: np.asarray(t.vector, dtype=bool) for t in tasks}
        return cache, live, rng

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        width=st.sampled_from([1, 12, 64, 97, 130]),
        density=st.sampled_from([0.0, 0.35, 1.0]),
        ops=st.lists(
            st.tuples(st.sampled_from(["add", "remove"]), st.integers(1, 6)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_interleaved_growth_matches_rebuild_oracle(
        self, seed, width, density, ops
    ):
        """Any append/remove interleaving serves the dense oracle's bits.

        Drains to empty and regrows when hypothesis finds that path.  Each
        step also asks for a shuffled subset with a repeated id, and for a
        block that names a removed id, which must decline.
        """
        cache, live, rng = self._make(seed=seed, width=width, density=density)
        counter = len(live)
        removed: list[str] = []
        for kind, size in ops:
            if kind == "add":
                batch = [
                    Task(f"t{counter + j}", rng.random(width) < density)
                    for j in range(size)
                ]
                counter += size
                cache.on_added(batch)
                for task in batch:
                    live[task.task_id] = np.asarray(task.vector, dtype=bool)
            elif live:
                picks = rng.choice(
                    len(live), size=min(size, len(live)), replace=False
                )
                ids = [list(live)[i] for i in sorted(picks)]
                cache.on_removed(ids)
                for tid in ids:
                    live.pop(tid)
                removed.extend(ids)
            assert len(cache) == len(live)
            if live:
                got = cache.submatrix(list(live))
                assert got is not None
                assert np.array_equal(got, _rebuild_oracle(live))
                order = list(rng.permutation(list(live)))
                order.append(order[0])
                expected = pairwise_jaccard(
                    np.vstack([live[tid] for tid in order]), kernel="dense"
                )
                assert np.array_equal(cache.submatrix(order), expected)
            else:
                assert cache.submatrix([]).shape == (0, 0)
            if removed:
                assert cache.submatrix(list(live)[:1] + removed[-1:]) is None

    def test_empty_append_is_a_noop(self):
        cache, live, _ = self._make()
        before = cache.submatrix(list(live)).copy()
        cache.on_added([])
        assert cache.appends == 0
        np.testing.assert_array_equal(cache.submatrix(list(live)), before)

    def test_duplicate_id_in_batch_rejected_atomically(self):
        cache, live, rng = self._make()
        fresh = rng.random(self.R) < 0.35
        batch = [Task("new-a", fresh), Task("new-a", fresh)]
        with pytest.raises(ValueError, match="already cached"):
            cache.on_added(batch)
        assert "new-a" not in cache
        assert np.array_equal(
            cache.submatrix(list(live)), _rebuild_oracle(live)
        )

    def test_duplicate_of_live_row_rejected_atomically(self):
        cache, live, rng = self._make()
        batch = [Task("new-b", rng.random(self.R) < 0.35), Task("t3", rng.random(self.R) < 0.35)]
        with pytest.raises(ValueError, match="t3"):
            cache.on_added(batch)
        assert "new-b" not in cache  # the valid half must not land either
        assert np.array_equal(
            cache.submatrix(list(live)), _rebuild_oracle(live)
        )

    def test_vector_length_mismatch_rejected(self):
        cache, _, rng = self._make()
        with pytest.raises(ValueError, match="keyword"):
            cache.on_added([Task("new-c", rng.random(self.R + 3) < 0.35)])

    def test_append_after_total_drain(self):
        cache, live, rng = self._make(n=6)
        cache.on_removed(list(live))
        assert len(cache) == 0
        batch = [Task(f"fresh{i}", rng.random(self.R) < 0.35) for i in range(4)]
        cache.on_added(batch)
        rows = {t.task_id: np.asarray(t.vector, dtype=bool) for t in batch}
        got = cache.submatrix(list(rows))
        assert np.array_equal(got, _rebuild_oracle(rows))


class TestServiceIntegration:
    def test_cached_service_matches_uncached_run(self, pool, vocab):
        """Same seed, same strategy: the cache must not change assignments."""
        from repro.core import Worker

        config = ServiceConfig(
            x_max=4, n_random_pad=2, reassign_after=3, min_pending=1,
            candidate_cap=None,
        )

        def drive(service):
            events = []
            rng = np.random.default_rng(9)
            for i in range(3):
                worker = Worker(f"w{i}", rng.random(20) < 0.3)
                events.append(service.register_worker(worker, 0.0))
            for _ in range(2):
                for i in range(3):
                    wid = f"w{i}"
                    for tid in service.pending_ids(wid)[:3]:
                        service.observe_completion(wid, tid)
                    event = service.maybe_reassign(wid, 1.0, 1.0)
                    if event is not None:
                        events.append(event)
            return [(e.worker_id, e.task_ids, e.random_pad_ids) for e in events]

        plain = AssignmentService(pool, "hta-gre-rel", config, rng=0)
        cached = AssignmentService(pool, "hta-gre-rel", config, rng=0)
        IncrementalDiversityCache(pool).attach(cached)
        assert drive(plain) == drive(cached)

    def test_attach_subscribes_to_pool_arrivals(self, pool):
        """Admitting tasks through the service grows the attached cache."""
        rng = np.random.default_rng(7)
        service = AssignmentService(pool, "hta-gre-rel", ServiceConfig(), rng=0)
        cache = IncrementalDiversityCache(pool).attach(service)
        arrivals = [Task(f"arr-{i}", rng.random(20) < 0.3) for i in range(3)]
        service.admit_tasks(arrivals)
        assert all(task.task_id in cache for task in arrivals)
        ids = ["t5", "arr-0", "t12", "arr-2"]
        rows = {t.task_id: np.asarray(t.vector, dtype=bool) for t in pool}
        rows.update(
            (t.task_id, np.asarray(t.vector, dtype=bool)) for t in arrivals
        )
        expected = pairwise_jaccard(np.vstack([rows[tid] for tid in ids]))
        assert np.array_equal(cache.submatrix(ids), expected)
