"""Differential tests against the exact oracle, and cache bit-identity.

Theorem-level guarantees the serving ladder leans on, checked empirically
on exhaustive small instances (the :class:`ExactSolver` caps enumeration at
12 tasks / 4 workers; we stay at <= 8 tasks / <= 3 workers):

* HTA-APP is a 1/4-approximation of the MAXQAP optimum (Theorem 2);
* HTA-GRE is a 1/8-approximation (Theorem 3);
* no heuristic on the ladder ever exceeds the optimum (sanity direction);
* :class:`IncrementalDiversityCache` blocks are *bit-identical* to the
  dense ``pairwise_jaccard`` kernel under arbitrary removal and arrival
  sequences — the property that makes in-loop, engine and replayed solves
  see the same diversity.

The approximation guarantees are stated for the QAP-encoded objective
(relevance scaled by ``x_max - 1`` regardless of set size), so ratios are
compared in that scale against ``ExactSolver(objective="qap")``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance import pairwise_jaccard
from repro.core.motivation import diversity_of_subset, relevance_of_subset
from repro.core.solvers import (
    ExactSolver,
    HTAAppSolver,
    HTAGreSolver,
    RelevanceGreedySolver,
)
from repro.core.task import Task, TaskPool, Vocabulary
from repro.serve import IncrementalDiversityCache

from conftest import make_random_instance

TOLERANCE = 1e-9

#: (n_tasks, n_workers, x_max) grid — everything within the exact caps.
SMALL_GRID = [
    (2, 1, 2),
    (4, 1, 3),
    (4, 2, 2),
    (5, 2, 2),
    (6, 2, 3),
    (6, 3, 2),
    (8, 2, 3),
    (8, 3, 2),
    (8, 3, 3),
]

SEEDS = (0, 1, 2, 3, 4)


def qap_objective(instance, assignment) -> float:
    """Evaluate ``assignment`` in the QAP objective scale (Eq. 8 RHS)."""
    total = 0.0
    for q, worker in enumerate(instance.workers):
        idx = [
            instance.tasks.position(tid)
            for tid in assignment.tasks_of(worker.worker_id)
        ]
        if not idx:
            continue
        div = diversity_of_subset(instance.diversity, idx)
        rel = relevance_of_subset(instance.relevance[q], idx)
        total += (
            2.0 * worker.alpha * div
            + worker.beta * (instance.x_max - 1) * rel
        )
    return total


def exact_optimum(instance) -> float:
    result = ExactSolver(objective="qap").solve(instance)
    return float(result.info["optimal_value"])


class TestApproximationRatios:
    @pytest.mark.parametrize("n_tasks,n_workers,x_max", SMALL_GRID)
    def test_hta_app_within_quarter_of_optimum(self, n_tasks, n_workers, x_max):
        for seed in SEEDS:
            instance = make_random_instance(n_tasks, n_workers, x_max, seed=seed)
            optimum = exact_optimum(instance)
            result = HTAAppSolver().solve(instance, rng=seed)
            value = qap_objective(instance, result.assignment)
            assert value >= 0.25 * optimum - TOLERANCE, (
                f"HTA-APP broke its 1/4 guarantee on seed {seed}: "
                f"{value} < 0.25 * {optimum}"
            )

    @pytest.mark.parametrize("n_tasks,n_workers,x_max", SMALL_GRID)
    def test_hta_gre_within_eighth_of_optimum(self, n_tasks, n_workers, x_max):
        for seed in SEEDS:
            instance = make_random_instance(n_tasks, n_workers, x_max, seed=seed)
            optimum = exact_optimum(instance)
            result = HTAGreSolver().solve(instance, rng=seed)
            value = qap_objective(instance, result.assignment)
            assert value >= 0.125 * optimum - TOLERANCE, (
                f"HTA-GRE broke its 1/8 guarantee on seed {seed}: "
                f"{value} < 0.125 * {optimum}"
            )

    @pytest.mark.parametrize("n_tasks,n_workers,x_max", SMALL_GRID[::3])
    def test_no_ladder_rung_exceeds_optimum(self, n_tasks, n_workers, x_max):
        """The exact value really is an upper bound for every heuristic."""
        for seed in SEEDS[:3]:
            instance = make_random_instance(n_tasks, n_workers, x_max, seed=seed)
            optimum = exact_optimum(instance)
            for solver in (HTAAppSolver(), HTAGreSolver(), RelevanceGreedySolver()):
                value = qap_objective(instance, solver.solve(instance, rng=seed).assignment)
                assert value <= optimum + TOLERANCE

    def test_exact_qap_matches_hta_on_saturated_instances(self):
        """When every worker is filled to x_max the two oracle modes agree."""
        instance = make_random_instance(6, 2, 3, seed=11)
        qap = ExactSolver(objective="qap").solve(instance)
        # On a saturated optimum, re-scoring the qap-optimal assignment with
        # Eq. 3 gives the same number (|T'| - 1 == x_max - 1).
        if all(
            len(qap.assignment.tasks_of(w.worker_id)) == instance.x_max
            for w in instance.workers
        ):
            assert qap.info["optimal_value"] == pytest.approx(
                qap.assignment.objective(instance)
            )


def _make_pool(n_tasks: int, seed: int) -> TaskPool:
    rng = np.random.default_rng(seed)
    vocab = Vocabulary([f"k{i}" for i in range(16)])
    return TaskPool(
        [Task(f"t{i}", rng.random(16) < 0.35) for i in range(n_tasks)], vocab
    )


class TestCacheBitIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_carves_bit_identical_under_random_removals(self, seed):
        """Cache blocks must equal the dense kernel *bit for bit*
        (``np.array_equal``, no tolerance) however removals and arrivals
        interleave, and must decline any block naming a forgotten id."""
        pool = _make_pool(60, seed)
        cache = IncrementalDiversityCache(pool)
        rng = np.random.default_rng(seed)
        vectors = {task.task_id: task.vector for task in pool}
        alive = list(vectors)
        forgotten: list[str] = []
        arrivals = 0
        while len(alive) > 4:
            # Remove a random chunk, as completed displays would.
            k = int(rng.integers(1, 6))
            removed = [
                alive.pop(int(rng.integers(len(alive)))) for _ in range(min(k, len(alive) - 2))
            ]
            cache.on_removed(removed)
            forgotten.extend(removed)
            if rng.random() < 0.3:
                # A requester posts a small batch, as POST /tasks would.
                batch = [
                    Task(f"arr{arrivals + j}", rng.random(16) < 0.35)
                    for j in range(int(rng.integers(1, 4)))
                ]
                arrivals += len(batch)
                cache.on_added(batch)
                for task in batch:
                    vectors[task.task_id] = task.vector
                    alive.append(task.task_id)
            # Carve a random subset of survivors and compare against a fresh
            # end-to-end computation from the keyword vectors.
            subset_size = int(rng.integers(2, min(12, len(alive)) + 1))
            subset = list(rng.choice(alive, size=subset_size, replace=False))
            carved = cache.submatrix(subset)
            assert carved is not None
            fresh = pairwise_jaccard(
                np.vstack([vectors[tid] for tid in subset]), kernel="dense"
            )
            assert np.array_equal(carved, fresh), (
                f"cache block diverged from the dense kernel (seed={seed})"
            )
            assert cache.submatrix(subset + forgotten[-1:]) is None
        assert len(cache) == len(alive)

    def test_unknown_id_returns_none_not_garbage(self):
        pool = _make_pool(10, 0)
        cache = IncrementalDiversityCache(pool)
        cache.on_removed(["t3"])
        assert cache.submatrix(["t1", "t3"]) is None
        assert cache.submatrix(["t1", "t2"]) is not None
