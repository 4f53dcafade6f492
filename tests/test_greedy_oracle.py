"""The chunked greedy passes of HTA-GRE against one-edge-at-a-time oracles.

``greedy_matching_dense`` filters blocks of sorted edges with numpy before
its per-edge loop, and HTA-GRE's greedy LSAP runs over the |W|+1 column
classes of the profit matrix instead of its n columns.  Both must give the
plain greedy's output exactly, so the oracles here are the plain loops, and
the HTA-GRE oracle is the paper-literal square pipeline built from them.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_random_instance
from repro.core import (
    HTAInstance,
    MotivationWeights,
    Task,
    TaskPool,
    Worker,
    WorkerPool,
)
from repro.core.qap import build_encoding
from repro.core.solvers import get_solver
from repro.core.solvers.pipeline import _best_swap, _matched_edge_weights
from repro.data.crowdflower import CrowdFlowerConfig, generate_crowdflower_corpus
from repro.data.workers import generate_online_workers
from repro.errors import InvalidInstanceError
from repro.matching import greedy_lsap, greedy_matching_dense, solve_lsap


def greedy_matching_oracle(weights: np.ndarray) -> list[tuple[int, int]]:
    """Greedy matching, one sorted edge at a time (the paper's loop)."""
    n = weights.shape[0]
    if n < 2:
        return []
    rows, cols = np.triu_indices(n, k=1)
    edge_weights = weights[rows, cols]
    matched = np.zeros(n, dtype=bool)
    matching = []
    for e in np.argsort(-edge_weights, kind="stable"):
        if edge_weights[e] <= 0.0:
            break
        i, j = int(rows[e]), int(cols[e])
        if not matched[i] and not matched[j]:
            matched[i] = matched[j] = True
            matching.append((i, j))
    return matching


def greedy_lsap_oracle(profit: np.ndarray) -> np.ndarray:
    """Greedy LSAP on the full matrix, one sorted entry at a time."""
    n_rows, n_cols = profit.shape
    order = np.argsort(-profit, axis=None, kind="stable")
    row_free = np.ones(n_rows, dtype=bool)
    col_free = np.ones(n_cols, dtype=bool)
    row_to_col = np.full(n_rows, -1, dtype=np.intp)
    for r, c in zip(*np.unravel_index(order, profit.shape)):
        if row_free[r] and col_free[c]:
            row_to_col[r] = c
            row_free[r] = col_free[c] = False
    return row_to_col


def square_hta_gre_groups(instance: HTAInstance, seed: int) -> list[list[int]]:
    """HTA-GRE (Algorithm 2) on the full square profit matrix, drawing from
    the generator in the solver's order: row relabeling, then swaps."""
    generator = np.random.default_rng(seed)
    encoding = build_encoding(instance)
    matching = greedy_matching_oracle(encoding.diversity)
    profits = encoding.profit_matrix(_matched_edge_weights(encoding, matching))
    row_order = generator.permutation(encoding.n_vertices)
    base = np.empty(encoding.n_vertices, dtype=np.intp)
    base[row_order] = greedy_lsap_oracle(profits[row_order])
    permutation, _ = _best_swap(encoding, base, matching, generator, 1)
    return encoding.tasks_by_worker(permutation)


def hta_gre_groups(instance: HTAInstance, seed: int) -> list[list[int]]:
    result = get_solver("hta-gre").solve(instance, np.random.default_rng(seed))
    return result.assignment.indices(instance)


@st.composite
def tied_symmetric(draw, max_n=24):
    """Symmetric matrices over a few values, so ties and non-positive
    weights are common, as on clustered task pools."""
    n = draw(st.integers(0, max_n))
    values = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]),
                           min_size=n * n, max_size=n * n))
    w = np.array(values, dtype=float).reshape(n, n)
    w = np.triu(w, 1)
    return w + w.T


class TestChunkedMatching:
    @given(tied_symmetric())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_with_ties(self, w):
        assert greedy_matching_dense(w) == greedy_matching_oracle(w)

    @pytest.mark.parametrize("n", [2, 3, 40, 401])
    def test_matches_oracle_on_random_weights(self, n):
        rng = np.random.default_rng(n)
        w = rng.random((n, n))
        w = np.triu(w, 1) + np.triu(w, 1).T
        assert greedy_matching_dense(w) == greedy_matching_oracle(w)

    def test_all_equal_weights(self):
        w = np.ones((9, 9)) - np.eye(9)
        assert greedy_matching_dense(w) == greedy_matching_oracle(w)
        assert len(greedy_matching_dense(w)) == 4


class TestClassGreedyLSAP:
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_classes_match_full_matrix(self, sizes, seed, tied):
        rng = np.random.default_rng(seed)
        n_cols = sum(sizes)
        n_rows = int(rng.integers(0, n_cols + 1))
        classes = (
            rng.integers(0, 3, (n_rows, len(sizes))).astype(float)
            if tied
            else rng.random((n_rows, len(sizes)))
        )
        full = np.repeat(classes, sizes, axis=1)
        expected = greedy_lsap_oracle(full)
        by_class = greedy_lsap(classes, np.array(sizes))
        assert by_class.row_to_col.tolist() == expected.tolist()
        assert greedy_lsap(full).row_to_col.tolist() == expected.tolist()
        assert by_class.value == greedy_lsap(full).value

    def test_other_methods_solve_the_full_matrix(self):
        classes = np.array([[3.0, 1.0], [2.0, 2.0], [1.0, 0.0]])
        sizes = np.array([2, 1])
        full = np.repeat(classes, sizes, axis=1)
        for method in ("hungarian", "auction", "brute_force"):
            got = solve_lsap(classes, method, class_sizes=sizes)
            want = solve_lsap(full, method)
            assert got.row_to_col.tolist() == want.row_to_col.tolist()

    @pytest.mark.parametrize("sizes", [[2, 0], [1, 1, 1], [1, 1]])
    def test_rejects_bad_class_sizes(self, sizes):
        # A zero-size class, one size too many, too few columns for 3 rows.
        with pytest.raises(InvalidInstanceError):
            greedy_lsap(np.ones((3, 2)), np.array(sizes))


@functools.cache
def _corpus():
    return generate_crowdflower_corpus(CrowdFlowerConfig(n_tasks=3000), rng=7)


def serving_instance(seed: int) -> HTAInstance:
    """400 candidates from a CrowdFlower-like corpus, x_max 15, 1-5 workers
    with their own alpha/beta: the shape the daemon solves."""
    rng = np.random.default_rng(seed)
    corpus = _corpus()
    tasks = list(corpus.pool)
    picked = rng.choice(len(tasks), 400, replace=False)
    vocabulary = corpus.pool.vocabulary
    n_workers = int(rng.integers(1, 6))
    online = generate_online_workers(n_workers, vocabulary, rng=rng)
    workers = WorkerPool(
        (w.with_weights(MotivationWeights(a, 1.0 - a))
         for w, a in zip(online, rng.random(n_workers))),
        vocabulary,
    )
    return HTAInstance(TaskPool([tasks[i] for i in picked], vocabulary), workers, 15)


class TestHtaGreMatchesSquarePath:
    @pytest.mark.parametrize("seed", range(20))
    def test_serving_shape(self, seed):
        instance = serving_instance(seed)
        assert hta_gre_groups(instance, seed) == square_hta_gre_groups(instance, seed)

    @given(
        st.integers(1, 30), st.integers(1, 4), st.integers(1, 6),
        st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_instances(self, n_tasks, n_workers, x_max, seed):
        # Covers |T| < |W| x_max (no padding class), x_max = 1 and n = 2.
        instance = make_random_instance(n_tasks, n_workers, x_max, seed=seed)
        assert hta_gre_groups(instance, seed) == square_hta_gre_groups(instance, seed)

    def test_all_equal_profits(self, vocab):
        # Identical tasks and identical workers: zero diversity, and every
        # clique column of the profit matrix holds the same value.
        keywords = np.arange(10) < 4
        tasks = TaskPool([Task(f"t{i}", keywords) for i in range(40)], vocab)
        workers = WorkerPool(
            (Worker(f"w{q}", keywords, MotivationWeights(0.5, 0.5))
             for q in range(3)),
            vocab,
        )
        instance = HTAInstance(tasks, workers, x_max=5)
        for seed in range(5):
            assert hta_gre_groups(instance, seed) == square_hta_gre_groups(instance, seed)

    def test_empty_keyword_rows(self, vocab):
        # Keyword-less tasks are identical to each other: zero diversity
        # among them, zero relevance to every worker.
        empty = np.zeros(10, dtype=bool)
        tasks = TaskPool(
            [Task(f"e{i}", empty) for i in range(12)]
            + [Task(f"t{i}", np.arange(10) == i) for i in range(6)],
            vocab,
        )
        instance = HTAInstance(tasks, _workers(vocab, 2), x_max=4)
        for seed in range(5):
            assert hta_gre_groups(instance, seed) == square_hta_gre_groups(instance, seed)

    def test_two_vertices(self, vocab):
        tasks = TaskPool([Task("a", np.arange(10) < 3), Task("b", np.arange(10) > 6)], vocab)
        instance = HTAInstance(tasks, _workers(vocab, 1), x_max=1)
        assert hta_gre_groups(instance, 0) == square_hta_gre_groups(instance, 0)


def _workers(vocab, n: int) -> WorkerPool:
    return WorkerPool(
        (Worker(f"w{q}", np.arange(10) % (q + 2) == 0, MotivationWeights(0.5, 0.5))
         for q in range(n)),
        vocab,
    )
