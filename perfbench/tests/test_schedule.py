"""The offered traffic is a pure function of the workload seed."""

import numpy as np
import pytest

from repro.crowd.behavior import BehaviorParams, WorkerBehavior
from schedule import stratified_alphas, task_posts, worker_plans
from workloads import DISPLAY_DIVERSITY, TASK_RELEVANCE

VOCABULARY = [f"k{i}" for i in range(40)]


def test_worker_plans_are_deterministic_per_seed():
    first = worker_plans(3, VOCABULARY, 12, 5.0, 8, 40.0)
    again = worker_plans(3, VOCABULARY, 12, 5.0, 8, 40.0)
    other = worker_plans(4, VOCABULARY, 12, 5.0, 8, 40.0)
    assert first == again
    assert [p.arrival for p in first] != [p.arrival for p in other]


def test_worker_plans_shape():
    plans = worker_plans(1, VOCABULARY, 30, 10.0, 16, 40.0)
    arrivals = [p.arrival for p in plans]
    assert arrivals == sorted(arrivals)
    assert all(0.0 <= a < 10.0 for a in arrivals)
    assert len({p.worker_id for p in plans}) == 30
    for plan in plans:
        assert len(plan.think) == 16
        dues = plan.due_times()
        assert dues == sorted(dues) and dues[0] > plan.arrival
        assert set(plan.keywords) <= set(VOCABULARY)
        weights = plan.profile.weights
        assert abs(weights.alpha + weights.beta - 1.0) < 1e-9


def test_think_times_are_the_pace_models_compressed_durations():
    plans = worker_plans(2, VOCABULARY, 400, 10.0, 8, 40.0)
    think = np.array([t for plan in plans for t in plan.think])
    # The model's 1 s floor, compressed.
    assert think.min() >= 1.0 / 40.0
    # The compressed mean sits where the model's own durations put it.
    model = [
        WorkerBehavior(p.profile, BehaviorParams(), np.random.default_rng(i))
        .task_duration(TASK_RELEVANCE, DISPLAY_DIVERSITY)
        for i, p in enumerate(plans)
        for _ in range(8)
    ]
    assert think.mean() * 40.0 == pytest.approx(np.mean(model), rel=0.1)
    # Faster latent workers think less.
    speeds = np.array([p.profile.speed for p in plans])
    means = np.array([np.mean(p.think) for p in plans])
    assert np.corrcoef(speeds, 1.0 / means)[0, 1] > 0.5


def test_task_posts_are_deterministic_unique_and_correlated():
    first = task_posts(5, VOCABULARY, 20, 10)
    assert first == task_posts(5, VOCABULARY, 20, 10)
    ids = [t["task_id"] for post in first for t in post]
    assert len(ids) == len(set(ids)) == 200
    for post in first:
        # Each task swaps one keyword of its post's six-keyword base set,
        # so any two tasks of a post share at least four.
        keyword_sets = [set(t["keywords"]) for t in post]
        assert all(len(a & b) >= 4 for a in keyword_sets for b in keyword_sets)


@pytest.mark.parametrize("n", [5, 13, 50, 400])
def test_every_prefix_of_alphas_covers_the_distribution(n):
    alphas = stratified_alphas(np.random.default_rng(n), 400)[:n]
    cdf = np.sort(3 * alphas**2 - 2 * alphas**3)  # Beta(2, 2) CDF
    ideal = (np.arange(n) + 0.5) / n
    assert np.max(np.abs(cdf - ideal)) <= 2.0 / n
