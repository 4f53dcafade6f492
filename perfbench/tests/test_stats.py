"""The percentile rule and the motivation metric."""

import pytest

from repro.core.keywords import Vocabulary
from repro.core.motivation import motivation
from repro.core.task import Task
from repro.core.worker import MotivationWeights, Worker
from stats import MIN_BEYOND, MotivationMeter, percentile


@pytest.mark.parametrize("n", [11, 20, 100, 518, 1000, 5000])
@pytest.mark.parametrize("named", [0.5, 0.9, 0.99])
def test_percentile_keeps_ten_samples_beyond(n, named):
    samples = [float(i) for i in range(n)]
    result = percentile(samples, named)
    beyond = sum(1 for s in samples if s > result.value)
    assert beyond >= MIN_BEYOND
    assert result.quantile <= named
    assert result.samples == n
    if n * (1 - named) >= MIN_BEYOND:
        assert result.quantile == named  # the named percentile is supported
    else:
        assert beyond == MIN_BEYOND  # the highest supported one


def test_percentile_values():
    samples = list(range(1, 1001))
    assert percentile(samples, 0.99).value == 990
    assert percentile(samples, 0.5).value == 500
    small = percentile(list(range(1, 101)), 0.99)
    assert small.value == 90 and small.quantile == pytest.approx(0.9)


def test_percentile_refuses_tiny_samples():
    with pytest.raises(ValueError):
        percentile([1.0] * MIN_BEYOND, 0.5)


def test_motivation_matches_eq3_on_hand_built_sets():
    keywords = ["a", "b", "c", "d", "e", "f"]
    vocabulary = Vocabulary(keywords)
    sets = [["a", "b"], ["b", "c", "d"], ["e"], ["a", "f"]]
    interests = ["a", "c", "e"]
    weights = MotivationWeights(0.3, 0.7)
    worker = Worker("w", vocabulary.encode(interests), weights)
    tasks = [Task(f"t{i}", vocabulary.encode(s)) for i, s in enumerate(sets)]
    expected = motivation(tasks, worker)
    meter = MotivationMeter(keywords)
    assert meter.score(interests, weights, sets) == pytest.approx(expected, abs=1e-12)
    assert expected > 0


def test_motivation_of_single_task_has_no_diversity():
    meter = MotivationMeter(["a", "b"])
    # |T'| = 1: no pairs and (|T'| - 1) = 0, so Eq. 3 is 0.
    assert meter.score(["a"], MotivationWeights(0.5, 0.5), [["a"]]) == 0.0
