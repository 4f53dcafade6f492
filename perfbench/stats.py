"""Summary statistics shared by the driver, the layers and the tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.keywords import Vocabulary
from repro.core.motivation import motivation
from repro.core.task import Task
from repro.core.worker import MotivationWeights, Worker

#: A reported percentile keeps at least this many samples above it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """A percentile as reported: its value, the quantile actually used and
    the sample count it rests on."""

    value: float
    quantile: float
    samples: int

    def describe(self) -> dict:
        return {"q": round(self.quantile, 4), "n": self.samples}


def percentile(samples: Sequence[float], named: float) -> Percentile:
    """The ``named`` quantile, or the highest one with ``MIN_BEYOND``
    samples beyond it when the sample is too small for ``named``.

    Nearest rank: the value is the ``k``-th smallest with ``k = ceil(q n)``,
    so ``n - k >= MIN_BEYOND`` samples lie beyond it.
    """
    n = len(samples)
    if n <= MIN_BEYOND:
        raise ValueError(
            f"{n} samples cannot support any percentile with "
            f"{MIN_BEYOND} samples beyond it"
        )
    quantile = min(named, (n - MIN_BEYOND) / n)
    rank = max(1, math.ceil(quantile * n - 1e-9))
    return Percentile(sorted(samples)[rank - 1], quantile, n)


class MotivationMeter:
    """Eq. 3 ``motiv(T', w)`` of displayed sets under latent weights."""

    def __init__(self, keywords: Sequence[str]):
        self.vocabulary = Vocabulary(keywords)

    def score(
        self,
        worker_keywords: Sequence[str],
        weights: MotivationWeights,
        task_keywords: Sequence[Sequence[str]],
    ) -> float:
        worker = Worker("w", self.vocabulary.encode(worker_keywords), weights)
        tasks = [
            Task(f"t{i}", self.vocabulary.encode(words))
            for i, words in enumerate(task_keywords)
        ]
        return motivation(tasks, worker)
