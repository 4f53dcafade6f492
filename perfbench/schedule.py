"""Seeded open-loop traffic: who arrives when, and what each request is.

Everything here is a pure function of the workload seed and the daemon's
keyword vocabulary, so the same seed always offers the same traffic.
Arrivals are a Poisson process conditioned on its count (sorted uniform
times over the arrival window): the offered load per run is fixed while
the gaps stay exponential, which keeps run-to-run spread down.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.worker import MotivationWeights
from repro.crowd.behavior import (
    BehaviorParams,
    LatentProfile,
    WorkerBehavior,
    sample_latent_profiles,
)

from workloads import DISPLAY_DIVERSITY, TASK_RELEVANCE


@dataclass(frozen=True)
class WorkerPlan:
    """One simulated worker's session."""

    worker_id: str
    #: Seconds after phase start at which ``POST /workers`` is due.
    arrival: float
    keywords: tuple[str, ...]
    #: Latent (alpha*, beta*) and pace; drives task choice and motivation.
    profile: LatentProfile
    #: Think time before each completion (the pace model's task duration,
    #: time-compressed); completion k is due at
    #: ``arrival + sum(think[:k + 1])`` whatever the daemon did before.
    think: tuple[float, ...]
    #: Seeds this worker's task-choice stream.
    choice_seed: int

    def due_times(self) -> list[float]:
        """Due time of each completion, in order."""
        return list(self.arrival + np.cumsum(self.think))


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def stratified_alphas(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` latent alphas from Beta(2, 2) along a seeded golden-ratio
    sequence of probabilities.

    Same marginal as :func:`repro.crowd.behavior.sample_latent_profiles`,
    but every prefix of the sequence covers the distribution evenly, so a
    run's crowd (or the part of it a phase gets through) is spread over it
    and the run's mean motivation varies far less from seed to seed.  The
    Beta(2, 2) CDF ``3x^2 - 2x^3`` inverts in closed form.
    """
    u = (rng.uniform() + np.arange(n) * _GOLDEN) % 1.0
    return 0.5 + np.sin(np.arcsin(2.0 * u - 1.0) / 3.0)


def _pick(rng: np.random.Generator, vocabulary: list[str], count: int) -> list[str]:
    picks = rng.choice(len(vocabulary), size=min(count, len(vocabulary)), replace=False)
    return sorted(vocabulary[int(i)] for i in picks)


def worker_plans(
    seed: int,
    vocabulary: list[str],
    n_workers: int,
    window_s: float,
    completions: int,
    time_compression: float,
    n_keywords: int = 6,
    prefix: str = "w",
) -> list[WorkerPlan]:
    """``n_workers`` sessions arriving over ``[0, window_s)``; each think
    time is ``WorkerBehavior.task_duration`` under the worker's latent pace,
    divided by ``time_compression``."""
    rng = _rng(seed, 0)
    arrivals = np.sort(rng.uniform(0.0, window_s, size=n_workers))
    alphas = stratified_alphas(rng, n_workers)
    plans = []
    for index, (arrival, alpha) in enumerate(zip(arrivals, alphas)):
        worker_rng = _rng(seed, 1000 + index)
        profile = sample_latent_profiles(1, rng=worker_rng)[0]
        pace = WorkerBehavior(profile, BehaviorParams(), worker_rng)
        think = [
            pace.task_duration(TASK_RELEVANCE, DISPLAY_DIVERSITY) / time_compression
            for _ in range(completions)
        ]
        plans.append(
            WorkerPlan(
                worker_id=f"{prefix}{seed}-{index}",
                arrival=float(arrival),
                keywords=tuple(_pick(worker_rng, vocabulary, n_keywords)),
                profile=replace(
                    profile, weights=MotivationWeights(float(alpha), 1.0 - float(alpha))
                ),
                think=tuple(think),
                choice_seed=int(worker_rng.integers(2**63)),
            )
        )
    return plans


def task_posts(
    seed: int, vocabulary: list[str], n_posts: int, batch_size: int, n_keywords: int = 6
) -> list[list[dict]]:
    """``POST /tasks`` bodies of correlated bursts: each post's tasks share
    all but one keyword with the post's base set, the similar-arrivals case
    that costs the diversity cache the most per row.  Ids (``in{seed}-{i}``)
    are disjoint from the corpus's ``t{i}``."""
    rng = _rng(seed, 1)
    posts = []
    index = 0
    for _ in range(n_posts):
        base = _pick(rng, vocabulary, n_keywords)
        outside = [k for k in vocabulary if k not in base]
        tasks = []
        for _ in range(batch_size):
            keywords = list(base)
            keywords[int(rng.integers(len(keywords)))] = outside[
                int(rng.integers(len(outside)))
            ]
            tasks.append(
                {
                    "task_id": f"in{seed}-{index}",
                    "keywords": sorted(set(keywords)),
                    "group": "ingest",
                    "title": f"ingested {index}",
                }
            )
            index += 1
        posts.append(tasks)
    return posts
