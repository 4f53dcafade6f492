"""HTA problem instances.

An :class:`HTAInstance` bundles the inputs of Problem 1 — available tasks
``T^i``, available workers ``W^i`` (with their current alpha/beta), and the
per-worker capacity ``Xmax`` — together with the two precomputed matrices
every solver needs:

* ``diversity``: ``(n_tasks, n_tasks)`` pairwise task distances, and
* ``relevance``: ``(n_workers, n_tasks)`` worker-task relevances
  (``rel(t, w) = 1 - d_rel(t, w)``).

Matrices are computed once at construction, so repeated solver runs on the
same instance (e.g. when benchmarking) pay the distance cost only once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import InvalidInstanceError
from .distance import DistanceSpec
from .task import TaskPool
from .worker import WorkerPool


@dataclass(frozen=True)
class HTAInstance:
    """One iteration's holistic task-assignment problem.

    Attributes:
        tasks: The available tasks ``T^i``.
        workers: The available workers ``W^i`` (alphas/betas included).
        x_max: Capacity per worker (constraint C1); the paper's ``Xmax``.
        distance: Distance used for both diversity and relevance (default
            Jaccard, as in the paper).
    """

    tasks: TaskPool
    workers: WorkerPool
    x_max: int
    distance: DistanceSpec = DistanceSpec("jaccard")

    def __post_init__(self) -> None:
        if self.x_max < 1:
            raise InvalidInstanceError(f"x_max must be >= 1, got {self.x_max}")
        if self.tasks.vocabulary != self.workers.vocabulary:
            raise InvalidInstanceError(
                "tasks and workers must share one vocabulary"
            )

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def capacity(self) -> int:
        """Total number of assignable task slots, ``|W| * Xmax``."""
        return self.n_workers * self.x_max

    @cached_property
    def diversity(self) -> np.ndarray:
        """Pairwise task-diversity matrix ``d(t_k, t_l)``, shape ``(n, n)``."""
        return self.distance.matrix(self.tasks.matrix)

    @cached_property
    def relevance(self) -> np.ndarray:
        """Worker-task relevance matrix, shape ``(n_workers, n_tasks)``."""
        return 1.0 - self.distance.matrix(self.workers.matrix, self.tasks.matrix)

    def prime(
        self,
        diversity: np.ndarray | None = None,
        relevance: np.ndarray | None = None,
    ) -> "HTAInstance":
        """Seed the cached matrices with externally precomputed values.

        The serving layer computes each solve's pairwise-diversity block
        from its packed keyword-row index and hands it in here.  Shapes are
        validated; values are trusted.  Returns ``self`` for chaining.
        """
        if diversity is not None:
            diversity = np.asarray(diversity, dtype=np.float64)
            if diversity.shape != (self.n_tasks, self.n_tasks):
                raise InvalidInstanceError(
                    f"primed diversity must have shape "
                    f"({self.n_tasks}, {self.n_tasks}), got {diversity.shape}"
                )
            self.__dict__["diversity"] = diversity
        if relevance is not None:
            relevance = np.asarray(relevance, dtype=np.float64)
            if relevance.shape != (self.n_workers, self.n_tasks):
                raise InvalidInstanceError(
                    f"primed relevance must have shape "
                    f"({self.n_workers}, {self.n_tasks}), got {relevance.shape}"
                )
            self.__dict__["relevance"] = relevance
        return self

    def alphas(self) -> np.ndarray:
        return self.workers.alphas

    def betas(self) -> np.ndarray:
        return self.workers.betas

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"HTAInstance({self.n_tasks} tasks, {self.n_workers} workers, "
            f"x_max={self.x_max}, distance={self.distance.name})"
        )
