"""Per-solve pairwise diversity for the serving layer.

Every HTA solve needs the pairwise task-diversity block of its candidate
set, at most ``candidate_cap`` (~400) tasks.  The daemon keeps no pairwise
matrix: it indexes each live task's keyword vector, bit-packed into
``ceil(R / 64)`` ``uint64`` words, and computes the candidates' exact
Jaccard block on demand with :func:`repro.core.distance.packed_jaccard`,
the same kernel engine workers and replay reach through
:func:`~repro.core.distance.pairwise_jaccard`.  So served blocks are
bit-identical to a from-scratch computation by construction, and the index
costs ``O(|T| R / 8)`` bytes — startup time and memory grow linearly with
the corpus.

The pool is open-world in both directions: the index subscribes to
:class:`repro.crowd.service.TaskPoolState` removal *and* arrival events (see
:meth:`IncrementalDiversityCache.attach`).  A removal forgets ids; an
arrival batch packs and indexes its rows, ``O(batch)`` work.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.distance import packed_jaccard
from ..core.task import Task, TaskPool
from ..perf.bitpack import pack_rows


class IncrementalDiversityCache:
    """Task id -> packed keyword row over a dynamic (shrink *and* grow) pool.

    Args:
        pool: The full task pool at daemon startup; its rows are packed and
            indexed here, ``O(|T| R)`` work.
    """

    #: Side of a resident pairwise matrix, which this index does not keep.
    allocated_rows = 0

    def __init__(self, pool: TaskPool):
        self._n_keywords = len(pool.vocabulary)
        self._n_words = (self._n_keywords + 63) // 64
        self._rows: dict[str, bytes] = {}
        self._index([task.task_id for task in pool], pool.matrix)
        self.carves = 0
        self.appends = 0

    def __len__(self) -> int:
        """Number of live tasks."""
        return len(self._rows)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._rows

    def _index(self, task_ids: Sequence[str], vectors: np.ndarray) -> None:
        words = pack_rows(np.asarray(vectors, dtype=bool))
        self._rows.update(zip(task_ids, (row.tobytes() for row in words)))

    def on_removed(self, task_ids: Sequence[str]) -> None:
        """Pool-removal listener: forget the ids.

        Unknown ids are ignored, so the cache can be attached to a pool
        state that already dropped some tasks.
        """
        for task_id in task_ids:
            self._rows.pop(task_id, None)

    def on_added(self, tasks: Sequence[Task]) -> None:
        """Pool-arrival listener: index rows for newly admitted tasks.

        Raises ``ValueError`` on a duplicate id (within the batch or against
        a live row) or on a keyword-vector length mismatch, before indexing
        any row of the batch; an empty batch is a no-op.
        """
        if not tasks:
            return
        seen: set[str] = set()
        for task in tasks:
            if task.task_id in self._rows or task.task_id in seen:
                raise ValueError(
                    f"cannot append task {task.task_id!r}: id already cached"
                )
            seen.add(task.task_id)
            if task.vector.shape[0] != self._n_keywords:
                raise ValueError(
                    f"task {task.task_id!r} has a {task.vector.shape[0]}-keyword "
                    f"vector; this cache indexes {self._n_keywords} keywords"
                )
        self._index([task.task_id for task in tasks], [t.vector for t in tasks])
        self.appends += 1

    def submatrix(self, task_ids: Sequence[str]) -> np.ndarray | None:
        """Pairwise-diversity block for ``task_ids``, in the given order.

        Returns ``None`` when any id is unknown (the solve then falls back
        to recomputing from keyword vectors) — this keeps the cache safe to
        use as a :data:`repro.crowd.service.DiversityProvider` even if it
        drifts from the pool it mirrors.
        """
        try:
            packed = b"".join([self._rows[task_id] for task_id in task_ids])
        except KeyError:
            return None
        self.carves += 1
        words = np.frombuffer(packed, dtype=np.uint64)
        return packed_jaccard(words.reshape(len(task_ids), self._n_words))

    def attach(self, service) -> "IncrementalDiversityCache":
        """Wire this cache into an :class:`AssignmentService` (all hooks)."""
        service.pool_state.add_removal_listener(self.on_removed)
        service.pool_state.add_arrival_listener(self.on_added)
        service.set_diversity_provider(self.submatrix)
        return self
