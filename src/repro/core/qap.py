"""The HTA -> MAXQAP encoding (Section IV-A, Eqs. 4-8).

HTA is rewritten as a Maximum Quadratic Assignment Problem over three
``n x n`` matrices (``n`` = number of QAP vertices):

* ``A`` (Eq. 4): adjacency matrix of ``|W|`` disjoint cliques of ``x_max``
  vertices — one clique per worker, edges weighted by that worker's alpha —
  plus isolated vertices for the unassigned slots;
* ``B`` (Eq. 5): the complete task graph weighted by pairwise diversity;
* ``C`` (Eq. 6): the linear relevance part, ``c[k, l] = beta_q *
  rel(w_q, t_k) * (x_max - 1)`` when column ``l`` belongs to worker ``q``'s
  clique.

A permutation ``pi`` maps task ``k`` to vertex ``pi(k)``; tasks landing in
worker ``q``'s clique form ``T_wq`` (Eq. 7), and the QAP objective equals the
HTA objective exactly (Eq. 8) — verified by ``tests/test_qap.py``.

Note on Eq. 6: the paper's guard ``l <= |T| - |W| * x_max`` contradicts its
own Fig. 1 (where columns 1..6 are non-zero for ``|T|=8, |W|=2, x_max=3``);
the consistent guard is ``l <= |W| * x_max``, which we use.

Rather than materializing ``A`` and ``C`` densely (the algorithms never need
them), the encoding stores the clique structure: ``worker_of_vertex`` and the
column degree ``deg_a``.  Dense matrices are available from
:meth:`QAPEncoding.dense_a` / :meth:`QAPEncoding.dense_c` for tests and for
reproducing the paper's Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import InvalidInstanceError
from .instance import HTAInstance


@dataclass(frozen=True)
class QAPEncoding:
    """A MAXQAP instance equivalent to an HTA instance.

    Attributes:
        n_vertices: Number of QAP vertices, ``max(|T|, |W| * x_max)``.
        n_real_tasks: Number of genuine tasks (rows beyond this index are
            zero-padding dummies standing in for empty slots).
        n_workers: Number of workers.
        x_max: Per-worker capacity.
        diversity: Padded ``(n, n)`` matrix ``B`` (Eq. 5); dummy rows/columns
            are all zero, which makes a dummy equivalent to an empty slot.
        relevance_by_worker: Padded ``(n, n_workers)`` matrix of raw
            ``rel(w_q, t_k)`` values (dummy rows zero).
        alphas: Per-worker alpha weights.
        betas: Per-worker beta weights.
    """

    n_vertices: int
    n_real_tasks: int
    n_workers: int
    x_max: int
    diversity: np.ndarray
    relevance_by_worker: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray

    @cached_property
    def worker_of_vertex(self) -> np.ndarray:
        """Worker owning each vertex's clique, or ``-1`` for isolated ones."""
        owners = np.full(self.n_vertices, -1, dtype=np.intp)
        clique_span = self.n_workers * self.x_max
        owners[:clique_span] = np.arange(clique_span) // self.x_max
        return owners

    @cached_property
    def deg_a(self) -> np.ndarray:
        """Column sums of ``A``: ``alpha_q * (x_max - 1)`` on clique columns.

        This is the ``degA_l`` quantity of Algorithm 1 line 4; with the
        clique structure it collapses to a closed form.
        """
        degrees = np.zeros(self.n_vertices)
        owners = self.worker_of_vertex
        clique = owners >= 0
        degrees[clique] = self.alphas[owners[clique]] * (self.x_max - 1)
        return degrees

    @cached_property
    def c_matrix_compact(self) -> np.ndarray:
        """``(n, n_workers)`` compact form of ``C``: column ``q`` holds
        ``beta_q * rel(w_q, t_k) * (x_max - 1)``."""
        scale = self.betas * (self.x_max - 1)
        return self.relevance_by_worker * scale[None, :]

    def dense_a(self) -> np.ndarray:
        """Materialize ``A`` (Eq. 4) — for tests and worked examples only."""
        a = np.zeros((self.n_vertices, self.n_vertices))
        for q in range(self.n_workers):
            start = q * self.x_max
            stop = start + self.x_max
            block = np.full((self.x_max, self.x_max), self.alphas[q])
            np.fill_diagonal(block, 0.0)
            a[start:stop, start:stop] = block
        return a

    def dense_c(self) -> np.ndarray:
        """Materialize ``C`` (Eq. 6, corrected guard) — for tests/examples."""
        c = np.zeros((self.n_vertices, self.n_vertices))
        owners = self.worker_of_vertex
        compact = self.c_matrix_compact
        for l in range(self.n_vertices):
            if owners[l] >= 0:
                c[:, l] = compact[:, owners[l]]
        return c

    def dense_b(self) -> np.ndarray:
        """The padded diversity matrix ``B`` (Eq. 5)."""
        return self.diversity

    @cached_property
    def class_sizes(self) -> np.ndarray:
        """Columns per column class of the LSAP profits: ``x_max`` for each
        worker's clique, then the isolated padding vertices, if any.

        Columns of one class are identical in :meth:`profit_matrix`, since
        ``degA_l`` and ``c[k, l]`` depend on ``l`` only through its clique.
        """
        padding = self.n_vertices - self.n_workers * self.x_max
        sizes = [self.x_max] * self.n_workers + ([padding] if padding else [])
        return np.array(sizes, dtype=np.intp)

    def profit_matrix(
        self, matched_weight: np.ndarray, by_class: bool = False
    ) -> np.ndarray:
        """The auxiliary LSAP profits ``f[k, l] = bM(t_k) * degA_l + c[k, l]``
        (Algorithm 1 line 10), without materializing ``C``.

        ``by_class=True`` returns one column per entry of
        :attr:`class_sizes` instead of the full ``(n, n)`` matrix, which
        repeats each class column ``class_sizes`` times.
        """
        if matched_weight.shape != (self.n_vertices,):
            raise InvalidInstanceError(
                f"matched_weight must have shape ({self.n_vertices},), "
                f"got {matched_weight.shape}"
            )
        clique_degree = self.alphas * (self.x_max - 1)
        f = np.outer(matched_weight, clique_degree) + self.c_matrix_compact
        if len(self.class_sizes) > self.n_workers:
            f = np.hstack([f, np.zeros((self.n_vertices, 1))])
        return f if by_class else np.repeat(f, self.class_sizes, axis=1)

    def objective(self, permutation: np.ndarray) -> float:
        """Eq. 8's right-hand side for ``permutation`` (vertex of each task).

        Computed through the clique structure:
        ``sum_q [2 alpha_q TD(T_q) + beta_q (x_max-1) TR(T_q, w_q)]`` — which
        *is* the HTA objective, establishing the equivalence the tests check
        against a literal dense-matrix evaluation.
        """
        groups = self.tasks_by_worker(permutation)
        total = 0.0
        for q, tasks in enumerate(groups):
            if not tasks:
                continue
            idx = np.asarray(tasks, dtype=np.intp)
            sub = self.diversity[np.ix_(idx, idx)]
            diversity = float(np.triu(sub, k=1).sum())
            rel_total = float(self.relevance_by_worker[idx, q].sum())
            total += (
                2.0 * self.alphas[q] * diversity
                + self.betas[q] * (self.x_max - 1) * rel_total
            )
        return total

    def objective_dense(self, permutation: np.ndarray) -> float:
        """Literal Eq. 8 evaluation with dense ``A`` and ``C`` (test oracle).

        ``sum_{k != l} a[pi(k), pi(l)] * b[k, l] + sum_k c[k, pi(k)]``.
        Quadratic memory — only for small instances.
        """
        pi = np.asarray(permutation, dtype=np.intp)
        a = self.dense_a()
        c = self.dense_c()
        quadratic = float((a[np.ix_(pi, pi)] * self.diversity).sum())
        # a's diagonal is zero, so the k == l terms vanish automatically.
        linear = float(c[np.arange(self.n_vertices), pi].sum())
        return quadratic + linear

    def tasks_by_worker(self, permutation: np.ndarray) -> list[list[int]]:
        """Decode a permutation into per-worker real-task indices (Eq. 7)."""
        pi = np.asarray(permutation, dtype=np.intp)
        if pi.shape != (self.n_vertices,):
            raise InvalidInstanceError(
                f"permutation must have length {self.n_vertices}, got {pi.shape}"
            )
        if len(np.unique(pi)) != self.n_vertices:
            raise InvalidInstanceError("permutation has repeated vertices")
        owners = self.worker_of_vertex
        groups: list[list[int]] = [[] for _ in range(self.n_workers)]
        for task, vertex in enumerate(pi[: self.n_real_tasks]):
            owner = owners[vertex]
            if owner >= 0:
                groups[owner].append(task)
        return groups


def build_encoding(instance: HTAInstance) -> QAPEncoding:
    """Encode ``instance`` as MAXQAP matrices (Eqs. 4-6).

    When ``|T| < |W| * x_max`` the task side is padded with zero-profit dummy
    vertices; a dummy occupying a clique slot contributes nothing, exactly
    like the empty slot it represents, so objectives are unchanged.
    """
    n_tasks = instance.n_tasks
    n_vertices = max(n_tasks, instance.capacity)
    diversity = instance.diversity
    relevance = instance.relevance.T  # (n_tasks, n_workers)
    if n_vertices > n_tasks:
        pad = n_vertices - n_tasks
        diversity = np.pad(diversity, ((0, pad), (0, pad)))
        relevance = np.pad(relevance, ((0, pad), (0, 0)))
    return QAPEncoding(
        n_vertices=n_vertices,
        n_real_tasks=n_tasks,
        n_workers=instance.n_workers,
        x_max=instance.x_max,
        diversity=diversity,
        relevance_by_worker=relevance,
        alphas=instance.alphas(),
        betas=instance.betas(),
    )
