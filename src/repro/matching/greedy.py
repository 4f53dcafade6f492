"""Greedy maximum-weight matching (the paper's GreedyMatching subroutine).

Sorts edges by decreasing weight and repeatedly takes the heaviest edge whose
endpoints are both free.  This is the classic 1/2-approximation for maximum
weight matching [Drake & Hougardy 2003; Duan & Pettie 2014] that both
HTA-APP (matching step on ``B``) and HTA-GRE (matching step *and* LSAP step)
rely on.

Two entry points:

* :func:`greedy_matching_dense` — on a symmetric weight matrix (complete
  graph), the shape used throughout HTA;
* :func:`greedy_matching_edges` — on an explicit edge list, for sparse
  graphs and for tests.

Both greedy passes of HTA-GRE, this matching and the greedy LSAP of
:mod:`repro.matching.lsap`, walk their sorted edges with
:func:`greedy_select`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

Edge = tuple[int, int, float]


def greedy_select(
    heads: np.ndarray, tails: np.ndarray, capacity: np.ndarray, limit: int
) -> list[int]:
    """Positions of the edges a greedy pass over an ordered edge list takes.

    Edge ``e`` joins vertices ``heads[e]`` and ``tails[e]``; the pass takes
    it when both still have capacity left, then spends one unit of each.
    It stops after ``limit`` edges, the most that can ever be taken.

    The per-edge loop is Python, so the walk goes in blocks that double in
    size: numpy first drops every edge of a block with an endpoint already
    spent, and the loop visits only the survivors.  An edge dropped that way
    would have been refused anyway, since capacity only shrinks, so the
    result is the plain one-edge-at-a-time greedy's.
    """
    capacity = np.array(capacity, dtype=np.intp)
    left = capacity.tolist()
    taken: list[int] = []
    start, block = 0, max(limit, 64)
    while start < len(heads) and len(taken) < limit:
        stop = start + block
        u, v = heads[start:stop], tails[start:stop]
        live = np.flatnonzero((capacity[u] > 0) & (capacity[v] > 0))
        for e, a, b in zip(live.tolist(), u[live].tolist(), v[live].tolist()):
            if left[a] and left[b]:
                left[a] -= 1
                left[b] -= 1
                taken.append(start + e)
                if len(taken) == limit:
                    break
        capacity = np.array(left, dtype=np.intp)
        start, block = stop, 2 * block
    return taken


def greedy_matching_dense(weights: np.ndarray) -> list[tuple[int, int]]:
    """Greedy matching on the complete graph given by a symmetric matrix.

    Edges with non-positive weight are skipped: leaving two vertices
    unmatched is never worse than matching them at weight <= 0, and skipping
    keeps the 1/2 bound while avoiding useless pairs.  Ties go to the edge
    that comes first in row-major upper-triangle order.

    Returns a list of ``(i, j)`` with ``i < j``, vertex-disjoint, ordered by
    decreasing weight.

    >>> w = np.array([[0., 3., 1.], [3., 0., 2.], [1., 2., 0.]])
    >>> greedy_matching_dense(w)
    [(0, 1)]
    """
    matrix = np.asarray(weights, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if n < 2:
        return []
    rows, cols = np.triu_indices(n, k=1)
    edge_weights = matrix[rows, cols]
    positive = np.flatnonzero(edge_weights > 0.0)
    order = positive[np.argsort(-edge_weights[positive], kind="stable")]
    rows, cols = rows[order], cols[order]
    taken = greedy_select(rows, cols, np.ones(n, dtype=np.intp), n // 2)
    return [(int(rows[e]), int(cols[e])) for e in taken]


def greedy_matching_edges(edges: Iterable[Edge]) -> list[tuple[int, int]]:
    """Greedy matching over an explicit ``(u, v, weight)`` edge list."""
    cleaned: list[Edge] = []
    for u, v, w in edges:
        if u == v:
            raise ValueError(f"self-loop on vertex {u} is not allowed")
        cleaned.append((min(u, v), max(u, v), float(w)))
    cleaned.sort(key=lambda e: -e[2])
    matched: set[int] = set()
    matching: list[tuple[int, int]] = []
    for u, v, w in cleaned:
        if w <= 0.0:
            break
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
            matching.append((u, v))
    return matching


def matching_weight(weights: np.ndarray, matching: Iterable[tuple[int, int]]) -> float:
    """Total weight of ``matching`` under the dense weight matrix."""
    matrix = np.asarray(weights, dtype=float)
    return float(sum(matrix[i, j] for i, j in matching))


def is_matching(matching: Iterable[tuple[int, int]]) -> bool:
    """True if no vertex appears in more than one edge."""
    seen: set[int] = set()
    for i, j in matching:
        if i in seen or j in seen or i == j:
            return False
        seen.add(i)
        seen.add(j)
    return True


def cover_map(matching: Iterable[tuple[int, int]], n: int) -> np.ndarray:
    """Partner array: ``partner[v]`` is v's match, or ``-1`` if unmatched."""
    partner = np.full(n, -1, dtype=np.intp)
    for i, j in matching:
        partner[i] = j
        partner[j] = i
    return partner
