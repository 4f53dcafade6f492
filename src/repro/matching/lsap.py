"""Linear Sum Assignment Problem (LSAP) solvers.

HTA-APP's auxiliary step (Algorithm 1, line 11) is a *maximization* LSAP:
find a permutation ``sigma`` maximizing ``sum_k f[k, sigma(k)]``.  The paper
solves it with the Hungarian algorithm (Carpaneto et al. code, ``O(n^3)``);
HTA-GRE replaces it with a greedy bipartite matching (1/2-approximation,
``O(n^2 log n)``).  The paper also discusses auction/cost-scaling solvers as
pseudo-polynomial alternatives; we include an auction solver for the
ablation benchmark.

All solvers share the same interface: they take a dense profit matrix with
``n_rows <= n_cols`` and return an :class:`LSAPSolution` mapping every row to
a distinct column.

Implementations are from scratch (no scipy):

* :func:`hungarian` — shortest-augmenting-path Hungarian with potentials
  (the classic ``O(n^3)`` formulation), numpy-vectorized inner loop;
* :func:`greedy_lsap` — sort all entries, take greedily (1/2-approx),
  optionally over classes of identical columns;
* :func:`auction_lsap` — Bertsekas forward auction with epsilon scaling;
* :func:`brute_force_lsap` — exhaustive oracle for tiny instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInstanceError
from ..perf.config import resolve_kernel
from ..perf.lsap_kernels import hungarian_min_rect, hungarian_min_rect_warm
from .greedy import greedy_select

#: Brute force explores n! permutations; 9! = 362,880 keeps tests fast.
MAX_BRUTE_FORCE_ROWS = 9


@dataclass(frozen=True)
class LSAPSolution:
    """An assignment of rows to columns.

    Attributes:
        row_to_col: ``row_to_col[k]`` is the column assigned to row ``k``.
        value: Total profit of the assignment.
    """

    row_to_col: np.ndarray
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "row_to_col", np.asarray(self.row_to_col, dtype=np.intp)
        )

    def is_valid(self, n_cols: int) -> bool:
        """True if every row has a distinct, in-range column."""
        cols = self.row_to_col
        return (
            cols.min(initial=0) >= 0
            and (cols < n_cols).all()
            and len(np.unique(cols)) == len(cols)
        )


def _check_profit(
    profit: np.ndarray, class_sizes: np.ndarray | None = None
) -> np.ndarray:
    matrix = np.asarray(profit, dtype=float)
    if matrix.ndim != 2:
        raise InvalidInstanceError(f"profit matrix must be 2-D, got {matrix.ndim}-D")
    n_cols = matrix.shape[1]
    if class_sizes is not None:
        sizes = np.asarray(class_sizes)
        if sizes.shape != (n_cols,) or (sizes < 1).any():
            raise InvalidInstanceError(
                f"need one positive class size per column, got {sizes!r} "
                f"for {n_cols} columns"
            )
        n_cols = int(sizes.sum())
    if matrix.shape[0] > n_cols:
        raise InvalidInstanceError(
            f"need n_rows <= n_cols, got {matrix.shape[0]} rows and {n_cols} "
            "columns; transpose the input"
        )
    if not np.isfinite(matrix).all():
        raise InvalidInstanceError("profit matrix contains non-finite values")
    return matrix


def _value(profit: np.ndarray, row_to_col: np.ndarray) -> float:
    return float(profit[np.arange(len(row_to_col)), row_to_col].sum())


def hungarian(profit: np.ndarray, kernel: str | None = None) -> LSAPSolution:
    """Optimal maximization LSAP via shortest augmenting paths.

    Runs the textbook Hungarian algorithm with row/column potentials on the
    negated matrix (max-profit == min-cost).  The default ``"vectorized"``
    kernel (:mod:`repro.perf.lsap_kernels`) solves rectangular inputs
    directly — one augmentation per real row, ``O(n_rows^2 n_cols)``; the
    ``"warm"`` kernel adds certified dual reuse across consecutive solves
    of the same :func:`repro.perf.lsap_kernels.warm_context`; the
    ``"reference"`` kernel pads with zero-profit rows and solves the square
    problem in ``O(n_cols^3)``, serving as the differential oracle.

    >>> hungarian(np.array([[4., 1.], [2., 3.]])).value
    7.0
    """
    matrix = _check_profit(profit)
    n_rows, n_cols = matrix.shape
    cost = -matrix
    resolved = resolve_kernel("lsap", kernel)
    if resolved == "vectorized":
        row_to_col = hungarian_min_rect(cost)
    elif resolved == "warm":
        row_to_col = hungarian_min_rect_warm(cost)
    else:
        if n_rows < n_cols:
            cost = np.vstack([cost, np.zeros((n_cols - n_rows, n_cols))])
        row_to_col = _hungarian_min_square(np.ascontiguousarray(cost))[:n_rows]
    return LSAPSolution(row_to_col, _value(matrix, row_to_col))


def _hungarian_min_square(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost perfect assignment of a square matrix.

    Classic potentials formulation (e.g. Burkard et al., "Assignment
    Problems"): rows are inserted one at a time and an augmenting path of
    minimum reduced cost is grown column by column.  ``u``/``v`` are the dual
    potentials; ``p[j]`` is the row currently matched to column ``j``
    (1-based, 0 = virtual column).
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.intp)
    way = np.zeros(n + 1, dtype=np.intp)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            # Reduced cost of extending the path through column j0's row.
            cur = cost[i0 - 1] - u[i0] - v[1:]
            free = ~used[1:]
            inner_minv = minv[1:]
            better = free & (cur < inner_minv)
            inner_minv[better] = cur[better]
            way[1:][better] = j0
            free_cols = np.flatnonzero(free)
            j1_offset = free_cols[np.argmin(inner_minv[free_cols])]
            delta = inner_minv[j1_offset]
            # Update potentials: matched part shifts by delta, frontier shrinks.
            used_cols = np.flatnonzero(used)
            u[p[used_cols]] += delta
            v[used_cols] -= delta
            inner_minv[free] -= delta
            j0 = int(j1_offset) + 1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = np.empty(n, dtype=np.intp)
    for j in range(1, n + 1):
        row_to_col[p[j] - 1] = j - 1
    return row_to_col


def greedy_lsap(
    profit: np.ndarray, class_sizes: np.ndarray | None = None
) -> LSAPSolution:
    """Greedy bipartite matching on the profit matrix (HTA-GRE's LSAP step).

    Sorts all ``n_rows * n_cols`` entries by decreasing profit (ties in
    row-major order) and assigns each (row, column) pair whose row and
    column are both free.  Because the bipartite graph is complete, the
    result is always a perfect matching on the rows, and GreedyMatching's
    1/2 bound applies (Lemma 4).  Complexity ``O(n^2 log n)``.

    With ``class_sizes``, column ``j`` of ``profit`` stands for
    ``class_sizes[j]`` identical, consecutive columns of the full matrix,
    and the result is the full matrix's greedy, in full column indices.
    The full greedy visits a row's equal entries of one class one after
    another, and earlier classes first, so a row lands in a class exactly
    when the class still has a free column, and each class hands out its
    columns in order.  Only ``n_rows * len(class_sizes)`` entries are
    sorted.
    """
    matrix = _check_profit(profit, class_sizes)
    n_rows, n_classes = matrix.shape
    sizes = (
        np.ones(n_classes, dtype=np.intp)
        if class_sizes is None
        else np.asarray(class_sizes, dtype=np.intp)
    )
    order = np.argsort(-matrix, axis=None, kind="stable")
    rows, classes = np.divmod(order, n_classes)
    capacity = np.concatenate([np.ones(n_rows, dtype=np.intp), sizes])
    taken = greedy_select(rows, n_rows + classes, capacity, n_rows)
    next_col = (np.cumsum(sizes) - sizes).tolist()
    row_class = np.empty(n_rows, dtype=np.intp)
    row_to_col = np.empty(n_rows, dtype=np.intp)
    for r, q in zip(rows[taken].tolist(), classes[taken].tolist()):
        row_class[r] = q
        row_to_col[r] = next_col[q]
        next_col[q] += 1
    return LSAPSolution(row_to_col, _value(matrix, row_class))


def auction_lsap(profit: np.ndarray, precision: float = 1e-6) -> LSAPSolution:
    """Bertsekas forward auction with epsilon scaling.

    Profits are rounded onto an integer grid of step ``precision`` and scaled
    by ``n + 1`` so that the final epsilon of 1 guarantees an assignment
    optimal on the grid (within ``n * precision`` of the true optimum).
    Pseudo-polynomial — included for the LSAP-ablation benchmark, mirroring
    the paper's discussion of cost-scaling alternatives (Section IV-C).
    """
    matrix = _check_profit(profit)
    n_real_rows, n_cols = matrix.shape
    if precision <= 0:
        raise InvalidInstanceError(f"precision must be positive, got {precision}")
    # The asymmetric (rectangular) auction needs a reverse phase to settle
    # the prices of unassigned columns; padding to square with zero-profit
    # rows sidesteps that while preserving the optimum.
    square = matrix
    if n_real_rows < n_cols:
        square = np.vstack([matrix, np.zeros((n_cols - n_real_rows, n_cols))])
    n_rows = n_cols
    scaled = np.rint(square / precision).astype(np.int64) * (n_cols + 1)
    max_abs = int(np.abs(scaled).max(initial=1))
    epsilon = max(max_abs // 2, 1)
    prices = np.zeros(n_cols, dtype=np.int64)
    row_to_col = np.full(n_rows, -1, dtype=np.intp)
    col_to_row = np.full(n_cols, -1, dtype=np.intp)
    while True:
        row_to_col.fill(-1)
        col_to_row.fill(-1)
        unassigned = list(range(n_rows))
        while unassigned:
            row = unassigned.pop()
            margins = scaled[row] - prices
            best_col = int(np.argmax(margins))
            best = margins[best_col]
            margins[best_col] = np.iinfo(np.int64).min
            second = margins.max() if n_cols > 1 else best - epsilon
            bid = best - second + epsilon
            prices[best_col] += bid
            previous = col_to_row[best_col]
            if previous >= 0:
                row_to_col[previous] = -1
                unassigned.append(int(previous))
            col_to_row[best_col] = row
            row_to_col[row] = best_col
        if epsilon == 1:
            break
        epsilon = max(epsilon // 7, 1)
    row_to_col = row_to_col[:n_real_rows]
    return LSAPSolution(row_to_col, _value(matrix, row_to_col))


def brute_force_lsap(profit: np.ndarray) -> LSAPSolution:
    """Exhaustive LSAP oracle for tests (``n_rows <= 9``)."""
    matrix = _check_profit(profit)
    n_rows, n_cols = matrix.shape
    if n_rows > MAX_BRUTE_FORCE_ROWS:
        raise InvalidInstanceError(
            f"brute force is limited to {MAX_BRUTE_FORCE_ROWS} rows, got {n_rows}"
        )
    best_value = -math.inf
    best_cols: tuple[int, ...] | None = None
    row_index = np.arange(n_rows)
    for cols in itertools.permutations(range(n_cols), n_rows):
        value = float(matrix[row_index, list(cols)].sum())
        if value > best_value:
            best_value = value
            best_cols = cols
    assert best_cols is not None
    return LSAPSolution(np.array(best_cols, dtype=np.intp), best_value)


_SOLVERS = {
    "hungarian": hungarian,
    "greedy": greedy_lsap,
    "auction": auction_lsap,
    "brute_force": brute_force_lsap,
}


def solve_lsap(
    profit: np.ndarray,
    method: str = "hungarian",
    class_sizes: np.ndarray | None = None,
) -> LSAPSolution:
    """Dispatch to a named LSAP solver.

    ``class_sizes`` marks ``profit`` as a matrix of column classes (see
    :func:`greedy_lsap`).  The greedy works on the classes directly; the
    other solvers get the full matrix back, one column per class member.

    >>> solve_lsap(np.array([[4., 1.], [2., 3.]]), "greedy").value
    7.0
    """
    try:
        solver = _SOLVERS[method]
    except KeyError:
        known = ", ".join(sorted(_SOLVERS))
        raise InvalidInstanceError(
            f"unknown LSAP method {method!r}; known methods: {known}"
        ) from None
    if class_sizes is None:
        return solver(profit)
    if solver is greedy_lsap:
        return greedy_lsap(profit, class_sizes)
    _check_profit(profit, class_sizes)
    return solver(np.repeat(np.asarray(profit, dtype=float), class_sizes, axis=1))


def lsap_methods() -> tuple[str, ...]:
    """Names of the available LSAP solvers."""
    return tuple(sorted(_SOLVERS))
