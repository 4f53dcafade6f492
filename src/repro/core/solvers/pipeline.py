"""The shared HTA-APP / HTA-GRE pipeline (Algorithms 1 and 2).

Both algorithms run the same five phases and differ only in how the
auxiliary LSAP (line 11) is solved:

1. *encode* — build the MAXQAP matrices (Eqs. 4-6);
2. *matching* — a (greedy) maximum-weight matching ``M_B`` on the diversity
   graph ``B``;
3. *profits* — the auxiliary LSAP profit matrix
   ``f[k, l] = bM(t_k) * degA_l + c[k, l]`` (line 10), kept as one column
   per worker clique plus one for the padding vertices: the columns of a
   class are identical;
4. *lsap* — solve the LSAP: Hungarian for HTA-APP, on the full matrix;
   greedy for HTA-GRE, directly on the column classes, with the full
   matrix's result;
5. *swap + decode* — per matched edge, swap the two tasks' vertices with
   probability 1/2 (lines 12-16), then read off ``T_wq`` via Eq. 7.

Phase timings are recorded so the Fig. 2a bench can report the
Matching/Lsap split exactly as the paper does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ...matching.exact import MAX_EXACT_VERTICES, exact_max_weight_matching
from ...matching.greedy import greedy_matching_dense
from ...matching.lsap import solve_lsap
from ...rng import ensure_rng
from ..qap import QAPEncoding, build_encoding
from ..instance import HTAInstance


@dataclass(frozen=True)
class PipelineOutput:
    """Raw pipeline result before wrapping into an Assignment."""

    groups: list[list[int]]
    permutation: np.ndarray
    qap_objective: float
    timings: dict[str, float]
    info: dict[str, object]


def run_qap_pipeline(
    instance: HTAInstance,
    lsap_method: str,
    rng: "int | np.random.Generator | None" = None,
    matching_method: str = "greedy",
    n_swap_samples: int = 1,
) -> PipelineOutput:
    """Run Algorithm 1/2 and return per-worker task indices.

    Args:
        instance: The HTA instance.
        lsap_method: ``"hungarian"`` (HTA-APP), ``"greedy"`` (HTA-GRE), or
            ``"auction"`` (ablation).
        rng: Randomness source for the swap step.
        matching_method: ``"greedy"`` (default; preserves the bounds per
            Arkin et al.) or ``"exact"`` (bitmask DP; tiny instances only).
        n_swap_samples: Number of independent swap draws to evaluate; the
            best by QAP objective is kept.  ``1`` reproduces the paper's
            algorithm exactly; larger values are a practical derandomization
            knob (the 1/4 and 1/8 factors hold *in expectation* over swaps).
    """
    if n_swap_samples < 1:
        raise ValueError(f"n_swap_samples must be >= 1, got {n_swap_samples}")
    generator = ensure_rng(rng)
    timings: dict[str, float] = {}

    start = time.perf_counter()
    encoding = build_encoding(instance)
    timings["encode"] = time.perf_counter() - start

    start = time.perf_counter()
    matching = _diversity_matching(encoding, matching_method)
    matched_weight = _matched_edge_weights(encoding, matching)
    timings["matching"] = time.perf_counter() - start

    start = time.perf_counter()
    profits = encoding.profit_matrix(matched_weight, by_class=True)
    timings["profits"] = time.perf_counter() - start

    start = time.perf_counter()
    # Randomize the LSAP's tie-breaking by relabeling the rows.  Clustered
    # pools (AMT task groups) make the profits massively tied: when the
    # diversity matching saturates, f[k, l] barely depends on k, and a
    # deterministic tie-break packs consecutive same-group (near-identical)
    # tasks into one worker's clique, collapsing intra-set diversity below
    # even a random deal.  The guarantee holds for every fixed labeling, so
    # it also holds in expectation over a uniform one.
    row_order = generator.permutation(encoding.n_vertices)
    shuffled = solve_lsap(
        profits[row_order], lsap_method, class_sizes=encoding.class_sizes
    ).row_to_col
    base_permutation = np.empty(encoding.n_vertices, dtype=np.intp)
    base_permutation[row_order] = shuffled
    timings["lsap"] = time.perf_counter() - start

    start = time.perf_counter()
    permutation, qap_value = _best_swap(
        encoding, base_permutation, matching, generator, n_swap_samples
    )
    groups = encoding.tasks_by_worker(permutation)
    timings["decode"] = time.perf_counter() - start
    timings["total"] = sum(timings.values())

    info: dict[str, object] = {
        "lsap_method": lsap_method,
        "matching_method": matching_method,
        "matching_size": len(matching),
        "n_swap_samples": n_swap_samples,
    }
    return PipelineOutput(
        groups=groups,
        permutation=permutation,
        qap_objective=qap_value,
        timings=timings,
        info=info,
    )


def _diversity_matching(
    encoding: QAPEncoding, method: str
) -> list[tuple[int, int]]:
    """The matching ``M_B`` on the (padded) diversity graph (line 2)."""
    if method == "greedy":
        return greedy_matching_dense(encoding.diversity)
    if method == "exact":
        if encoding.n_vertices > MAX_EXACT_VERTICES:
            raise ValueError(
                f"exact matching supports at most {MAX_EXACT_VERTICES} "
                f"vertices, instance has {encoding.n_vertices}"
            )
        return exact_max_weight_matching(encoding.diversity)
    raise ValueError(f"unknown matching method {method!r}; use 'greedy' or 'exact'")


def _matched_edge_weights(
    encoding: QAPEncoding, matching: list[tuple[int, int]]
) -> np.ndarray:
    """``bM(t_k)``: the weight of the matched edge covering ``t_k``, else 0
    (Algorithm 1 lines 5-8)."""
    weights = np.zeros(encoding.n_vertices)
    for i, j in matching:
        w = encoding.diversity[i, j]
        weights[i] = w
        weights[j] = w
    return weights


def _best_swap(
    encoding: QAPEncoding,
    base_permutation: np.ndarray,
    matching: list[tuple[int, int]],
    rng: np.random.Generator,
    n_samples: int,
) -> tuple[np.ndarray, float]:
    """Randomized per-edge swap (lines 12-16), best of ``n_samples`` draws.

    The unswapped LSAP permutation is always evaluated as a candidate too:
    the approximation analysis credits the swap with only half of the
    relevance term in expectation (Eq. 21), so for relevance-heavy instances
    the raw LSAP solution is often strictly better.  Taking the max over
    candidates can only raise the expected objective, so Theorem 3/4's
    bounds are preserved.
    """
    best_perm = base_permutation.copy()
    best_value = encoding.objective(best_perm)
    for _ in range(n_samples):
        permutation = base_permutation.copy()
        if matching:
            flips = rng.random(len(matching)) < 0.5
            for flip, (k, l) in zip(flips, matching):
                if flip:
                    permutation[k], permutation[l] = permutation[l], permutation[k]
        value = encoding.objective(permutation)
        if value > best_value:
            best_value = value
            best_perm = permutation
    assert best_perm is not None
    return best_perm, float(best_value)
