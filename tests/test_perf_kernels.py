"""Differential suite for the repro.perf kernels.

The packed Jaccard kernel and the vectorized Hungarian kernel are only
allowed to exist because they are indistinguishable from the originals:
packed-vs-dense distances must be *bit-identical* (``==``, not allclose),
and the vectorized LSAP must reproduce the reference assignment on square
inputs and the optimal value everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distance import pairwise_jaccard
from repro.perf import bitpack
from repro.matching.lsap import brute_force_lsap, hungarian
from repro.perf import config as perf_config
from repro.perf.bitpack import PackedMatrix, pack_rows, packed_intersections, popcount
from repro.perf.lsap_kernels import (
    _MAX_CONSECUTIVE_FAILURES,
    _RETRY_PERIOD,
    dual_cache_stats,
    hungarian_min_rect,
    hungarian_min_rect_warm,
    reset_dual_cache,
    warm_context,
)

#: Keyword-space widths straddling the uint64 word boundaries.
WIDTHS = (1, 7, 63, 64, 65, 130)


@pytest.fixture(autouse=True)
def _clean_kernel_selection():
    perf_config.reset_kernels()
    yield
    perf_config.reset_kernels()


class TestBitpack:
    def test_popcount_matches_python(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, size=50, dtype=np.uint64)
        expected = np.array([bin(int(w)).count("1") for w in words])
        np.testing.assert_array_equal(popcount(words), expected)

    def test_pack_rows_little_endian_words(self):
        np.testing.assert_array_equal(
            pack_rows(np.array([[1, 0, 1]], dtype=bool)),
            np.array([[5]], dtype=np.uint64),
        )
        # Bit 64 lands in the second word.
        wide = np.zeros((1, 65), dtype=bool)
        wide[0, 64] = True
        np.testing.assert_array_equal(
            pack_rows(wide), np.array([[0, 1]], dtype=np.uint64)
        )

    def test_pack_rows_zero_width(self):
        assert pack_rows(np.zeros((4, 0), dtype=bool)).shape == (4, 0)

    def test_pack_rows_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            pack_rows(np.zeros(8, dtype=bool))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_intersections_match_dense_dot(self, width):
        rng = np.random.default_rng(width)
        left = rng.random((23, width)) < 0.4
        right = rng.random((17, width)) < 0.4
        expected = left.astype(np.int64) @ right.astype(np.int64).T
        got = packed_intersections(pack_rows(left), pack_rows(right))
        np.testing.assert_array_equal(got, expected)

    def test_intersections_word_count_mismatch(self):
        with pytest.raises(ValueError, match="word-count mismatch"):
            packed_intersections(
                pack_rows(np.ones((2, 64), dtype=bool)),
                pack_rows(np.ones((2, 65), dtype=bool)),
            )

    def test_packed_matrix_counts(self):
        rng = np.random.default_rng(5)
        bits = rng.random((12, 70)) < 0.3
        packed = PackedMatrix(bits)
        np.testing.assert_array_equal(packed.counts, bits.sum(axis=1))
        np.testing.assert_array_equal(
            packed.intersections(packed),
            bits.astype(np.int64) @ bits.astype(np.int64).T,
        )


class TestJaccardDifferential:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    def test_square_bit_identical(self, width, density):
        rng = np.random.default_rng(width * 7 + int(density * 10))
        matrix = rng.random((37, width)) < density
        packed = pairwise_jaccard(matrix, kernel="packed")
        dense = pairwise_jaccard(matrix, kernel="dense")
        assert (packed == dense).all()

    @pytest.mark.parametrize("width", WIDTHS)
    def test_cross_bit_identical(self, width):
        rng = np.random.default_rng(width)
        left = rng.random((19, width)) < 0.3
        right = rng.random((11, width)) < 0.3
        packed = pairwise_jaccard(left, right, kernel="packed")
        dense = pairwise_jaccard(left, right, kernel="dense")
        assert packed.shape == (19, 11)
        assert (packed == dense).all()

    def test_all_zero_rows(self):
        """Empty vectors: union 0 pairs must come out 0.0 on both kernels."""
        rng = np.random.default_rng(2)
        matrix = np.zeros((6, 70), dtype=bool)
        matrix[2] = rng.random(70) < 0.5
        packed = pairwise_jaccard(matrix, kernel="packed")
        dense = pairwise_jaccard(matrix, kernel="dense")
        assert (packed == dense).all()
        assert packed[0, 1] == 0.0  # empty-vs-empty is identical
        assert packed[0, 2] == 1.0  # empty-vs-nonempty is maximally distant

    def test_spans_multiple_blocks(self):
        """Exercise the blockwise loop (> _BLOCK_ROWS rows) on both kernels."""
        rng = np.random.default_rng(3)
        matrix = rng.random((600, 40)) < 0.2
        packed = pairwise_jaccard(matrix, kernel="packed")
        dense = pairwise_jaccard(matrix, kernel="dense")
        assert (packed == dense).all()
        assert (np.diag(packed) == 0.0).all()


#: Row counts and keyword widths for the packed-vs-dense oracle: empty and
#: serving-sized blocks, widths across the uint64 word boundaries and the
#: uint8 accumulator's 255 limit.
ORACLE_ROWS = (0, 1, 2, 400)
ORACLE_WIDTHS = (0, 1, 63, 64, 65, 97, 255, 256, 300)


def _oracle_rows(rng, n, width, density, shape):
    rows = rng.random((n, width)) < density
    if shape == "identical" and n:
        rows[:] = rows[0]
    elif shape == "some-empty":
        rows[::3] = False
    return rows


class TestPackedOracle:
    """The packed kernel against the dense one: exact ``==`` on every shape."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.sampled_from(ORACLE_ROWS),
        m=st.sampled_from(ORACLE_ROWS),
        width=st.sampled_from(ORACLE_WIDTHS),
        density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        shape=st.sampled_from(["random", "identical", "some-empty"]),
        cross=st.booleans(),
    )
    def test_packed_equals_dense(self, seed, n, m, width, density, shape, cross):
        rng = np.random.default_rng(seed)
        left = _oracle_rows(rng, n, width, density, shape)
        right = _oracle_rows(rng, m, width, density, shape) if cross else None
        packed = pairwise_jaccard(left, right, kernel="packed")
        dense = pairwise_jaccard(left, right, kernel="dense")
        assert packed.shape == dense.shape == (n, m if cross else n)
        assert packed.dtype == dense.dtype == np.float64
        assert (packed == dense).all()

    @pytest.mark.parametrize("width", [255, 256, 300])
    def test_full_rows_cross_the_uint8_limit(self, width):
        """Rows with more than 255 keywords accumulate past uint8 and skip
        the distance table; both must still match the oracle."""
        rng = np.random.default_rng(width)
        matrix = np.ones((5, width), dtype=bool)
        matrix[1, : width // 2] = False
        matrix[2] = rng.random(width) < 0.5
        matrix[3] = False
        words = pack_rows(matrix)
        counts = matrix.astype(np.int64) @ matrix.astype(np.int64).T
        assert (packed_intersections(words, words) == counts).all()
        assert (
            pairwise_jaccard(matrix, kernel="packed")
            == pairwise_jaccard(matrix, kernel="dense")
        ).all()

    def test_popcount_fallback_without_bitwise_count(self, monkeypatch):
        monkeypatch.setattr(bitpack, "_HAS_BITWISE_COUNT", False)
        rng = np.random.default_rng(9)
        left = rng.random((30, 97)) < 0.3
        right = rng.random((20, 97)) < 0.3
        assert (
            packed_intersections(pack_rows(left), pack_rows(right))
            == left.astype(np.int64) @ right.astype(np.int64).T
        ).all()
        assert (
            pairwise_jaccard(left, right, kernel="packed")
            == pairwise_jaccard(left, right, kernel="dense")
        ).all()


class TestKernelConfig:
    def test_default_is_fastest(self):
        assert perf_config.get_kernel("jaccard") == "packed"
        assert perf_config.get_kernel("lsap") == "vectorized"

    def test_set_and_reset(self):
        perf_config.set_kernel("jaccard", "dense")
        assert perf_config.get_kernel("jaccard") == "dense"
        perf_config.reset_kernels()
        assert perf_config.get_kernel("jaccard") == "packed"

    def test_use_kernel_restores(self):
        with perf_config.use_kernel("lsap", "reference"):
            assert perf_config.get_kernel("lsap") == "reference"
        assert perf_config.get_kernel("lsap") == "vectorized"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JACCARD_KERNEL", "dense")
        assert perf_config.get_kernel("jaccard") == "dense"
        perf_config.set_kernel("jaccard", "packed")  # explicit beats env
        assert perf_config.get_kernel("jaccard") == "packed"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown jaccard kernel"):
            perf_config.set_kernel("jaccard", "blazing")
        with pytest.raises(KeyError, match="unknown kernel domain"):
            perf_config.get_kernel("sorting")

    def test_resolve_prefers_explicit(self):
        perf_config.set_kernel("jaccard", "dense")
        assert perf_config.resolve_kernel("jaccard", "packed") == "packed"
        assert perf_config.resolve_kernel("jaccard", None) == "dense"


class TestHungarianDifferential:
    def test_square_assignments_identical(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            profit = rng.random((n, n)) * 10
            fast = hungarian(profit, kernel="vectorized")
            slow = hungarian(profit, kernel="reference")
            np.testing.assert_array_equal(fast.row_to_col, slow.row_to_col)
            assert fast.value == slow.value

    def test_square_with_ties_identical(self):
        """Integer profits force ties; tie-breaking must match exactly."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            profit = rng.integers(0, 4, size=(n, n)).astype(float)
            fast = hungarian(profit, kernel="vectorized")
            slow = hungarian(profit, kernel="reference")
            np.testing.assert_array_equal(fast.row_to_col, slow.row_to_col)

    def test_rectangular_matches_brute_force(self):
        """Regression for the pad-to-square O(n_cols^3) path: the direct
        rectangular solve must stay optimal on wide matrices."""
        rng = np.random.default_rng(6)
        for _ in range(60):
            n_rows = int(rng.integers(1, 7))
            n_cols = int(rng.integers(n_rows, 10))
            profit = rng.integers(0, 6, size=(n_rows, n_cols)).astype(float)
            for kernel in ("vectorized", "reference"):
                solution = hungarian(profit, kernel=kernel)
                oracle = brute_force_lsap(profit)
                assert solution.value == pytest.approx(oracle.value)
                assert solution.is_valid(n_cols)

    def test_very_wide_rectangular(self):
        """n_rows << n_cols — the shape the padded-row short-circuit targets."""
        rng = np.random.default_rng(8)
        profit = rng.random((5, 300))
        fast = hungarian(profit, kernel="vectorized")
        slow = hungarian(profit, kernel="reference")
        assert fast.value == pytest.approx(slow.value)
        assert fast.is_valid(300)

    def test_kernel_selection_via_config(self):
        profit = np.array([[4.0, 1.0], [2.0, 3.0]])
        with perf_config.use_kernel("lsap", "reference"):
            assert hungarian(profit).value == 7.0
        assert hungarian(profit).value == 7.0

    def test_min_rect_rejects_tall(self):
        with pytest.raises(ValueError, match="n_rows <= n_cols"):
            hungarian_min_rect(np.zeros((3, 2)))

    def test_min_rect_empty(self):
        assert hungarian_min_rect(np.zeros((0, 4))).shape == (0,)


class TestWarmLsap:
    """The warm-started kernel must be bit-identical to the cold solver.

    Warm starts only survive a certificate proving the warm assignment is
    the *unique* optimum of the new cost matrix; every certificate failure
    falls back to the cold solve, so the assignment can never differ — the
    suite checks that invariant on exactly the streams the cache targets
    (repeated solves of one worker set over a shrinking pool) and on the
    degenerate tie-heavy costs most likely to break it.
    """

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        reset_dual_cache()
        yield
        reset_dual_cache()

    def test_repeat_solve_hits_and_stays_identical(self):
        rng = np.random.default_rng(0)
        cost = rng.random((8, 40))
        cold = hungarian_min_rect(cost)
        with warm_context(("w1", "w2")):
            for _ in range(5):
                np.testing.assert_array_equal(
                    hungarian_min_rect_warm(cost), cold
                )
        assert dual_cache_stats()["hits"] >= 1

    def test_shrinking_pool_stream_identical(self):
        """The serving shape: same workers, pool shrinking between ticks."""
        rng = np.random.default_rng(1)
        base = rng.random((6, 80)) + rng.random(80)[None, :]
        with warm_context(("batch",)):
            for n_cols in range(80, 20, -4):
                cost = base[:, :n_cols]
                warm = hungarian_min_rect_warm(cost)
                np.testing.assert_array_equal(warm, hungarian_min_rect(cost))
        stats = dual_cache_stats()
        assert stats["hits"] > 0, stats

    def test_degenerate_ties_stay_identical(self):
        """Integer costs with heavy ties: certificates mostly fail, the
        fallback must keep the answer bit-identical anyway."""
        rng = np.random.default_rng(2)
        with warm_context("ties"):
            for _ in range(30):
                n_rows = int(rng.integers(2, 7))
                n_cols = int(rng.integers(n_rows, 14))
                cost = rng.integers(0, 3, size=(n_rows, n_cols)).astype(float)
                np.testing.assert_array_equal(
                    hungarian_min_rect_warm(cost), hungarian_min_rect(cost)
                )

    def test_unrelated_streams_stay_identical(self):
        """Freshly random costs every call: warm attempts that survive the
        certificate are still exactly the cold answer."""
        rng = np.random.default_rng(3)
        with warm_context("chaos"):
            for _ in range(40):
                cost = rng.random((7, 25)) * 10
                np.testing.assert_array_equal(
                    hungarian_min_rect_warm(cost), hungarian_min_rect(cost)
                )

    def test_failure_cooldown_bounds_certificate_overhead(self):
        """After consecutive certificate failures the kernel stops paying
        for warm attempts, probing again only every ``_RETRY_PERIOD``."""
        rng = np.random.default_rng(4)
        n_calls = 64
        with warm_context("degenerate"):
            for _ in range(n_calls):
                # All-equal costs: every assignment is optimal, so the
                # uniqueness certificate must always fail.
                hungarian_min_rect_warm(np.zeros((4, 9)))
                rng.random(1)  # keep the loop honest about independence
        failures = dual_cache_stats()["certificate_failures"]
        assert failures >= _MAX_CONSECUTIVE_FAILURES
        assert failures <= _MAX_CONSECUTIVE_FAILURES + n_calls // _RETRY_PERIOD + 1

    def test_contexts_are_isolated(self):
        rng = np.random.default_rng(5)
        cost_a = rng.random((5, 20))
        cost_b = rng.random((5, 20))
        with warm_context("a"):
            hungarian_min_rect_warm(cost_a)
        with warm_context("b"):
            hungarian_min_rect_warm(cost_b)
        assert dual_cache_stats()["entries"] == 2

    def test_nested_context_restores_outer(self):
        rng = np.random.default_rng(6)
        cost = rng.random((4, 12))
        with warm_context("outer"):
            with warm_context("inner"):
                hungarian_min_rect_warm(cost)
            hungarian_min_rect_warm(cost)
            np.testing.assert_array_equal(
                hungarian_min_rect_warm(cost), hungarian_min_rect(cost)
            )
        assert dual_cache_stats()["entries"] == 2

    def test_growing_width_pads_duals(self):
        """Pools can also grow (open-world arrivals): cached duals are
        zero-padded to the wider matrix and must stay bit-identical."""
        rng = np.random.default_rng(7)
        base = rng.random((5, 60))
        with warm_context("grow"):
            for n_cols in (30, 45, 60):
                cost = base[:, :n_cols]
                np.testing.assert_array_equal(
                    hungarian_min_rect_warm(cost), hungarian_min_rect(cost)
                )

    def test_registered_as_lsap_kernel(self):
        rng = np.random.default_rng(8)
        profit = rng.random((6, 18)) * 5
        cold = hungarian(profit, kernel="vectorized")
        with perf_config.use_kernel("lsap", "warm"):
            for _ in range(3):
                warm = hungarian(profit)
                np.testing.assert_array_equal(warm.row_to_col, cold.row_to_col)
                assert warm.value == cold.value

    def test_warm_against_brute_force(self):
        rng = np.random.default_rng(9)
        with warm_context("oracle"):
            for _ in range(40):
                n_rows = int(rng.integers(1, 6))
                n_cols = int(rng.integers(n_rows, 9))
                profit = rng.random((n_rows, n_cols)) * 4
                warm = hungarian(profit, kernel="warm")
                assert warm.value == pytest.approx(brute_force_lsap(profit).value)
                assert warm.is_valid(n_cols)
