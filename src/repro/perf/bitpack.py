"""Bit-packed boolean-matrix kernels.

The pairwise-Jaccard block is the serving path's per-solve hot loop:
``|u & v|`` for every row pair of a solve's candidates.  The dense path
computes it as an int64 matmul over the ``(n, R)`` boolean matrix —
``O(n m R)`` multiply-adds that numpy cannot hand to BLAS (integer dtypes
take the naive loop).  This module packs each boolean row into
``ceil(R / 64)`` ``uint64`` words and computes the same intersection counts
as one 2-D AND and popcount per word — 64 keyword positions per word op,
with ``np.bitwise_count`` where numpy provides it (>= 2.0) and an 8-bit
lookup table otherwise.

Counts are exact integers either way, so the Jaccard distances derived from
them are *bit-identical* to the dense path (the differential suite in
``tests/test_perf_kernels.py`` holds both paths to that).
"""

from __future__ import annotations

import numpy as np

#: Popcount of every byte value; fallback when np.bitwise_count is missing.
_POPCOUNT8 = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of an unsigned-integer array (same shape)."""
    words = np.asarray(words)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    return _POPCOUNT8[words.view(np.uint8)].reshape(
        words.shape + (words.dtype.itemsize,)
    ).sum(axis=-1, dtype=np.uint8)


def pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack boolean rows into ``uint64`` words, little-endian bit order.

    Returns shape ``(n, ceil(R / 64))``; trailing pad bits are zero, so
    bitwise ANDs between packed rows never invent spurious intersections.

    >>> pack_rows(np.array([[1, 0, 1]], dtype=bool))
    array([[5]], dtype=uint64)
    """
    bits = np.asarray(matrix, dtype=bool)
    if bits.ndim != 2:
        raise ValueError(f"expected a 2-D boolean matrix, got {bits.ndim}-D")
    n, r = bits.shape
    n_words = (r + 63) // 64
    if n_words == 0:
        return np.zeros((n, 0), dtype=np.uint64)
    packed8 = np.packbits(bits, axis=1, bitorder="little")
    n_bytes = n_words * 8
    if packed8.shape[1] < n_bytes:
        packed8 = np.pad(packed8, ((0, 0), (0, n_bytes - packed8.shape[1])))
    # A row is n_bytes little-endian bytes; viewing as uint64 needs the
    # native byte order to be little-endian, which numpy wheels guarantee on
    # every platform we target — assert rather than silently mis-pack.
    assert np.dtype(np.uint64).byteorder in ("=", "<") and np.little_endian
    return np.ascontiguousarray(packed8).view(np.uint64)


def unpack_rows(packed: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: packed words back to a boolean matrix.

    ``packed`` is a ``(n, ceil(n_bits / 64))`` uint64 matrix; returns the
    ``(n, n_bits)`` boolean matrix it encodes.  Round-trips exactly:
    ``unpack_rows(pack_rows(m), m.shape[1]) == m``.
    """
    words = np.asarray(packed, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(f"expected a 2-D packed matrix, got {words.ndim}-D")
    n, n_words = words.shape
    if n_bits < 0 or (n_bits + 63) // 64 != n_words:
        raise ValueError(
            f"n_bits {n_bits} does not fit {n_words} uint64 words"
        )
    if n_bits == 0:
        return np.zeros((n, 0), dtype=bool)
    assert np.dtype(np.uint64).byteorder in ("=", "<") and np.little_endian
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :n_bits].astype(bool)


def packed_intersections(
    left: np.ndarray,
    right: np.ndarray,
    max_count: int | None = None,
) -> np.ndarray:
    """``|u & v|`` for every (left row, right row) pair.

    ``left``/``right`` are packed matrices from :func:`pack_rows` with the
    same word count.  Each word costs one ``(n, m)`` AND and popcount,
    summed into the narrowest unsigned dtype that holds ``max_count`` (an
    upper bound on any count; default: every bit of the words): ``uint8``
    while it is at most 255, which covers keyword rows of up to 255 set
    bits, then ``uint16``, then ``int64``.
    """
    if left.shape[1] != right.shape[1]:
        raise ValueError(
            f"word-count mismatch: {left.shape[1]} vs {right.shape[1]}"
        )
    n_words = left.shape[1]
    bound = 64 * n_words if max_count is None else max_count
    if bound <= np.iinfo(np.uint8).max:
        dtype = np.uint8
    elif bound <= np.iinfo(np.uint16).max:
        dtype = np.uint16
    else:
        dtype = np.int64
    out = np.zeros((left.shape[0], right.shape[0]), dtype=dtype)
    for word in range(n_words):
        out += popcount(left[:, word, None] & right[None, :, word])
    return out


class PackedMatrix:
    """A boolean matrix with its packed words and row popcounts."""

    __slots__ = ("n_rows", "n_bits", "words", "counts")

    def __init__(self, matrix: np.ndarray):
        bits = np.asarray(matrix, dtype=bool)
        self.n_rows, self.n_bits = bits.shape
        self.words = pack_rows(bits)
        self.counts = bits.sum(axis=1, dtype=np.int64)

    def intersections(self, other: "PackedMatrix") -> np.ndarray:
        return packed_intersections(self.words, other.words)
