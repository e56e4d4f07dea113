"""Exact rank kernels over finite fields.

:func:`matrix_rank` is the one exact-rank entry point.  It takes a single
``(r, c)`` matrix or a batch ``(N, r, c)`` and eliminates along the short side
(rank is transpose-invariant), so its pivot loop runs ``min(r, c)`` times.

* GF(2): rows packed with numpy into ints used as bit-vectors, reduced per
  matrix by :func:`rank_gf2_bitrows` (word-wide XOR).
* GF(p), p odd prime, and GF(2^k), 2 <= k <= 16: :func:`_eliminate` runs on
  the whole batch at once.  Step k takes row k, already reduced by every
  earlier pivot row: a zero row is dependent, otherwise its first nonzero
  column becomes a pivot and is cleared from the rows below it.  GF(p) clears
  by cross-multiplication mod p (residues stay below 2^31, so products of two
  fit int64 exactly); GF(2^k) multiplies through the discrete-log tables,
  converted to numpy once per field.
* GF(2^k), k > 16: scalar elimination in :func:`_rank_generic`, which is also
  the oracle the tests compare the vectorized kernels against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .field import FieldDescriptor, discrete_log_tables

__all__ = [
    "rank_gf2_bitrows",
    "matrix_rank",
    "solve_is_independent",
]


def rank_gf2_bitrows(rows: Sequence[int]) -> int:
    """Rank over GF(2) of rows given as bit-packed ints (bit c = column c)."""
    pivots: dict[int, int] = {}
    rank = 0
    for v in rows:
        while v:
            h = v.bit_length()
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                rank += 1
                break
            v ^= p
    return rank


def _rank_gf2(m: np.ndarray) -> np.ndarray:
    """Rows packed with numpy into ints (bit c = column c), then XOR-reduced per matrix."""
    n, r, _ = m.shape
    packed = np.packbits(m, axis=2, bitorder="little")
    width = packed.shape[2]
    data = packed.tobytes()
    rows = [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    return np.array([rank_gf2_bitrows(rows[i : i + r]) for i in range(0, n * r, r)], dtype=np.int64)


def _eliminate(m: np.ndarray, clear) -> np.ndarray:
    """Ranks of an (N, r, c) batch, eliminated in place row by row.

    ``clear(below, factor, row, pivot)`` zeroes the pivot column of the rows
    ``below`` (whose entries there are ``factor``) using ``row``, in place,
    without changing their span; a zero ``row`` comes with ``pivot`` 0 and must
    leave them as they are.
    """
    n, r, _ = m.shape
    batch = np.arange(n)
    rank = np.zeros(n, dtype=np.int64)
    for k in range(r):
        row = m[:, k]
        nz = row != 0
        pc = nz.argmax(axis=1)
        has = nz[batch, pc]
        rank += has
        if k + 1 < r and has.any():
            below = m[:, k + 1 :]
            clear(below, below[batch, :, pc], row, row[batch, pc])
    return rank


def _rank_mod_p(m: np.ndarray, p: int) -> np.ndarray:
    def clear(below, factor, row, piv):
        # row_j <- piv * row_j - factor_j * row: scaling by piv != 0 keeps the rank,
        # and a zero row (piv 0 -> 1) leaves the rows below as they are
        below *= np.where(piv == 0, 1, piv)[:, None, None]
        below -= factor[:, :, None] * row[:, None, :]
        below %= p

    m %= p
    return _eliminate(m, clear)


@lru_cache(maxsize=None)
def _log_tables_np(field: FieldDescriptor) -> tuple[np.ndarray, np.ndarray]:
    exp, log = discrete_log_tables(field)
    return np.asarray(exp, dtype=np.int64), np.asarray(log, dtype=np.int64)


def _rank_gf2k(m: np.ndarray, field: FieldDescriptor) -> np.ndarray:
    exp, log = _log_tables_np(field)
    order_m1 = field.order - 1

    def clear(below, factor, row, piv):
        # log(factor / piv) + log(row entry) < 2 * order_m1 indexes exp directly
        scale_log = (log[factor] - log[piv][:, None]) % order_m1
        prod = exp[scale_log[:, :, None] + log[row][:, None, :]]
        prod *= (factor != 0)[:, :, None] & (row != 0)[:, None, :]
        below ^= prod

    return _eliminate(m, clear)


def _rank_generic(rows: list[list[int]], field: FieldDescriptor) -> int:
    nrows = len(rows)
    if nrows == 0:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(rank + 1, nrows):
            f = rows[r][col]
            if f:
                rows[r] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def matrix_rank(mats, field: FieldDescriptor):
    """Exact rank over ``field`` of one matrix of representatives, or of a batch.

    ``mats`` is an ``(r, c)`` matrix (nested sequences or an array), giving an
    int, or an ``(N, r, c)`` array, giving an int64 array of N ranks.
    """
    m = np.asarray(mats, dtype=np.int64)
    if m.ndim == 1 and m.size == 0:  # an empty list of rows
        return 0
    single = m.ndim == 2
    if single:
        m = m[None]
    elif m.ndim != 3:
        raise ValueError(f"expected an (r, c) matrix or an (N, r, c) batch, got shape {m.shape}")
    if m.shape[1] > m.shape[2]:
        m = m.transpose(0, 2, 1)
    if m.shape[1] == 0:
        ranks = np.zeros(m.shape[0], dtype=np.int64)
    elif field.order == 2:
        ranks = _rank_gf2(m)
    elif field.kind == "prime":
        ranks = _rank_mod_p(np.array(m, order="C"), field.p)  # eliminated in place
    elif field.k <= 16:
        ranks = _rank_gf2k(np.array(m, order="C"), field)
    else:
        ranks = np.array([_rank_generic(x.tolist(), field) for x in m], dtype=np.int64)
    return int(ranks[0]) if single else ranks


def solve_is_independent(vectors: Sequence[Sequence[int]], field: FieldDescriptor) -> bool:
    """True iff the given vectors are linearly independent over the field."""
    if len(vectors) == 0:
        return True
    return matrix_rank(vectors, field) == len(vectors)
