"""Brute-force and randomized verification harnesses, and the design of their GF(2) sweeps.

* Exact kernels.  :func:`_exact_plan` alone picks one by the width of the
  flattening rows, a^(d-1) columns.  Up to :data:`TABLE_MAX_COLUMNS`, a
  tensor's packed rows are the XOR of one entry of each byte table of its
  shape (:func:`_row_tables`), eliminated a block at once by min-XOR steps;
  wider rows are bit-sliced, 64 tensors a word.  Each wins on its own rows
  (``BENCH_9.json`` ``kernel_split_same_words``, ``BENCH_32.json``
  ``search_py_numbers``).  Larger fields rank the d flattenings of a block in
  one batched call (:func:`_block_ranks`).
* Certificate.  A random sweep with rows over :data:`SAMPLE_COLUMNS` columns,
  a <= :data:`SAMPLE_MAX_A` and one certified block or more of tensors first
  ranks them on that many sampled columns a flattening (:func:`_certified_ranks`).
  A sampled rank is at most the flattening's, itself at most a, so sampled
  ranks summing to a*d prove full rank; only the others, the misses, are
  queued and ranked exactly, an exact block at a time.  Where it pays:
  ``BENCH_26.json`` ``certificate_rule``; its misses: ``BENCH_26.json`` ``per_shape``.
* Blocks and chunks.  A random block holds :data:`BLOCK_BYTES` of the rows
  it gathers, so rows and scratch stay in cache.  An exhaustive chunk is the
  power of two of assignments whose rows, a*d entries each, come nearest
  :data:`BLOCK_BYTES`, and at least 256 (``BENCH_30.json`` ``chunk_curve``);
  its rows are table slices XORed by broadcasting, with no gather.
* Arena and admission.  A sweep carves one workspace, its whole plan, from
  its thread's arena (:func:`flatrank.linalg._arena_workspace`, shared with
  document reads), kept between sweeps, since allocating per block faults
  every page in again (``BENCH_13.json`` ``per_block_us``).  A block
  reads nothing there that it did not write but a certified sweep's queue,
  and kernels return views into it; a buffer that hosts another is written
  only once its guest is read.  No buffer passes :data:`BLOCK_BYTES` unless
  one tensor needs it, but an exhaustive chunk's rows and scratch, up to
  sqrt(2) times it.  A plan whose bytes, with all the sweep keeps or
  allocates besides, pass :data:`flatrank.caps.MAX_WORKSPACE_BYTES` is
  refused before any of it is built.
* Streams.  Tensor j of a sweep, and its violation witness, is drawn from the
  words of the splitmix64 stream ``Rng(Rng.sub_seed(seed, j))``, read in bulk
  (:func:`_stream_block`).  All-distinct entries are 0.  Over GF(2) the
  diagonal is 1 and mixed entry t, in flat order, is bit t % 64 of word
  t // 64; over a field of order q > 2 each diagonal and mixed entry, in flat
  order, takes the next word w: 1 + w % (q-1) on the diagonal, w % q off it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import caps
from .field import GF2, FieldDescriptor, _log_table_sizes
from .formats import tensor_to_document
from .linalg import (
    ARENA_PLANS,
    _arena_bytes,
    _arena_workspace,
    _check_products,
    _drop_arena,
    _elimination_sizes,
    _pivot_table_bytes,
    _rank_into,
    _unplanned_bytes,
    _Workspace,
    entry_dtype,
)
from .rng import Rng, _ramp_bytes, stream_words_np, sub_seeds_np
from .setfam import (
    TupleFamily,
    _slot_limbs,
    cross_oddtown_bound,
    is_cross_oddtown,
    repeated_singleton_family,
    try_extend_cross_oddtown,
)
from .tensor import Tensor, _axis_order, check_cube, distinct_cells, flattening_ranks, index_class_arrays

__all__ = [
    "SearchReport",
    "exhaustive_min_mfrank",
    "random_semidiagonal_sweep",
    "random_cross_oddtown_search",
]

# Bytes of a sweep block's largest buffer, packed GF(2) rows or, over a larger
# field, whichever buffer is largest: they stay in the L2 cache and under
# glibc's mmap threshold
BLOCK_BYTES = 1 << 19
# Widest flattening rows, in columns, that the byte-table GF(2) kernel takes
TABLE_MAX_COLUMNS = 32
# Columns of each flattening a certified sweep ranks first, and the largest a it certifies
SAMPLE_COLUMNS = 16
SAMPLE_MAX_A = 13


@dataclass
class SearchReport:
    """Outcome of a sweep or a search, as :meth:`to_document` serializes it."""

    population: str
    count: int
    min_mfrank: int | None
    min_sum_franks: int | None
    witnesses: list[dict]
    seed: int | None
    violations: int = 0
    extra: dict = dc_field(default_factory=dict)

    def to_document(self) -> dict:
        doc = {
            "population": self.population,
            "count": self.count,
            "min_mfrank": self.min_mfrank,
            "min_sum_franks": self.min_sum_franks,
            "violations": self.violations,
            "witnesses": self.witnesses,
            "seed": self.seed,
        }
        doc.update(self.extra)
        return doc


@lru_cache(maxsize=None)
def _row_layout(a: int, d: int, sampled: bool = False) -> tuple[type, tuple[int, ...]]:
    """(dtype, pieces) of the packed flattening rows of :func:`_row_tables`.

    The dtype is the narrowest unsigned one that holds a row, of a^(d-1) or
    :data:`SAMPLE_COLUMNS` columns.  ``np.take`` copies rows of 1 to 32 bytes,
    powers of two, with typed loads and others with a ``memmove`` each, so a
    tensor's a*d rows are padded to such a size, cut into 32 bytes and such a
    tail up to 64, and kept whole over 64 (``BENCH_28.json``
    ``byte_table_kernel_us_per_block``).  ``pieces`` holds the pieces' widths
    in entries, each gathered apart; kernels read only the first a*d entries.
    """
    cols = SAMPLE_COLUMNS if sampled else a ** (d - 1)
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32) if np.iinfo(t).bits >= cols)
    size = np.dtype(dtype).itemsize
    nbytes = a * d * size
    head = (32,) if 32 < nbytes <= 64 else ()
    tail = nbytes - sum(head)
    tail = 1 << (tail - 1).bit_length() if tail <= 32 else tail
    return dtype, tuple(p // size for p in head + (tail,))


def _row_bytes(a: int, d: int, sampled: bool = False) -> int:
    """Bytes of a tensor's packed rows in the layout of :func:`_row_layout`."""
    dtype, pieces = _row_layout(a, d, sampled)
    return sum(pieces) * np.dtype(dtype).itemsize


def _pieces(flat: np.ndarray, n: int, widths: tuple[int, ...]) -> list[np.ndarray]:
    """(n, w) views of ``flat``'s first n * sum(widths) items, one per width, one after another."""
    return [flat[n * s : n * (s + w)].reshape(n, w) for s, w in zip(accumulate(widths, initial=0), widths)]


def _transposed(pieces: list[np.ndarray], count: int, out: np.ndarray) -> np.ndarray:
    """The first ``count`` entries of the rows held in ``pieces``, transposed into the (count, N) ``out``."""
    for s, piece in zip(accumulate((p.shape[1] for p in pieces), initial=0), pieces):
        np.copyto(out[s : s + piece.shape[1]], piece[:, : count - s].T)  # the padding is past count
    return out


@lru_cache(maxsize=None)
def _row_tables(a: int, d: int, sampled: bool = False) -> dict[int, tuple[np.ndarray, ...]]:
    """Byte tables of the packed flattening rows of GF(2) semi-diagonal tensors on A^d.

    Needs a^(d-1) <= :data:`TABLE_MAX_COLUMNS`, or ``sampled``: then each
    flattening keeps :data:`SAMPLE_COLUMNS` columns, in column order, picked
    one at a time, axis by axis.  Columns with at most one fixed (diagonal or
    all-distinct) cell go first, the one adding the fewest stream bytes not
    yet feeding a kept cell first; then the rest, by most mixed cells; ties
    to fewer fixed cells, then the lower column.  Fixed cells are the same in
    every tensor, and each byte fed costs a gather per block
    (``BENCH_27.json`` ``certified_kernel_us_per_block``).  Row ``r * d +
    axis`` holds row r of the flattening along ``axis``, one bit per kept
    column, one table per piece of :func:`_row_layout`.  Row v of
    ``tables[k]`` XORs in the mixed entries 8k .. 8k+7 whose bits are set in
    byte v; there is a table for each byte that feeds a kept cell (at least
    one), and the first also holds the unit diagonal's rows, so a tensor's
    rows are the XOR of one entry per table.  Built once per shape, read-only.
    """
    diag, _, mixed = index_class_arrays(a, d)
    dtype, pieces = _row_layout(a, d, sampled)
    width = sum(pieces)
    cols, nbytes = a ** (d - 1), max(1, -(-mixed.size // 8))
    bit = np.tile(np.arange(cols), (d, 1))  # [axis, column]: its bit in the rows, -1 if not kept
    if sampled:
        byte = np.full(a**d, nbytes)  # the stream byte of each mixed entry; nbytes if fixed
        byte[mixed] = np.arange(mixed.size) // 8
        unfed = np.ones(nbytes + 1, bool)  # the bytes that feed no kept cell yet
        unfed[nbytes] = False
        bit.fill(-1)
        for ax in range(d):
            # [i, column]: the bytes of each column's cells, sorted, each counted once
            cells = np.sort(np.moveaxis(byte.reshape((a,) * d), ax, 0).reshape(a, cols), axis=0)
            once = np.ones((a, cols), bool)
            once[1:] = cells[1:] != cells[:-1]
            fixed = (cells == nbytes).sum(axis=0)
            # a pick takes the least key, ties to the lower column: fixed cells,
            # plus the new bytes times a + 1 if at most one is fixed, or else
            # past any such column; a kept column's is past them all
            weight = (fixed <= 1) * (a + 1)
            key = (fixed > 1) * (nbytes + 1) * (a + 1) + fixed
            keep = []
            for _ in range(min(SAMPLE_COLUMNS, cols)):
                new = (unfed[cells] & once).sum(axis=0)
                c = int(np.argmin(new * weight + key))
                keep.append(c)
                key[c] = (nbytes + 2) * (a + 1)
                unfed[cells[:, c]] = False
            bit[ax, np.sort(keep)] = np.arange(len(keep))

    def entry_rows(flat: np.ndarray) -> np.ndarray:
        """(len(flat), width): the rows with only entry ``flat[i]`` set, for each i."""
        idx = np.unravel_index(flat, (a,) * d)
        out = np.zeros((flat.size, width), dtype=dtype)
        for ax in range(d):
            col = bit[ax, np.ravel_multi_index(idx[:ax] + idx[ax + 1 :], (a,) * (d - 1))]
            kept = np.flatnonzero(col >= 0)
            out[kept, idx[ax][kept] * d + ax] = np.uint64(1) << col[kept].astype(np.uint64)
        return out

    bits = np.zeros((8 * nbytes, width), dtype=dtype)
    bits[: mixed.size] = entry_rows(mixed)
    feeding = [k for k in range(nbytes) if bits[8 * k : 8 * k + 8].any()] or [0]
    tables = {}
    for k in feeding:
        table = np.zeros((256, width), dtype=dtype)
        if not tables:
            table[0] = np.bitwise_xor.reduce(entry_rows(diag), axis=0)
        for b in range(8):  # bytes with highest set bit b: the bytes below, XOR bit b's rows
            table[1 << b : 2 << b] = table[: 1 << b] ^ bits[8 * k + b]
        tables[k] = tuple(map(np.ascontiguousarray, np.split(table, np.cumsum(pieces)[:-1], axis=1)))
        for piece in tables[k]:
            piece.flags.writeable = False
    return tables


def _largest_buffer(sizes: dict[str, tuple[int, type]]) -> int:
    return max(count * np.dtype(dtype).itemsize for count, dtype in sizes.values())


def _exact_plan(a: int, d: int, n: int, nwords: int) -> tuple[int, dict, int, Callable]:
    """(block, sizes, extra, kernel) of the exact GF(2) kernel that rows on A^d take: byte tables up to
    :data:`TABLE_MAX_COLUMNS` columns, else bit-sliced.  ``block`` is n, or the fewer tensors of
    :data:`BLOCK_BYTES` of rows (bit-sliced, whole words of 64); the rest is :func:`_exact_kernel`'s."""
    sliced = a ** (d - 1) > TABLE_MAX_COLUMNS
    if sliced:
        n = min(n, max(64, 8 * BLOCK_BYTES // (d * a**d) // 64 * 64))
    else:
        n = min(n, BLOCK_BYTES // _row_bytes(a, d))
    return n, *_exact_kernel(a, d, n, nwords, sliced)


@lru_cache(maxsize=ARENA_PLANS)
def _exact_kernel(a: int, d: int, n: int, nwords: int, sliced: bool) -> tuple[dict, int, Callable]:
    """(sizes, extra, kernel) for blocks of up to n tensors, kept: the plan, its stream words included, the
    bytes kept or allocated besides, and ``kernel(words, ws)``, a block's (mfrank, sum_franks)."""
    if not sliced:
        tables = _row_tables(a, d)
        kernel = lambda words, ws: _packed_population_ranks(a, d, words, tables, ws)
        return _table_sizes(a, d, n) | _stream_sizes(n, nwords, mix="buf"), 0, kernel
    # Besides: the shape's (d+1) a^d intp indices (index_class_arrays, _plane_index), and numpy's
    # buffers for a ufunc call on strided operands, np.getbufsize() items for each of up to three, or
    # the call's items if fewer: at most the transpose's, 32 nwords a word of 64 lanes, or for d >= 3
    # the ANDs on the rows below the first, d (a-1) a^(d-1) a word (at d = 2 no factor is set).
    below = d * (a - 1) * a ** (d - 1) if d > 2 else 0
    items = -(-n // 64) * max(32 * nwords, below)
    extra = (1 + d) * a**d * np.dtype(np.intp).itemsize + 3 * 8 * min(np.getbufsize(), items)
    kernel = lambda words, ws: _sliced_ranks(a, d, words, ws)
    # the words are read into the planes before rows and scratch are written
    return _sliced_sizes(a, d, n, nwords) | _stream_sizes(n, nwords, "rows", "scratch"), extra, kernel


def _gf2_plan(a: int, d: int, count: int, nwords: int) -> tuple[int, int, tuple]:
    """(block, chunk, :func:`_block_plan`) of a random GF(2) sweep of ``count`` tensors on A^d.

    Rows over :data:`SAMPLE_COLUMNS` columns, a <= :data:`SAMPLE_MAX_A`, are
    certified in blocks of :data:`BLOCK_BYTES` of sampled rows and stream
    words, misses ranked ``chunk`` (an exact block) at a time, if ``count``
    fills a block; else, or over the cap, the exact kernel runs, ``chunk`` 0.
    """
    chunk = _exact_plan(a, d, count, nwords)[0]
    block = max(1, BLOCK_BYTES // (_row_bytes(a, d, sampled=True) + 8 * nwords))
    certify = a ** (d - 1) > SAMPLE_COLUMNS and a <= SAMPLE_MAX_A and count >= block
    plan = certify and _block_plan(a, d, block, nwords, chunk)
    return (block, chunk, plan) if plan else (chunk, 0, _block_plan(a, d, chunk, nwords, 0))


@lru_cache(maxsize=ARENA_PLANS)
def _block_plan(a: int, d: int, n: int, nwords: int, chunk: int) -> tuple[dict, int, Callable] | None:
    """(sizes, nbytes, kernel) of random GF(2) sweep blocks of up to n tensors on A^d; kept, read-only.

    ``kernel(words, start, last, ws)`` yields :func:`_scan_blocks`' batches of a block from tensor
    ``start``, the sweep's ``last`` or not: the exact kernel's with ``chunk`` 0, else the certificate's,
    which queues its misses in the stream words of an exact block of ``chunk`` tensors (``exact.words``).
    ``nbytes`` is all the workspace cap counts, sampled tables at their largest (256 rows for each
    of at most ``SAMPLE_COLUMNS * a * d`` stream bytes); a certified plan over the cap is None, built
    without its tables.
    """
    _, sizes, extra, exact = _exact_plan(a, d, chunk or n, nwords)
    extra += _ramp_bytes(n, nwords)
    if not chunk:
        kernel = lambda words, start, last, ws: ((start, *exact(words, ws)),)
        return sizes, _Workspace.nbytes(sizes) + extra, kernel
    sizes = {
        **_table_sizes(a, d, n, sampled=True),
        **_stream_sizes(n, nwords, mix="buf"),
        "queued": (chunk, np.intp),
        "fill": (1, np.intp),
        **{f"exact.{k}": size[:2] + tuple(f"exact.{h}" for h in size[2:]) for k, size in sizes.items()},
    }
    fed = min(-(-_mixed_count(a, d) // 8), SAMPLE_COLUMNS * a * d)  # stream bytes with a table
    # 8 n: the misses' indices
    nbytes = _Workspace.nbytes(sizes) + extra + 8 * n + fed * 256 * _row_bytes(a, d, sampled=True)
    if nbytes > caps.MAX_WORKSPACE_BYTES:
        return None
    tables = _row_tables(a, d, sampled=True)
    return sizes, nbytes, lambda *block: _certified_ranks(a, d, tables, exact, chunk, *block)


def _stream_sizes(
    n: int, nwords: int, words: str | None = None, mix: str | None = None
) -> dict[str, tuple]:
    """Workspace of :func:`_stream_block` for blocks of up to n tensors; ``words`` and ``mix`` name hosts."""
    size = (n * nwords, np.uint64)
    return {"words": size + ((words,) if words else ()), "mix": size + ((mix,) if mix else ())}


def _rank_sizes(d: int, n: int, dtype: type) -> dict[str, tuple[int, type]]:
    """Buffers of the d ranks of n tensors, in ``dtype``, and of their (mfrank, sum_franks)."""
    return {"rank": (d * n, dtype), "mfrank": (n, dtype), "sumrank": (n, np.uint16)}


def _field_sizes(a: int, d: int, n: int, field: FieldDescriptor) -> dict[str, tuple[int, type]]:
    """Workspace of a block of up to n tensors over ``field`` of order > 2: stream words, residues, entries
    (:func:`_semidiagonal_block`) and the elimination of the d stacked flattenings (:func:`_block_ranks`)."""
    nwords = _semidiagonal_words(a, d, field)
    return {
        **_stream_sizes(n, nwords),
        "modulus": (nwords, np.uint64),
        "residues": (n * nwords, np.uint64),
        "entries": (n * a**d, entry_dtype(field)),
        **_elimination_sizes(d * n, a, a ** (d - 1), field),
        **_rank_sizes(d, n, np.int64),
    }


def _table_sizes(a: int, d: int, n: int, sampled: bool = False) -> dict[str, tuple[int, type]]:
    """Workspace of :func:`_packed_population_ranks` for blocks of up to n tensors, in the
    ``sampled`` tables' layout or not; ``buf`` also hosts the stream's mixing scratch."""
    dtype, pieces = _row_layout(a, d, sampled)
    mix = 8 * n * _semidiagonal_words(a, d, GF2)
    return {
        "index": (n, np.intp),
        "rows": (n * sum(pieces), dtype),
        "buf": (max(n * sum(pieces), mix // np.dtype(dtype).itemsize), dtype),
        "flag": (d * n, np.bool_),
        **_rank_sizes(d, n, np.uint8),
    }


def _exhaustive_sizes(a: int, d: int, n: int) -> dict[str, tuple[int, type]]:
    """Workspace of :func:`_exhaustive_ranks` for chunks of n; ``buf`` also holds the high bytes' rows."""
    dtype = _row_layout(a, d)[0]
    return {
        "rows": (n * a * d, dtype),
        "buf": (max(n * (a - 1) * d, -(-n // 256) * a * d), dtype),
        "flag": (d * n, np.bool_),
        **_rank_sizes(d, n, np.uint8),
    }


def _sliced_sizes(a: int, d: int, n: int, nwords: int) -> dict[str, tuple[int, type]]:
    """Workspace of :func:`_sliced_ranks` for blocks of up to n tensors of ``nwords`` words."""
    groups = -(-n // 64)
    cols = a ** (d - 1)
    gathered = (d * a * cols * groups, np.uint64)
    return {
        "planes": ((2 + 64 * nwords) * groups, np.uint64),
        # the transpose's scratch: it runs before the elimination writes scratch
        "swap": (32 * nwords * groups, np.uint64, "scratch"),
        "rows": gathered,
        "scratch": gathered,
        "seen": (d * cols * groups, np.uint64),
        "pivot": (d * cols * groups, np.uint64),
        "lanes": (d * a * groups, np.uint64),
        "nonzero": (a * d * groups, np.uint64),
        "bits": (a * d * 64 * groups, np.uint8),
        **_rank_sizes(d, n, np.min_scalar_type(a)),
    }


def _rank_summary(rank: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of N tensors from their (d, N) flattening ranks."""
    n = rank.shape[1]
    mfrank, sumrank = ws.take("mfrank", n), ws.take("sumrank", n)
    np.max(rank, axis=0, out=mfrank)
    # a sum is at most 32 rows times d <= 64 axes (numpy's cap), or a * d <= 2 * 4096
    # (bit-sliced, or a^d within the dense cap): exact in uint16, which numpy sums
    # much faster than it casts into int64
    np.sum(rank, axis=0, dtype=np.uint16, out=sumrank)
    return mfrank, sumrank


def _eliminate(
    rows: np.ndarray, scratch: np.ndarray, d: int, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of N tensors from their packed rows, laid out ``[r, axis * N + j]``.

    Elimination runs on all N * d flattenings at once, in place: after each
    pivot row p, ``min(x, x ^ p)`` clears p's leading bit from every row x
    below that has it, so the nonzero pivots are independent and their count
    is the rank.  ``scratch`` has the shape and dtype of ``rows[1:]``.
    """
    rank, flag = ws.take("rank", rows.shape[1]), ws.take("flag", rows.shape[1])
    rank.fill(0)
    for i in range(rows.shape[0]):
        np.not_equal(rows[i], 0, out=flag)
        rank += flag
        below, tmp = rows[i + 1 :], scratch[i:]
        np.bitwise_xor(below, rows[i], out=tmp)
        np.minimum(below, tmp, out=below)
    return _rank_summary(rank.reshape(d, -1), ws)


def _packed_population_ranks(
    a: int, d: int, words: np.ndarray, tables: dict[int, tuple], ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of N GF(2) semi-diagonal tensors on A^d, through byte ``tables``.

    Row j of the (N, w) uint64 ``words`` holds tensor j's mixed entries, in
    the stream layout; its little-endian byte k indexes ``tables[k]`` of
    :func:`_row_tables`, full or sampled.  ``ws`` holds :func:`_table_sizes`
    for at least N, in the tables' layout.
    """
    n = words.shape[0]
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)
    widths = tuple(piece.shape[1] for piece in next(iter(tables.values())))
    index = ws.take("index", n)
    rows, buf = ws.take("rows", n * sum(widths)), ws.take("buf", n * sum(widths))
    row_pieces, buf_pieces = _pieces(rows, n, widths), _pieces(buf, n, widths)
    for i, (k, pieces) in enumerate(tables.items()):
        np.copyto(index, as_bytes[:, k])  # intp, or np.take casts a copy of its own
        for table, out in zip(pieces, buf_pieces if i else row_pieces):
            # a byte always indexes one of the 256 rows: no bounds check
            np.take(table, index, axis=0, out=out, mode="clip")
        if i:
            rows ^= buf
    # [r * d + axis, j] is [r, axis * n + j]
    _transposed(row_pieces, a * d, ws.take("buf", a * d, n))
    return _eliminate(ws.take("buf", a, d * n), ws.take("rows", a - 1, d * n), d, ws)


def _certified_ranks(
    a: int, d: int, tables: dict, exact: Callable, chunk: int, words: np.ndarray, start: int,
    last: bool, ws: _Workspace,
) -> Iterable[tuple]:
    """:func:`_scan_blocks`' batches of GF(2) tensors ``start ..`` on A^d, certified on sampled ``tables``.

    The certified tensors make one batch, (a, a*d) at ``start``, at or above
    each one's own pair.  The misses are queued in ``ws``, from block to block
    (empty at ``start`` 0), and ``exact(words, ws)`` ranks the queue in
    ``ws.part("exact.")`` each time it holds ``chunk`` and after the sweep's
    ``last`` block, one batch each.  ``ws`` holds a certified :func:`_block_plan`.
    """
    n, w = words.shape
    sumrank = _packed_population_ranks(a, d, words, tables, ws)[1]
    misses = np.flatnonzero(np.not_equal(sumrank, a * d, out=ws.take("flag", n)))
    yield start, np.array([a]), np.array([a * d])
    queue, queued, fill = ws.take("exact.words", chunk, w), ws.take("queued", chunk), ws.take("fill", 1)
    f = int(fill[0]) if start else 0
    for part in np.split(misses, range(chunk - f, misses.size, chunk)):
        np.take(words, part, axis=0, out=queue[f : f + part.size], mode="clip")
        np.add(part, start, out=queued[f : f + part.size])
        f += part.size
        if f == chunk:
            yield queued, *exact(queue, ws.part("exact."))
            f = 0
    if last and f:
        yield queued[:f], *exact(queue[:f], ws.part("exact."))
    fill[0] = f


def _exhaustive_ranks(
    a: int, d: int, tables: list[np.ndarray], start: int, stop: int, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of the GF(2) tensors with assignments ``start .. stop-1``.

    ``stop - start`` is a power of two and ``start`` a multiple of it, so byte
    k of the assignments runs through one range of values under every value
    of the bytes above it: their rows are the XOR of one slice of each table,
    ``tables[k]`` being byte k's of :func:`_row_tables` as contiguous
    ``[r * d + axis, byte value]``.  ``ws`` holds :func:`_exhaustive_sizes`
    for ``stop - start``; the call reads nothing in it that it did not write.
    """
    n = stop - start
    low, *high = (
        table[:, (start >> 8 * k) & 255 :][:, : min(256, max(1, n >> 8 * k))]
        for k, table in enumerate(tables)
    )
    rows = ws.take("rows", a * d, n // low.shape[1], low.shape[1])
    if high:
        top = high.pop()
        for part in reversed(high):
            out = ws.take("buf", a * d, top.shape[1], part.shape[1])
            top = np.bitwise_xor(top[:, :, None], part[:, None, :], out=out).reshape(a * d, -1)
        np.bitwise_xor(top[:, :, None], low[:, None, :], out=rows)
    else:  # byte 0 alone: at most 256 assignments
        np.copyto(rows[:, 0], low)
    return _eliminate(rows.reshape(a, d * n), ws.take("buf", a - 1, d * n), d, ws)


# delta-swap rounds of a 64x64 bit transpose: (shift j, mask of the bits whose bit j is clear)
_TRANSPOSE_ROUNDS = tuple(
    (j, np.uint64(sum(1 << b for b in range(64) if not b & j)))
    for j in (32, 16, 8, 4, 2, 1)
)
_BIT_SHIFTS = np.arange(8, dtype=np.uint8)


@lru_cache(maxsize=None)
def _plane_index(a: int, d: int) -> np.ndarray:
    """(d, a, a^(d-1)) plane of each flattening entry of a GF(2) semi-diagonal tensor on A^d.

    Entry ``[axis, r, c]`` is entry (r, c) of the flattening along ``axis``.
    Plane 0 is all zeros (the pairwise-distinct entries), plane 1 all ones
    (the unit diagonal), and mixed entry t is plane t + 2.
    """
    diag, _, mixed = index_class_arrays(a, d)
    index = np.zeros((d, a, a ** (d - 1)), dtype=np.intp)  # filled in place: no more than counted
    plane = index[0].reshape(-1)  # axis 0's flattening is the flat order
    plane[diag] = 1
    plane[mixed] = np.arange(2, mixed.size + 2)
    for ax in range(1, d):
        np.copyto(index[ax].reshape((a,) * d), np.moveaxis(plane.reshape((a,) * d), ax, 0))
    return index  # never written, but writeable: np.take copies a read-only index per call


def _bit_planes(words: np.ndarray, ws: _Workspace) -> np.ndarray:
    """(2 + 64 w, W) bit planes of N tensors' mixed entries, ``W = ceil(N / 64)``.

    Row j of the (N, w) uint64 ``words`` holds tensor j's mixed entries, in
    the stream layout.  Bit i of word g of plane t + 2 is mixed entry t of
    tensor 64g + i; plane 0 is zero and plane 1 all ones, as
    :func:`_plane_index` expects, and lanes past N are zero.  Each 64x64
    block of bits is transposed in place by six delta-swap rounds, over the
    layout ``[stream word, row, group]`` so every round runs over the groups.
    """
    n, w = words.shape
    groups, full = -(-n // 64), n // 64
    planes = ws.take("planes", 2 + 64 * w, groups)
    planes[0] = 0
    planes[1] = ~np.uint64(0)
    bits = planes[2:].reshape(w, 64, groups)  # [stream word, row, group]
    bits[:, :, :full] = words[: 64 * full].reshape(full, 64, w).transpose(2, 1, 0)
    if full < groups:
        bits[:, :, full] = 0
        bits[:, : n - 64 * full, full] = words[64 * full :].T
    for j, mask in _TRANSPOSE_ROUNDS:
        pairs = bits.reshape(w, -1, 2, j, groups)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        swap = ws.take("swap", *lo.shape)
        np.right_shift(lo, j, out=swap)
        swap ^= hi
        swap &= mask
        hi ^= swap
        swap <<= j
        lo ^= swap
    return planes


def _sliced_ranks(
    a: int, d: int, words: np.ndarray, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of N GF(2) semi-diagonal tensors on A^d, 64 tensors per word.

    The rows of all d flattenings are one gather from the planes of
    :func:`_bit_planes`, ``[axis, r, c, group]``.  Pivot step k works on
    every axis and lane at once: a prefix-OR of row k over the columns gives
    its rank bit and a one-hot pivot column; each row below picks its bit in
    that column as a lane mask and XORs in row k under it.  ``ws`` holds
    :func:`_sliced_sizes` for at least N.
    """
    n = words.shape[0]
    planes = _bit_planes(words, ws)
    groups, cols = planes.shape[1], a ** (d - 1)
    rows = ws.take("rows", d, a, cols, groups)
    np.take(planes, _plane_index(a, d), axis=0, out=rows, mode="clip")
    scratch = ws.take("scratch", d, a, cols, groups)
    seen, pivot = ws.take("seen", d, cols, groups), ws.take("pivot", d, cols, groups)
    nonzero = ws.take("nonzero", a, d, groups)
    for k in range(a):
        row = rows[:, k]
        np.bitwise_or.accumulate(row, axis=1, out=seen)
        nonzero[k] = seen[:, cols - 1]
        if k + 1 == a:
            break
        pivot[:, 0] = seen[:, 0]
        np.bitwise_xor(seen[:, 1:], seen[:, :-1], out=pivot[:, 1:])
        # only columns from the first to the last pivot of any lane can hold a
        # factor: at d = 2, the identity, that is one column and no factor is set
        pivoted = np.flatnonzero(np.bitwise_or.reduce(pivot, axis=(0, 2)))
        if pivoted.size == 0:
            continue
        span = slice(pivoted[0], pivoted[-1] + 1)
        below, tmp = rows[:, k + 1 :], scratch[:, k + 1 :]
        np.bitwise_and(below[:, :, span], pivot[:, None, span], out=tmp[:, :, span])
        lanes = ws.take("lanes", d, a - k - 1, groups)
        np.bitwise_or.reduce(tmp[:, :, span], axis=2, out=lanes)
        if not lanes.any():
            continue
        np.bitwise_and(row[:, None], lanes[:, :, None], out=tmp)
        below ^= tmp
    # bit i of word g, lane 64g + i, is bit i % 8 of the word's little-endian byte i // 8
    as_bytes = nonzero.astype("<u8", copy=False).view(np.uint8)
    bits = ws.take("bits", a, d, 8 * groups, 8)
    np.right_shift(as_bytes[..., None], _BIT_SHIFTS, out=bits)
    bits &= 1
    rank = ws.take("rank", d, n)
    np.sum(bits.reshape(a, d, 64 * groups)[:, :, :n], axis=0, dtype=rank.dtype, out=rank)
    return _rank_summary(rank, ws)


def _mixed_count(a: int, d: int) -> int:
    """Entries of an A^d tensor that are neither constant nor pairwise distinct, ``d >= 2``."""
    return a**d - a - math.perm(a, d)


def _scan_blocks(
    total: int,
    block: int,
    sizes: dict[str, tuple[int, type]],
    ranks: Callable[[int, int, _Workspace], Iterable[tuple]],
    lower: int,
) -> tuple[tuple[int, int], tuple[int, int], int, int | None]:
    """The block loop of both sweeps, over tensors ``0 .. total-1``, ``total >= 1``.

    ``ranks(start, stop, ws)`` yields batches ``(at, mfrank, sumrank)`` for a block, into the
    workspace of ``sizes``, and starts no other sweep on the thread.  ``at`` is a batch's first
    index or its ascending indices; batches fold as (value, index) pairs, in any order, and may
    stand in for a tensor that another batch gives, at or above its pair and ``lower``.  Returns
    (min mfrank, its first index), (min sum_franks, its first index), the count of tensors with
    mfrank < ``lower`` and the first of them (or None), none of it depending on ``block``.
    """
    ws = _arena_workspace(sizes)
    best_mf = best_sum = (math.inf, 0)
    violations, first = 0, math.inf
    index = lambda at, i: at + i if isinstance(at, int) else int(at[i])
    try:
        for start in range(0, total, block):
            for at, mfrank, sumrank in ranks(start, min(start + block, total), ws):
                i_mf, i_sum = int(mfrank.argmin()), int(sumrank.argmin())
                best_mf = min(best_mf, (int(mfrank[i_mf]), index(at, i_mf)))
                best_sum = min(best_sum, (int(sumrank[i_sum]), index(at, i_sum)))
                if mfrank[i_mf] < lower:
                    bad = np.flatnonzero(mfrank < lower)
                    violations += bad.size
                    first = min(first, index(at, int(bad[0])))
    finally:  # also when ``ranks`` raises
        if _arena_bytes() > caps.ARENA_KEEP_BYTES:
            _drop_arena()
    return best_mf, best_sum, violations, None if first == math.inf else first


def exhaustive_min_mfrank(a: int, d: int) -> SearchReport:
    """Sweep every GF(2) semi-diagonal tensor on A^d with unit diagonal.

    Mixed entries range over {0,1}; all-distinct entries are 0 and diagonal
    entries 1 (over GF(2) a nonzero diagonal entry is 1, so this loses no
    generality).  Assignment v sets mixed entry t to bit t of v.  Refuses
    populations of more than :data:`flatrank.caps.MAX_FREE_ENTRIES` free
    entries, tensors over the dense cap and chunks whose memory passes the
    workspace cap.  Violations counts assignments with mfrank < ceil(a / (d-1)).
    """
    check_cube(a, d, "tensor")
    f = _mixed_count(a, d)
    caps.admit((f,), f"{a}^{d} exhaustive population", caps.MAX_FREE_ENTRIES, "free entries")
    total = 1 << f
    if f:  # (2,3), (2,4) and (3,3) under the cap, rows of at most 9 columns
        dtype = _row_layout(a, d)[0]
        row = a * d * np.dtype(dtype).itemsize  # the bytes a chunk writes per assignment
        # at least 256 assignments, so that a small budget cannot make more than 2^14 chunks
        chunk = min(total, 1 << max(8, round(math.log2(BLOCK_BYTES / row))))
        # contiguous copies (``BENCH_30.json`` ``contiguous_tables``)
        tables = [_transposed(t, a * d, np.empty((a * d, 256), dtype)) for t in _row_tables(a, d).values()]
        sizes, extra = _exhaustive_sizes(a, d, chunk), sum(t.nbytes for t in tables)
        ranks = lambda start, stop, ws: ((start, *_exhaustive_ranks(a, d, tables, start, stop, ws)),)
    else:  # the identity alone: d = 2, or a = 1
        chunk, sizes, extra, exact = _exact_plan(a, d, total, 1)
        ranks = lambda start, stop, ws: ((start, *exact(np.zeros((1, 1), np.uint64), ws)),)
    nbytes = _Workspace.nbytes(sizes) + extra
    caps.admit((nbytes,), f"{a}^{d} exhaustive chunk of n={chunk} tensors", caps.MAX_WORKSPACE_BYTES, "bytes")
    (best_mf, at_mf), (best_sum, at_sum), violations, _ = _scan_blocks(
        total, chunk, sizes, ranks, -(-a // (d - 1))
    )

    def witness(v: int) -> dict:
        words = np.array([[v]], dtype=np.uint64)
        t = Tensor((a,) * d, GF2, _semidiagonal_block(a, d, GF2, words)[0])
        return {"assignment": v, "tensor": tensor_to_document(t), "franks": flattening_ranks(t)}

    mf = witness(at_mf)  # at d = 2, (2,3), (2,4) and (3,3) both minima fall on one assignment
    sums = mf if at_sum == at_mf else witness(at_sum)

    return SearchReport(
        population=f"semi-diagonal GF(2) tensors, a={a}, d={d}, diagonal fixed to 1",
        count=total,
        min_mfrank=best_mf,
        min_sum_franks=best_sum,
        witnesses=[{"kind": "min_mfrank", **mf}, {"kind": "min_sum_franks", **sums}],
        seed=None,
        violations=violations,
        extra={"free_entries": f},
    )


def _stream_block(
    seed: int, start: int, stop: int, nwords: int, ws: _Workspace | None = None
) -> np.ndarray:
    """First ``nwords`` words of the streams of tensors ``start .. stop-1`` of a sweep.

    They are written into ``ws`` (:func:`_stream_sizes`), or a workspace of their own.
    """
    n = stop - start
    ws = ws or _Workspace(_stream_sizes(n, nwords))
    # the sub-seeds sit in mix's first n items, contiguous, until the words are
    # drawn from them; then mix is the words' scratch
    seeds = sub_seeds_np(seed, start, ws.take("mix", n), ws.take("words", n))
    return stream_words_np(seeds, ws.take("words", n, nwords), ws.take("mix", n, nwords))


def _semidiagonal_words(a: int, d: int, field: FieldDescriptor) -> int:
    """Stream words :func:`_semidiagonal_block` consumes for one tensor."""
    if field.order == 2:
        return max(1, -(-_mixed_count(a, d) // 64))
    return a + _mixed_count(a, d)


def _mixed_bits(words: np.ndarray, f: int) -> np.ndarray:
    """Bit t of word t // 64, for the first ``f`` bits of each row of ``words``."""
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)  # word t // 64, least byte first
    return np.unpackbits(as_bytes, axis=1, count=f, bitorder="little")


@lru_cache(maxsize=None)
def _draw_index(a: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(drawn, shift) of a draw on A^d over a field of order > 2, kept read-only per shape.

    ``drawn`` holds the flat indices of the diagonal and mixed entries, which
    take one stream word each, in flat order; ``shift`` is 1 on the diagonal
    and 0 on mixed entries, as uint64.  With :func:`index_class_arrays` they
    take 8 (a^d + 2 len(drawn)) bytes.
    """
    diag, _, mixed = index_class_arrays(a, d)
    # not np.union1d or np.isin, which import numpy.ma (``BENCH_32.json`` ``search_py_numbers``)
    kind = np.zeros(a**d, np.uint8)
    kind[mixed], kind[diag] = 1, 2
    drawn = np.flatnonzero(kind)
    shift = (kind[drawn] == 2).astype(np.uint64)
    drawn.flags.writeable = shift.flags.writeable = False
    return drawn, shift


def _semidiagonal_block(
    a: int, d: int, field: FieldDescriptor, words: np.ndarray, ws: _Workspace | None = None
) -> np.ndarray:
    """(N, a^d) entries drawn from the (N, nwords) stream ``words``, one tensor per row.

    The draw is the protocol of the module docstring; the entries are in the
    field's narrowest dtype (:func:`flatrank.linalg.entry_dtype`).  Over a
    larger field they are written into ``ws`` (:func:`_field_sizes`), or a
    workspace of their own.
    """
    n = words.shape[0]
    if field.order == 2:  # witnesses and tests only: the GF(2) kernels read the words
        diag, _, mixed = index_class_arrays(a, d)
        entries = np.zeros((n, a**d), dtype=np.uint8)
        entries[:, diag] = 1
        entries[:, mixed] = _mixed_bits(words, mixed.size)
        return entries
    ws = ws or _Workspace(_field_sizes(a, d, n, field))
    entries = ws.take("entries", n, a**d)
    entries.fill(0)
    drawn, shift = _draw_index(a, d)
    modulus = ws.take("modulus", drawn.size)
    np.subtract(np.uint64(field.order), shift, out=modulus)  # diagonal: 1 + w % (q-1); mixed: w % q
    residues = np.remainder(words, modulus, out=ws.take("residues", n, drawn.size))
    residues += shift
    entries[:, drawn] = residues
    return entries


def _block_ranks(
    entries: np.ndarray, a: int, d: int, field: FieldDescriptor, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of each A^d tensor in an (N, a^d) block, one rank call for all axes.

    The field's order is above 2.  Its d flattenings are stacked into ``ws``
    (:func:`_field_sizes`) and ranked there in place.
    """
    n = entries.shape[0]
    grid = entries.reshape((n,) + (a,) * d)
    stack = ws.take("work", d, n, a, a ** (d - 1))
    for ax in range(d):
        np.copyto(stack[ax].reshape(grid.shape), grid.transpose(_axis_order(d + 1, ax + 1, 1)))
    rank = _rank_into(stack.reshape(d * n, a, -1), field, ws)
    return _rank_summary(rank.reshape(d, n), ws)


@lru_cache(maxsize=ARENA_PLANS)
def _field_tensor_bytes(a: int, d: int, field: FieldDescriptor) -> int:
    """Bytes of one tensor on A^d over ``field`` of order > 2 in its largest buffer: no buffer grows faster
    than n, so this sizes the block (GF(2^k)'s clearing-group scratch is capped, so blocks where it is the
    largest fill less)."""
    return _largest_buffer(_field_sizes(a, d, 1, field))


@lru_cache(maxsize=ARENA_PLANS)
def _field_plan(a: int, d: int, n: int, field: FieldDescriptor) -> tuple[dict, int, Callable]:
    """(sizes, nbytes, kernel) of sweep blocks of up to n tensors on A^d over ``field`` of order > 2; kept,
    read-only, as :func:`_block_plan` keeps GF(2)'s.  ``nbytes`` is all the workspace cap counts."""
    nwords = _semidiagonal_words(a, d, field)
    sizes = _field_sizes(a, d, n, field)
    # _draw_index's arrays, the elimination's temporaries and the stream's ramps
    extra = 8 * (a**d + 2 * nwords) + _unplanned_bytes(d * n, a) + _ramp_bytes(n, nwords)
    if field.kind == "binary" and field.k <= 16:  # the log tables and their build, cached or not
        extra += _Workspace.nbytes(_log_table_sizes(field))
    if d > 2:  # the pivot table, which only a clearing step builds
        extra += _pivot_table_bytes(field)
    kernel = lambda words, start, last, ws: (
        (start, *_block_ranks(_semidiagonal_block(a, d, field, words, ws), a, d, field, ws)),
    )
    return sizes, _Workspace.nbytes(sizes) + extra, kernel


def random_semidiagonal_sweep(
    a: int, d: int, count: int, seed: int, field: FieldDescriptor = GF2
) -> SearchReport:
    """Rank statistics over ``count`` random semi-diagonal tensors, tensor j drawn from its stream j.

    Tensors are drawn and ranked in blocks, as the module docstring lays out;
    the report does not depend on the block size.  Shapes over the dense
    cap, sweeps whose memory passes :data:`flatrank.caps.MAX_WORKSPACE_BYTES`,
    and GF(2^k > 16) sweeps with d >= 3 of more than
    :data:`flatrank.caps.MAX_SHIFT_ROUNDS` shift-and-XOR rounds are refused
    before anything of their size is drawn or allocated.  Violations counts
    tensors with mfrank < ceil(a / (d-1)).
    """
    check_cube(a, d, "tensor")
    if count < 1:
        raise ValueError("need count >= 1")
    if d > 2:  # on A^2 a semi-diagonal flattening is diagonal: no step clears
        _check_products(count * d, a, a ** (d - 1), field, f"{a}^{d} sweep of {count} tensors")
    lower = -(-a // (d - 1))
    nwords = _semidiagonal_words(a, d, field)
    if field.order != 2:
        n = min(count, max(1, BLOCK_BYTES // _field_tensor_bytes(a, d, field)))
        sizes, nbytes, kernel = _field_plan(a, d, n, field)
    else:
        n, _, (sizes, nbytes, kernel) = _gf2_plan(a, d, count, nwords)
    caps.admit((nbytes,), f"{a}^{d} sweep block of n={n} tensors", caps.MAX_WORKSPACE_BYTES, "bytes")
    if field.order != 2:
        _draw_index(a, d)  # built before the workspaces, not on top of them
    draw = lambda start, stop, ws: _stream_block(seed, start, stop, nwords, ws)
    ranks = lambda start, stop, ws: kernel(draw(start, stop, ws), start, stop == count, ws)
    (min_mf, _), (min_sum, _), violations, first_violation = _scan_blocks(
        count, n, sizes, ranks, lower
    )

    witnesses = []
    if first_violation is not None:
        words = _stream_block(seed, first_violation, first_violation + 1, nwords)
        t = Tensor((a,) * d, field, _semidiagonal_block(a, d, field, words)[0])
        witnesses.append(
            {"kind": "violation", "index": first_violation, "tensor": tensor_to_document(t)}
        )
    return SearchReport(
        population=f"random semi-diagonal tensors over {field}, a={a}, d={d}",
        count=count,
        min_mfrank=min_mf,
        min_sum_franks=min_sum,
        witnesses=witnesses,
        seed=seed,
        violations=violations,
        extra={"required_min_mfrank": lower},
    )


def random_cross_oddtown_search(n: int, d: int, budget: int, rng: Rng) -> SearchReport:
    """Greedy growth of cross-Oddtown families; reports the largest found.

    The first growth pass walks the repeated-singleton members (the known
    extremal family), the remaining budget proposes uniform random tuples.
    The reported size can therefore reach, and never exceeds, (d-1)*n: once
    it is reached every further tuple would be refused, so none is drawn.
    The family reaches m = min(budget, (d-1)n) members, so the m^d grid of
    its final check and its m*d*ceil(n/64) limbs are checked against the
    dense cap before any tuple is tested.  The pairwise-distinct m^(d-1)
    grid that every test reads a corner of is built once.
    """
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    bound = cross_oddtown_bound(n, d)
    m, width = min(budget, bound), -(-n // 64)  # limbs of every mask, all below 2^n
    caps.grid_shape(m, d)
    limbs = np.empty(caps.admit((m, d, width), f"limbs of {m} members"), np.uint64).reshape(m, d, width)
    distinct = distinct_cells(m, d - 1)  # each test reads the corner of its members
    singletons = repeated_singleton_family(min(n, -(-m // (d - 1))), d).members
    members: list[tuple[int, ...]] = []
    for attempt in range(budget):
        if len(members) == bound:
            break
        draw = attempt >= len(singletons)
        tup = tuple(rng.next_below(1 << n) for _ in range(d)) if draw else singletons[attempt]
        if try_extend_cross_oddtown(limbs[: len(members)], tup, d, distinct):
            limbs[len(members)] = _slot_limbs([tup], d, width)[0]
            members.append(tup)
    fam = TupleFamily(n=n, d=d, members=tuple(members))
    if members and not is_cross_oddtown(fam):
        raise AssertionError("greedy growth produced a non-cross-Oddtown family")
    if len(members) > bound:
        raise AssertionError("found a family exceeding the (d-1)n bound; implementation bug")
    return SearchReport(
        population=f"random cross-Oddtown growth, n={n}, d={d}",
        count=budget,
        min_mfrank=None,
        min_sum_franks=None,
        witnesses=[{"kind": "largest_family", "members": [list(t) for t in members]}] if members else [],
        seed=rng.seed,
        extra={"largest_size": len(members), "bound": bound},
    )
