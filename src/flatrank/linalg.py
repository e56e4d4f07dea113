"""Exact rank kernels over finite fields.

:func:`matrix_rank` is the one exact-rank entry point.  It takes an
``(N, r, c)`` stack of canonical entries, as :mod:`flatrank.tensor` builds
it from a :class:`~flatrank.tensor.Tensor`, which has already checked them,
and never modifies it.  Over a field of order > 2 it first drops the columns
that are zero in every matrix of the stack, if that drops at least half of
them; then it eliminates along the short side (rank is
transpose-invariant), so its pivot loop runs ``min(r, c)`` times.  A GF(2)
stack is read as it is, with no workspace.  Off that path and the byte-row
path below, it copies the stack once, in the kernel's own dtype, into a
:class:`_Workspace` of its own, and ranks the copy in place with
:func:`_rank_into`, which the sweeps over larger fields call on stacks they
build in theirs.  :func:`_elimination_sizes` is the plan of that workspace
and :func:`_unplanned_bytes` bounds what the kernels allocate besides, so a
caller's cap counts both.  Each thread keeps one arena, an anonymous
mapping that sweeps and document reads carve their workspaces from
(:func:`_arena_workspace`).

* GF(2): rows packed with numpy into ints used as bit-vectors
  straight from the caller's array (:func:`_rank_gf2`), reduced per matrix by
  :func:`rank_gf2_bitrows` (word-wide XOR).  The GF(2) sweeps rank with
  kernels of their own (:mod:`flatrank.search`).
* GF(p), 3 <= p <= 127, and GF(2^k), 2 <= k <= 8, in a batch of at most
  :data:`BYTE_ROW_ENTRIES` entries and :data:`BYTE_ROW_ROWS` rows: each
  matrix is reduced on its own by :func:`_rank_byte_rows`, the same loop on
  ints whose bytes are the entries.  A pivot row is scaled by
  ``bytes.translate`` with a 256-byte table per scalar, built once per field
  on first use, and added by one int XOR (GF(2^k)) or by one int addition
  and a translate back to the residues (GF(p)).  Only calls of
  :func:`matrix_rank` take this path; sweeps rank through :func:`_rank_into`.
* Every other GF(p), p odd prime, and GF(2^k), k >= 2: :func:`_eliminate`
  runs on the whole batch at once.  Step k takes row k, already cleared by
  every earlier pivot row: a zero row is dependent, otherwise its first
  nonzero column becomes a pivot and is cleared from the rows below it.  A
  step where no row below has an entry in its matrix's pivot column clears
  nothing, so it is skipped; sparse tensors' flattenings skip most steps.
* GF(p) reduces lazily, in the narrowest unsigned dtype that holds the
  entries (:func:`_lazy_plan`).  Step k reduces only the pivot row, and the
  pivot column of the rows below, which it divides by the pivot and negates
  mod p; adding that multiple of the pivot row then grows an entry by at most
  (p-1)^2.  The rows below are reduced only when the next step could
  overflow: for p = 3 or 5 and up to 8 rows never, in uint8; for p near 2^31
  every fourth step, in uint64.  Only steps that clear are counted: a skipped
  step grows no entry.  Reductions use floor division, which numpy
  vectorises for a scalar divisor where ``%`` is a scalar loop.  Below
  :data:`INVERSE_TABLE_PRIMES` the pivots' inverses are read from a table of
  all p of them (:func:`_inverse_table`, built once per prime); above it they
  are x^(p-2), by a loop of squarings (:func:`_inverse_mod`).
* GF(2^k), k <= 16, stores entries in uint8 (k <= 8) or uint16 and multiplies
  through :func:`flatrank.field.discrete_log_tables`: log 0 is a sentinel
  whose sums land in a zero tail of the extended exp table, so zero factors
  and entries need no mask.  A step reads -log of its pivots from a table
  built once per field from the log table (:func:`_neg_log_table`).
* GF(2^k), k > 16, stores entries in uint32 (k <= 32) or uint64 and
  multiplies by shift and XOR (:func:`flatrank.field.binary_mul_add`), k
  rounds of numpy calls.  A step takes no inverse: it replaces each row
  below by pivot * row + factor * pivot row; a zero pivot comes with a zero
  pivot row, and scales by 1.
  :func:`_check_products` refuses a call whose n r^2 c multiplications of k
  rounds, for n (r, c) matrices, add up to more than
  :data:`flatrank.caps.MAX_SHIFT_ROUNDS`.
"""

from __future__ import annotations

import math
import mmap
import threading
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import caps
from .field import FieldDescriptor, _log_table_sizes, binary_mul_add, discrete_log_tables

__all__ = [
    "rank_gf2_bitrows",
    "matrix_rank",
    "entry_dtype",
]

# Entries of the rows below that one GF(2^k) clearing group covers: its intp
# gather indices, or each of its uint64 shift-and-XOR buffers, take 256 KB.
GATHER_ENTRIES = 1 << 15

# primes below which GF(p) pivots are inverted through a table of all p inverses
INVERSE_TABLE_PRIMES = 1 << 16

# the largest batch, in entries and in rows (n r), that :func:`matrix_rank`
# ranks one matrix at a time as byte rows (:func:`_rank_byte_rows`) over a
# field of byte entries.  Byte rows pay about one Python-level row clear per
# row and pivot, the batched kernel a dozen numpy calls per pivot step.  On
# 1,444 random full-rank batch shapes over GF(3), GF(31), GF(127), GF(4) and
# GF(2^8), byte rows took a median 0.27 of the batched time within both
# bounds (at most 1.38), and a median 1.08, up to 4.9, outside them.
BYTE_ROW_ENTRIES = 1 << 12
BYTE_ROW_ROWS = 48

# Plans whose workspaces a thread keeps carved from its arena
ARENA_PLANS = 16


class _Workspace:
    """The buffers of one caller's kernels, allocated once and reused.

    ``sizes`` maps each buffer's name to its item count and dtype at the
    largest call, as the ``*_sizes`` functions give them; :meth:`take` hands
    a kernel a view of a buffer's first items.  A kernel's results are views
    into its workspace, valid until its next call.  Each buffer is an array
    of its own, or, given a writable ``backing`` of at least :meth:`nbytes`
    bytes, a view carved from it at a 64-byte-aligned offset.  A carved
    buffer holds whatever its backing held last.  A size ``(count, dtype,
    host)`` takes no memory of its own: the buffer is the first bytes of
    buffer ``host``, which its kernels leave free while they use it.
    """

    def __init__(self, sizes: dict[str, tuple], backing=None):
        own = {name: size for name, size in sizes.items() if len(size) == 2}
        if backing is None:
            self._buffers = {name: np.empty(count, dtype) for name, (count, dtype) in own.items()}
        else:
            self._buffers, start = {}, 0
            for name, (count, dtype) in own.items():
                self._buffers[name] = np.ndarray(count, dtype, backing, start)
                start += -(-self._buffers[name].nbytes // 64) * 64
        for name, (count, dtype, *host) in sizes.items():
            if host:  # a TypeError if the host is too small
                self._buffers[name] = np.ndarray(count, dtype, self._buffers[host[0]])

    @staticmethod
    def nbytes(sizes: dict[str, tuple]) -> int:
        """Bytes of a backing of ``sizes``: each buffer's, rounded up to a multiple of 64."""
        return sum(
            -(-count * np.dtype(dtype).itemsize // 64) * 64
            for count, dtype, *host in sizes.values()
            if not host
        )

    def take(self, name: str, *shape: int) -> np.ndarray:
        """The first ``prod(shape)`` items of buffer ``name``, in that shape."""
        return self._buffers[name][: math.prod(shape)].reshape(shape)

    def part(self, prefix: str) -> _Workspace:
        """The buffers named ``prefix + name``, as a workspace whose names drop the prefix."""
        part = _Workspace({})
        part._buffers = {
            name[len(prefix) :]: buf for name, buf in self._buffers.items() if name.startswith(prefix)
        }
        return part


class _Arena(threading.local):
    """The scratch of one thread's sweeps and document reads: one anonymous
    mapping, kept between calls, and the workspaces carved from it, one per plan."""

    def __init__(self):
        self.map: mmap.mmap | None = None
        self.carved: dict[tuple, _Workspace] = {}


_arena = _Arena()


def _arena_workspace(sizes: dict[str, tuple]) -> _Workspace:
    """A workspace of ``sizes`` carved from the calling thread's arena.

    The arena lies outside glibc's heap, so its mmap threshold never moves,
    and every carved workspace starts at its first byte: a plan's buffers
    hold whatever the last plan left.  A plan larger than the arena, already
    admitted, replaces it; the old mapping is dropped before the new one is
    mapped.  A plan's workspace is carved once and kept with the arena, up to
    :data:`ARENA_PLANS` of them, since carving costs more than allocating
    (``BENCH_32.json`` ``search_py_numbers``).
    """
    key = tuple(sizes.items())
    ws = _arena.carved.get(key)
    if ws is None:
        nbytes = _Workspace.nbytes(sizes)
        if _arena_bytes() < nbytes:
            _drop_arena()
            _arena.map = mmap.mmap(-1, nbytes)
        if len(_arena.carved) == ARENA_PLANS:
            _arena.carved.clear()
        ws = _arena.carved[key] = _Workspace(sizes, _arena.map)
    return ws


def _arena_bytes() -> int:
    """Bytes the calling thread's arena maps: 0 before its first carve."""
    return 0 if _arena.map is None else len(_arena.map)


def _drop_arena() -> None:
    """Drop the calling thread's arena: it is unmapped once nothing holds a view of it."""
    _arena.carved.clear()
    _arena.map = None


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


def _byte_row_field(field: FieldDescriptor) -> bool:
    """True for the fields of :func:`_rank_byte_rows`: GF(p), 3 <= p <= 127, and GF(2^k), 2 <= k <= 8."""
    if field.kind == "prime":
        return 3 <= field.p <= 127
    return 2 <= field.k <= 8


@lru_cache(maxsize=None)
def _byte_tables(field: FieldDescriptor) -> tuple[tuple[bytes, ...], tuple[bytes, ...], bytes | None]:
    """(scale, pivot, residue) ``bytes.translate`` tables of a :func:`_byte_row_field`.

    ``scale[s]`` maps each entry x to s x.  ``pivot[s]`` scales a row whose
    first nonzero entry is s to the form it is kept in as a pivot row: that
    entry becomes 1 over GF(2^k), which clears a row by XOR, and -1 over
    GF(p), which clears it by addition.  ``residue`` maps each byte to its
    residue mod p (None over GF(2^k)).  Bytes past the field's order map to
    0; none is ever looked up.  Built once per field, on first use.
    """
    q = field.order
    if field.kind == "prime":
        xs = np.arange(256)
        scale = tuple((s * xs % q).astype(np.uint8).tobytes() for s in range(q))
        residue = (xs % q).astype(np.uint8).tobytes()
        unit = q - 1
    else:
        exp, log = discrete_log_tables(field)
        logs = log.astype(np.intp)
        pad = bytes(256 - q)
        scale = tuple(exp[logs + logs[s]].tobytes() + pad for s in range(q))
        residue, unit = None, 1
    pivot = tuple(scale[scale[s].index(unit)] if s else b"" for s in range(q))
    return scale, pivot, residue


def _rank_byte_rows(m: np.ndarray, field: FieldDescriptor) -> np.ndarray:
    """int64 ranks of an (N, r, c) batch of canonical entries of a :func:`_byte_row_field`.

    Each matrix is eliminated on its own, as :func:`rank_gf2_bitrows` does:
    a row is an int whose big-endian bytes are its entries, reduced by the
    pivot row of its first nonzero column until it is zero or holds a new
    pivot.  A pivot row is scaled by ``bytes.translate`` (:func:`_byte_tables`)
    and added to the row by one int XOR over GF(2^k); over GF(p) by one int
    addition, whose sums of two residues stay below 256 for p <= 127, so no
    byte carries, and one translate back to the residues.
    """
    n, r, c = m.shape
    scale, pivot, residue = _byte_tables(field)
    data = m.astype(np.uint8).tobytes()
    from_bytes = int.from_bytes
    ranks = np.zeros(n, dtype=np.int64)
    for i in range(n):
        pivots: dict[int, bytes] = {}
        for j in range(i * r * c, (i + 1) * r * c, c):
            v = from_bytes(data[j : j + c], "big")
            while v:
                shift = (v.bit_length() - 1) & ~7  # of the first nonzero entry
                lead = v >> shift
                p = pivots.get(shift)
                if p is None:
                    pivots[shift] = v.to_bytes(c, "big").translate(pivot[lead])
                    break
                if residue is None:
                    v ^= from_bytes(p.translate(scale[lead]), "big")
                else:
                    v += from_bytes(p.translate(scale[lead]), "big")
                    v = from_bytes(v.to_bytes(c, "big").translate(residue), "big")
        ranks[i] = len(pivots)
    return ranks


def entry_dtype(field: FieldDescriptor) -> np.dtype:
    """Narrowest unsigned dtype holding the field's canonical representatives."""
    return np.min_scalar_type(field.order - 1)


def _rank_gf2(m: np.ndarray) -> np.ndarray:
    """0/1 rows packed with numpy into ints (bit c = column c), then XOR-reduced per matrix."""
    n, r, _ = m.shape
    packed = np.packbits(m, axis=2, bitorder="little")
    width = packed.shape[2]
    data = packed.tobytes()
    rows = [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    return np.array([rank_gf2_bitrows(rows[i : i + r]) for i in range(0, n * r, r)], dtype=np.int64)


def _elimination_sizes(n: int, r: int, c: int, field: FieldDescriptor) -> dict[str, tuple[int, type]]:
    """Workspace of :func:`_rank_into` for n (r, c) matrices over ``field`` of order > 2, r <= c.

    ``work`` holds the matrices, in the dtype they are eliminated in; what
    the kernels allocate besides is :func:`_unplanned_bytes`.
    """
    prime = field.kind == "prime"
    dtype = _lazy_plan(field.p, r)[0] if prime else entry_dtype(field)
    sizes = {"work": (n * r * c, dtype), "rank": (n, np.int64), "mask": (n * c, np.bool_)}
    if prime:
        return sizes | {"prod": (n * max(r - 1, 1) * c, dtype)}
    return sizes | _gf2k_sizes(n, r, c, field)


def _unplanned_bytes(n: int, r: int) -> int:
    """At most the bytes :func:`_rank_into` allocates outside its plan.

    Each step's pivot columns, pivots and factors are at most four (N, r)
    arrays of 8-byte items at a time.  A numpy call that casts buffers up to
    8192 items (``np.getbufsize()``) of each of up to three 8-byte operands;
    with the call's Python objects that is under 256 KiB.
    """
    return 32 * n * r + (256 << 10)


def _eliminate(m: np.ndarray, ws: _Workspace, settle, clear) -> np.ndarray:
    """Ranks of a C-contiguous (N, r, c) batch, eliminated in place row by row, into ``ws``.

    Entries are unsigned.  ``settle(row)`` makes row k of every matrix
    canonical, in place.  ``clear(below, factor, row, pivot)`` then zeroes
    the pivot column of the rows ``below`` (whose entries there are
    ``factor``) using ``row``, in place, without changing their span; a zero
    ``row`` comes with ``pivot`` 0 and must leave them as they are.  A step
    whose factors are all zero has nothing to clear and skips ``clear``.
    """
    n, r, c = m.shape
    batch = np.arange(n)
    mask, rank = ws.take("mask", n, c), ws.take("rank", n)
    rank.fill(0)
    for k in range(r):
        row = m[:, k]
        settle(row)
        pc = np.greater(row, 0, out=mask).argmax(axis=1)
        piv = row[batch, pc]
        has = piv > 0
        rank += has
        if k + 1 < r and has.any():
            below = m[:, k + 1 :]
            factor = below[batch, :, pc]
            if factor.any():  # else every row below is already clear there
                clear(below, factor, row, piv)
    return rank


def _reduce(x: np.ndarray, p: int, q: np.ndarray) -> np.ndarray:
    """``x`` mod p, in place, with ``q`` as scratch of its shape and dtype.

    Exact even where ``(x // p) * p`` wraps around.
    """
    np.floor_divide(x, p, out=q)
    q *= p
    x -= q
    return x


@lru_cache(maxsize=None)
def _lazy_plan(p: int, r: int) -> tuple[type, int]:
    """(dtype, period) of GF(p) elimination with ``r`` pivot steps.

    Entries start in [0, p) and each step adds at most (p-1)^2, so after
    ``period`` steps without a reduction they stay below p + period (p-1)^2.
    The dtype is the narrowest unsigned one where that holds for all r-1
    clearing steps; only uint64 (p near 2^31) needs a reduction every
    ``period`` steps.
    """
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        period = (int(np.iinfo(dtype).max) - (p - 1)) // (p - 1) ** 2
        if period >= r - 1:
            break
    return dtype, period


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p elementwise for ``x`` in [0, p): the inverse, and 0 for 0.

    ``x``'s dtype holds (p-1)^2.
    """
    out, q = np.ones_like(x), np.empty_like(x)
    e = p - 2
    while e:
        if e & 1:
            out *= x
            _reduce(out, p, q)
        x = _reduce(x * x, p, q)
        e >>= 1
    return out


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> np.ndarray:
    """Read-only inverses mod p, p < :data:`INVERSE_TABLE_PRIMES`: entry x is 1/x, and 0 for 0.

    It is built once per prime, by :func:`_inverse_mod` on [0, p) in uint32,
    which holds (p-1)^2, and kept in the narrowest dtype holding p - 1;
    :func:`_pivot_table_bytes` counts it and its build.
    """
    table = _inverse_mod(np.arange(p, dtype=np.uint32), p).astype(np.min_scalar_type(p - 1))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _neg_log_table(field: FieldDescriptor) -> np.ndarray:
    """Read-only -log x mod (q-1), in [1, q-1], for every x of GF(2^k <= 16); 1 for x = 0.

    Built once per field from :func:`flatrank.field.discrete_log_tables`;
    :func:`_pivot_table_bytes` counts it and its build.
    """
    order_m1 = field.order - 1
    table = (order_m1 - discrete_log_tables(field)[1] % order_m1).astype(entry_dtype(field))
    table.flags.writeable = False
    return table


def _pivot_table_bytes(field: FieldDescriptor) -> int:
    """Bytes of the pivot table that the first clearing step over ``field`` builds, with its build.

    Besides the table, :func:`_inverse_table` holds at most four uint32
    arrays of p items and :func:`_neg_log_table` two of q items in the log
    table's dtype.  Other fields build none.
    """
    if field.kind == "prime" and 2 < field.p < INVERSE_TABLE_PRIMES:
        return field.p * (4 * 4 + entry_dtype(field).itemsize)
    if field.kind == "binary" and 2 < field.order <= 1 << 16:
        logs = np.dtype(_log_table_sizes(field)["log"][1]).itemsize
        return field.order * (2 * logs + entry_dtype(field).itemsize)
    return 0


def _rank_mod_p(m: np.ndarray, p: int, ws: _Workspace) -> np.ndarray:
    n, r, c = m.shape
    period = _lazy_plan(p, r)[1]
    pending = 0  # clearing steps since the rows below were last reduced

    def clear(below, factor, row, piv):
        nonlocal pending
        # row_j += (-factor_j / piv) * row, the multiplier taken mod p: entries
        # only grow, and stay nonnegative
        q = ws.take("prod", *factor.shape)
        scale = _reduce(factor, p, q)
        np.subtract(p, scale, out=scale)
        inverse = _inverse_table(p)[piv] if p < INVERSE_TABLE_PRIMES else _inverse_mod(piv, p)
        scale *= inverse[:, None]
        _reduce(scale, p, q)
        prod = ws.take("prod", *below.shape)
        np.multiply(scale[:, :, None], row[:, None, :], out=prod)
        below += prod
        pending += 1
        if pending == period and below.shape[1] > 1:
            _reduce(below, p, prod)
            pending = 0

    q_row = ws.take("prod", n, c)
    return _eliminate(m, ws, lambda row: _reduce(row, p, q_row), clear)


def _gf2k_sizes(n: int, r: int, c: int, field: FieldDescriptor) -> dict[str, tuple[int, type]]:
    """Scratch of :func:`_rank_gf2k`'s clearing groups for n (r, c) matrices over ``field``."""
    dtype = entry_dtype(field)
    # the most one clearing group takes in a batch of at most n matrices
    group = (min(n * c * max(r - 1, 1), max(n * c, GATHER_ENTRIES)), dtype)
    if field.k <= 16:
        logs = _log_table_sizes(field)["log"][1]
        return {"logrow": (n * c, logs), "gather": (group[0], np.intp), "prod": group}
    return {"prod": group, "bits": group, "term": group, "shift": (2 * n * max(r - 1, 1), dtype)}


def _rank_gf2k(m: np.ndarray, field: FieldDescriptor, ws: _Workspace) -> np.ndarray:
    n, r, c = m.shape
    # the rows below are cleared in groups of at most GATHER_ENTRIES entries, or
    # one row of every matrix, so that a group's scratch stays in the cache
    step = max(1, GATHER_ENTRIES // (n * c))
    if field.k > 16:

        def clear(below, factor, row, piv):
            # row_j <- piv row_j + factor_j row, which takes no inverse; a zero row
            # comes with pivot 0, which scales by 1 to leave the rows as they are
            piv = piv + (piv == 0)
            for j in range(0, below.shape[1], step):
                part = below[:, j : j + step]
                out, term = ws.take("prod", *part.shape), ws.take("term", *part.shape)
                out.fill(0)
                factors = factor[:, j : j + step, None]
                for x, y in ((piv[:, None, None], part), (factors, row[:, None, :])):
                    shift, bits = ws.take("shift", 2, *x.shape), ws.take("bits", *y.shape)
                    binary_mul_add(out, x, y, field, shift, bits, term)
                np.copyto(part, out)

        return _eliminate(m, ws, lambda row: None, clear)
    exp, log = discrete_log_tables(field)

    def clear(below, factor, row, piv):
        # log(factor / piv) + (q-1) or less, so a sum with a nonzero entry's log
        # stays under the sentinel; a zero factor's sums pass exp's end, where
        # "clip" reads its last entry, 0.  A zero pivot comes with a zero row,
        # whose sentinel logs zero every product
        neg = _neg_log_table(field)[piv]  # -log piv, in [1, q-1]
        scale = log[factor]
        scale += neg[:, None]
        log_row = ws.take("logrow", n, c)
        index = ws.take("gather", n, c)  # intp: numpy copies any other index dtype
        np.copyto(index, row)
        np.take(log, index, out=log_row, mode="clip")
        for j in range(0, below.shape[1], step):
            part = below[:, j : j + step]
            idx = ws.take("gather", *part.shape)
            np.add(scale[:, j : j + step, None], log_row[:, None, :], out=idx)
            part ^= exp.take(idx, out=ws.take("prod", *part.shape), mode="clip")

    return _eliminate(m, ws, lambda row: None, clear)


def _check_products(n: int, r: int, c: int, field: FieldDescriptor, what: str) -> None:
    """Refuse ranking n (r, c) matrices, r <= c, over GF(2^k > 16) past the shift-round cap.

    ``n r^2 c`` bounds the multiplications of their elimination, each k
    rounds of shift and XOR; it is checked before anything is drawn or
    allocated.  Sweeps on A^2 skip it: a semi-diagonal tensor's flattening
    is then diagonal, so no step clears.
    """
    if field.kind == "binary" and field.k > 16:
        caps.admit((n, r, r, c, field.k), what, caps.MAX_SHIFT_ROUNDS, "rounds")


def _rank_into(m: np.ndarray, field: FieldDescriptor, ws: _Workspace) -> np.ndarray:
    """int64 ranks, in ``ws``, of an (N, r, c) batch of canonical entries, 1 <= r <= c, order > 2.

    ``ws`` holds :func:`_elimination_sizes` for that shape, and ``m`` is its
    ``work``, eliminated in place.
    """
    if field.kind == "prime":
        return _rank_mod_p(m, field.p, ws)
    return _rank_gf2k(m, field, ws)


def matrix_rank(stack: np.ndarray, field: FieldDescriptor) -> np.ndarray:
    """int64 ranks over ``field`` of an ``(N, r, c)`` integer stack of canonical entries.

    Over a field of order > 2, the columns that are zero in every matrix of
    the stack are dropped first, if that drops at least half of them: a zero
    column never changes a rank, and a sparse tensor's flattenings have few
    live columns (a scaled permutation tensor on A^d, at most d a of
    a^(d-1)).  The GF(2) kernel packs rows into bits, where the check costs
    more than it saves.
    """
    if field.order > 2:
        live = np.bitwise_or.reduce(stack, axis=(0, 1)) > 0
        if 2 * np.count_nonzero(live) <= live.size:
            stack = np.compress(live, stack, axis=2)
    if stack.shape[1] > stack.shape[2]:
        stack = stack.transpose(0, 2, 1)
    n, r, c = stack.shape
    _check_products(n, r, c, field, f"rank of {n} {r}x{c} matrices")
    if stack.size == 0:
        return np.zeros(n, dtype=np.int64)
    if field.order == 2:
        return _rank_gf2(stack)
    if stack.size <= BYTE_ROW_ENTRIES and n * r <= BYTE_ROW_ROWS and _byte_row_field(field):
        return _rank_byte_rows(stack, field)
    ws = _Workspace(_elimination_sizes(n, r, c, field))
    work = ws.take("work", n, r, c)
    np.copyto(work, stack, casting="unsafe")
    return _rank_into(work, field, ws).copy()
