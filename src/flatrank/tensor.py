"""Dense tensors over a finite field and their flattening ranks.

A d-dimensional tensor on axis sizes (a_0, ..., a_{d-1}) stores its entries
row-major as canonical integer representatives.  Flattening along axis i views
the tensor as a matrix whose rows are indexed by axis i and whose columns run
mixed-radix over the remaining axes in their original order, least-significant
axis last (i.e. exactly numpy's ``moveaxis(arr, i, 0).reshape(rows, -1)``).
That column encoding is part of the file-format contract.

Also provides the two extremal semi-diagonal constructions: the block
partition tensor whose every flattening rank equals ceil(a / (d-1)), and the
axis-constant tensor whose chosen flattening rank collapses to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Callable

import numpy as np

from . import caps
from .field import FieldDescriptor
from .linalg import _canonical, entry_dtype, matrix_rank

__all__ = [
    "Tensor",
    "flattening_rank",
    "flattening_ranks",
    "max_flattening_rank",
    "is_semi_diagonal",
    "semi_diagonal_faults",
    "distinct_cells",
    "partition_construction",
    "axis_constant_construction",
]

def _bounded_search(root, children: Callable, depth: int, what: str) -> list | None:
    """The steps of the first path ``depth`` levels down from ``root``, depth first, or None.

    ``children(node, level)`` yields the ``(step, child)`` pairs of a node
    ``level`` steps below the root, in the order to try them.  Open nodes
    are kept on an explicit stack, so the depth is not bounded by Python's
    recursion limit.  A search that would visit more than
    :data:`flatrank.caps.MAX_SEARCH_NODES` nodes, the root included, is
    refused (ValueError, naming ``what``) when it gets there.
    """
    path, frames, node = [], [], root  # frames: the untried children of each open node, deepest last
    cap = caps.MAX_SEARCH_NODES
    for _ in range(cap):
        if len(path) == depth:
            return path
        frames.append(children(node, len(path)))
        while (child := next(frames[-1], None)) is None:  # back up to an open node
            frames.pop()
            if not frames:
                return None
            path.pop()
        step, node = child
        path.append(step)
    # the search reached node cap + 1: the factor 1 left unread makes the need read "at least"
    caps.admit((cap + 1, 1), what, cap, "nodes")


def integer_array(values, what: str) -> np.ndarray:
    """The sequence ``values`` as a fresh int64 array; anything but integers is rejected, never coerced.

    Booleans, floats, strings and nulls raise ValueError, as do integers
    outside the int64 range.
    """
    bad = {t.__name__ for t in set(map(type, values)) if t is bool or not issubclass(t, (int, np.integer))}
    if bad:
        raise ValueError(f"{what} must be integers, got {', '.join(sorted(bad))}")
    try:
        return np.array(values, dtype=np.int64).reshape(-1)
    except OverflowError:
        raise ValueError(f"{what} exceed the int64 range") from None


def check_entries(values: np.ndarray, field: FieldDescriptor) -> None:
    """Refuse an integer array with an entry outside [0, field order), read in its own dtype."""
    if not _canonical(values, field.order):
        bad = values.reshape(-1)[np.flatnonzero((values < 0) | (values >= field.order))[0]]
        raise ValueError(f"entry {int(bad)} is not canonical in {field}")


@dataclass(frozen=True, eq=False)
class Tensor:
    """Immutable dense tensor; ``entries[flat]`` with row-major flat indexing.

    ``entries`` is a read-only 1-D array of canonical representatives in the
    field's narrowest dtype (:func:`flatrank.linalg.entry_dtype`), the dtype
    every rank kernel reads.  An integer array is checked once, in its own
    dtype; one that is already in that dtype, owns its data and is read-only,
    as the constructions, the chain grids and the document reader build
    them, is kept as it is.  Anything else is cast once, so no caller's
    array turns read-only or can change the tensor.
    """

    dims: tuple[int, ...]
    field: FieldDescriptor
    entries: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(self.dims)
        if len(dims) < 1 or any(type(a) is not int or a < 1 for a in dims):
            raise ValueError(f"dims must be positive integers, got {dims}")
        size = caps.admit(dims, "tensor")
        entries = self.entries
        if not isinstance(entries, np.ndarray):
            entries = integer_array(entries, "tensor entries")
        elif entries.dtype.kind not in "iu":
            raise ValueError(f"tensor entries must be integers, got dtype {entries.dtype}")
        if entries.size != size:
            raise ValueError(f"expected {size} entries, got {entries.size}")
        check_entries(entries, self.field)
        dtype = entry_dtype(self.field)
        if entries.dtype != dtype or entries.base is not None or entries.flags.writeable:
            entries = _frozen(entries.astype(dtype))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries.reshape(-1))  # a view, read-only as its base is

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the entries with shape ``dims``."""
        return self.entries.reshape(self.dims)

    @classmethod
    def from_array(cls, arr: np.ndarray, field: FieldDescriptor) -> "Tensor":
        return cls(tuple(int(a) for a in arr.shape), field, arr)


def _check_axis(t: Tensor, axis: int) -> None:
    if not 0 <= axis < t.ndim:
        raise IndexError(f"axis {axis} out of range for a {t.ndim}-dimensional tensor")


@lru_cache(maxsize=None)
def _axis_order(ndim: int, source: int, destination: int = 0) -> tuple[int, ...]:
    """Axes that ``transpose`` takes to move axis ``source`` of ``ndim`` to ``destination``.

    ``arr.transpose(_axis_order(arr.ndim, s, t))`` is the view
    ``np.moveaxis(arr, s, t)``, without its checks of the axes: 0.35 us a
    call on a 3x3x3 array, against 5.8 us.
    """
    order = [i for i in range(ndim) if i != source]
    order.insert(destination, source)
    return tuple(order)


def _flattening(t: Tensor, axis: int) -> np.ndarray:
    _check_axis(t, axis)
    return t.array.transpose(_axis_order(t.ndim, axis)).reshape(t.dims[axis], -1)


def _stack_ranks(stack: np.ndarray, field: FieldDescriptor) -> list[int]:
    """Ranks of an ``(N, r, c)`` stack of flattenings.

    Over a field of order > 2, the columns that are zero in every matrix of
    the stack are dropped first, if that drops at least half of them: a zero
    column never changes a rank.  A sparse tensor's flattenings have few live
    columns (a scaled permutation tensor on A^d, at most d a of a^(d-1)).
    The GF(2) kernel packs rows into bits, where the check costs more than
    it saves.
    """
    if field.order > 2:
        live = np.bitwise_or.reduce(stack, axis=(0, 1)) > 0
        if 2 * np.count_nonzero(live) <= live.size:
            stack = np.compress(live, stack, axis=2)
    return matrix_rank(stack, field).tolist()


def flattening_rank(t: Tensor, axis: int) -> int:
    """Exact rank of the axis-``axis`` flattening over the tensor's field."""
    return _stack_ranks(_flattening(t, axis)[None], t.field)[0]


def flattening_ranks(t: Tensor) -> list[int]:
    """Rank of every flattening, in axis order.

    A matrix's two flattenings are transposes, so one is ranked.  The d
    flattenings of a cubical tensor share one shape and are ranked as one
    ``(d, a, a^(d-1))`` batch, without the columns that are zero in all of
    them (:func:`_stack_ranks`), while its d a^d entries are within the dense
    cap; past it, and for other shapes, one axis at a time.
    """
    if t.ndim == 2:
        return [flattening_rank(t, 0)] * 2
    if any(a != t.dims[0] for a in t.dims) or t.ndim * t.entries.size > caps.MAX_ENTRIES:
        return [flattening_rank(t, i) for i in range(t.ndim)]
    stack = np.empty((t.ndim, t.dims[0], t.entries.size // t.dims[0]), dtype=t.entries.dtype)
    for i in range(t.ndim):  # copied once, into a view of the flattening's rows
        np.copyto(stack[i].reshape(t.dims), t.array.transpose(_axis_order(t.ndim, i)))
    return _stack_ranks(stack, t.field)


def max_flattening_rank(t: Tensor) -> int:
    return max(flattening_ranks(t))


def is_semi_diagonal(t: Tensor) -> bool:
    """Nonzero on every constant multi-index, zero on every all-distinct one.

    Mixed multi-indices are unconstrained.  When d exceeds the axis size there
    are no all-distinct tuples, so only the diagonal is checked.
    """
    if t.dims.count(t.dims[0]) != t.ndim:
        raise ValueError(f"operation requires a cubical tensor, got dims {t.dims}")
    return semi_diagonal_faults(t.array) == (None, None)


def semi_diagonal_faults(cells: np.ndarray) -> tuple[int | None, tuple[int, ...] | None]:
    """Where the A^d grid ``cells`` fails to be semi-diagonal, or (None, None).

    The first value is the a of the first constant cell (a, ..., a) that is
    zero; the second is the index of the first pairwise-distinct cell, in C
    order, that is nonzero.  Either is None when there is no such cell.  The
    diagonal is read as a strided view of ``cells``, which callers pass in
    C order (any other layout is copied first).
    """
    a, d = cells.shape[0], cells.ndim
    cell = None
    if a >= d:  # else no cell is pairwise distinct
        hits = np.logical_and(cells, distinct_cells(a, d))
        first = int(hits.argmax())  # the first hit in C order; cell 0 when there is none
        if hits.flat[first]:
            cell = tuple(int(i) for i in np.unravel_index(first, cells.shape))
    # cell (i, ..., i) lies i * (1 + a + ... + a^(d-1)) cells into C order
    diagonal = cells.reshape(-1)[:: (a**d - 1) // (a - 1) if a > 1 else 1]
    zero = None if np.count_nonzero(diagonal) == a else int(np.logical_not(diagonal).argmax())
    return zero, cell


def _coordinate(a: int, d: int, axis: int) -> np.ndarray:
    """Coordinate ``axis`` of the A^d grid, shaped to broadcast along that axis only."""
    return np.arange(a).reshape([a if j == axis else 1 for j in range(d)])


def _all_equal(coords: list[np.ndarray], a: int, d: int) -> np.ndarray:
    """Boolean A^d grid, True where the broadcast ``coords`` all agree."""
    grid = np.ones((a,) * d, dtype=bool)
    for c in coords[1:]:
        grid &= coords[0] == c
    return grid


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, a fresh array nothing else holds, made read-only: a Tensor keeps it uncopied."""
    arr.flags.writeable = False
    return arr


def check_cube(a: int, d: int, what: str) -> None:
    """Refuse the ``what`` on A^d, before any of it is allocated, unless a >= 1, d >= 2, a^d fits."""
    if a < 1 or d < 2:
        raise ValueError("need a >= 1 and d >= 2")
    caps.admit(repeat(a, d), f"{what} on {a}^{d}")


def partition_construction(a: int, d: int, field: FieldDescriptor) -> Tensor:
    """Semi-diagonal tensor on A^d that is 1 exactly on blocks of a partition.

    The ground set is split into consecutive blocks of size d-1 (the last may
    be shorter), giving ceil(a/(d-1)) parts; every flattening rank equals the
    number of parts, which is the minimum any semi-diagonal tensor can attain.
    """
    check_cube(a, d, "construction")
    blocks = [_coordinate(a, d, j) // (d - 1) for j in range(d)]
    return Tensor.from_array(_frozen(_all_equal(blocks, a, d).astype(entry_dtype(field))), field)


def axis_constant_construction(a: int, d: int, axis: int, field: FieldDescriptor) -> Tensor:
    """Tensor that is 1 iff all coordinates except ``axis`` agree.

    Its ``axis`` flattening has rank 1 (all rows equal).  For d >= 3 (or
    a == 1) it is semi-diagonal; for d == 2 and a >= 2 it degenerates to the
    all-ones matrix, which is not.
    """
    check_cube(a, d, "construction")
    if not 0 <= axis < d:
        raise IndexError(f"axis {axis} out of range")
    rest = [_coordinate(a, d, j) for j in range(d) if j != axis]
    return Tensor.from_array(_frozen(_all_equal(rest, a, d).astype(entry_dtype(field))), field)


# cells up to which a pairwise-distinct grid is kept for its shape: 64 KB of bools
_CACHED_GRID_CELLS = 1 << 16


def distinct_cells(a: int, d: int) -> np.ndarray:
    """Read-only boolean A^d grid, True on the cells whose d indices are pairwise distinct.

    At d == 1 every cell is.  A grid of at most :data:`_CACHED_GRID_CELLS`
    cells is built once per shape, in a cache of 16 shapes, so a growing
    family does not keep one grid for every size; larger grids are built on
    every call, once their a^d cells are checked against the dense cap.
    """
    # past 16 axes, a >= 2 passes 2^16 cells: no power of a huge d is taken
    if d > 16 or a**d > _CACHED_GRID_CELLS:
        return _distinct_cells.__wrapped__(a, d)
    return _distinct_cells(a, d)


@lru_cache(maxsize=16)
def _distinct_cells(a: int, d: int) -> np.ndarray:
    grid = np.ones(caps.grid_shape(a, d), dtype=bool)
    coords = [_coordinate(a, d, j) for j in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            grid &= coords[i] != coords[j]
    return _frozen(grid)


@lru_cache(maxsize=None)
def index_class_arrays(a: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of an A^d tensor: (constant, pairwise distinct, neither), as arrays.

    At d == 1 every index is both constant and pairwise distinct.
    """
    diag = _all_equal([_coordinate(a, d, j) for j in range(d)], a, d)
    distinct = distinct_cells(a, d)
    return tuple(_frozen(np.flatnonzero(c)) for c in (diag, distinct, ~(diag | distinct)))
