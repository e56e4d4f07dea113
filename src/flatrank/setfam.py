"""Set families over [n] as packed bit-masks, and cross-Oddtown machinery.

Members of a :class:`TupleFamily` are ordered d-tuples of subsets.  Families
are multisets: "distinct members" always means distinct list positions, so a
tuple repeated twice counts as two members.  That convention is what makes the
size bound (d-1)*n attainable (each singleton tuple repeated d-1 times).  Every family of masks,
here and in :mod:`flatrank.fw` and :mod:`flatrank.rainbow`, is checked and split once, when it is
built, by :func:`_checked_limbs` into ``limbs``: an (m, slots, w) uint64 array, w from the masks'
bit lengths, never from n.  Every chain reads ``limbs``.

Every stage of the cross-Oddtown chain reads one array, the family's m^d
intersection-parity grid: cell (i_0, ..., i_{d-1}) is the parity of the
intersection of member i_j's slot-j set over all j.  It is built once with
numpy from the family's limbs, so masks of any width work, and m^d is
checked against the dense-entry cap before anything is allocated.  The family
is cross-Oddtown exactly when the grid is semi-diagonal (odd diagonal, even
all-distinct cells); as a GF(2) tensor the grid carries the flattening ranks;
and its explicit rank-1 decomposition (one factor per ground element), summed
independently from slot-membership matrices, certifies tensor rank <= n and
hence caps every flattening rank at n.  That sum is one float64 matrix
product (BLAS): its counts are integers of at most n <= 2^24, which float64
holds exactly, so it is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from . import caps
from .field import GF2
from .linalg import entry_dtype
from .tensor import Tensor, _frozen, flattening_ranks, is_semi_diagonal

__all__ = [
    "SetFamily",
    "TupleFamily",
    "intersection_size",
    "is_cross_oddtown",
    "oddtown_tensor",
    "oddtown_rank1_certificate",
    "reconstruct_from_certificate",
    "cross_oddtown_bound",
    "repeated_singleton_family",
    "verify_oddtown_chain",
]


@dataclass(frozen=True)
class SetFamily:
    """Ordered list of subsets of [n]; duplicates permitted."""

    n: int
    members: tuple[int, ...]
    limbs: np.ndarray = dc_field(init=False, compare=False, repr=False)  # (m, 1, w)

    def __post_init__(self) -> None:
        _checked_limbs(self, tuple(zip(self.members)), 1, self.n)  # rows of one mask

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class TupleFamily:
    """Ordered list of d-tuples of subsets of [n]."""

    n: int
    d: int
    members: tuple[tuple[int, ...], ...]
    limbs: np.ndarray = dc_field(init=False, compare=False, repr=False)  # (m, d, w)

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("tuple width d must be at least 2")
        _checked_limbs(self, self.members, self.d, self.n)

    def __len__(self) -> int:
        return len(self.members)


def intersection_size(masks: Sequence[int]) -> int:
    """|M_1 ∩ ... ∩ M_r| for masks over a common ground set."""
    if not masks:
        raise ValueError("need at least one mask")
    acc = masks[0]
    for m in masks[1:]:
        acc &= m
    return acc.bit_count()


def _mask_limbs(masks: Sequence[int], width: int | None = None) -> np.ndarray:
    """(m, w) uint64: each mask in w 64-bit limbs, least significant first; w is ``width`` or the fewest."""
    w = width or max(1, -(-max(masks, default=0).bit_length() // 64))
    if w == 1:  # numpy converts the ints at once
        return np.array(masks, dtype="<u8").reshape(len(masks), 1)
    data = b"".join(map(int.to_bytes, masks, repeat(8 * w), repeat("little")))
    return np.frombuffer(data, dtype="<u8").reshape(len(masks), w)


def _intersection_sizes(axis_limbs: Sequence[np.ndarray | None]) -> np.ndarray:
    """Intersection sizes broadcast over a k-axis grid of index tuples.

    ``axis_limbs[j]`` holds the (m_j, w) limbs of the sets indexed along axis
    j, or None for an axis outside the intersection, which keeps size 1 and
    broadcasts over the rest.  Cell (i_0, ..., i_{k-1}) is the popcount of the
    AND of row i_j of every given axis; all axes share one limb width w.  The
    sizes are uint8 when w is 1, and int64 otherwise.  Callers check the grid
    against the dense cap first.
    """
    k = len(axis_limbs)
    given = [(j, limbs) for j, limbs in enumerate(axis_limbs) if limbs is not None]
    w = given[0][1].shape[1]
    sizes = np.int64(0)
    for limb in range(w):
        acc = None
        for j, limbs in given:
            piece = limbs[:, limb].reshape([limbs.shape[0] if i == j else 1 for i in range(k)])
            acc = piece if acc is None else acc & piece
        if w == 1:
            return np.bitwise_count(acc)
        sizes = sizes + np.bitwise_count(acc)
    return sizes


def _slot_limbs(members: Sequence[Sequence[int]], d: int, width: int | None = None) -> np.ndarray:
    """(m, d, w) uint64 limbs of the d slot masks of each of m members (see :func:`_mask_limbs`)."""
    limbs = _mask_limbs([x for tup in members for x in tup], width)
    return limbs.reshape(len(members), d, limbs.shape[1])


def _checked_limbs(family, rows: Sequence[Sequence[int]], d: int, n: int, what: str = "member", sizes=None) -> None:
    """Set ``family.limbs`` to the (m, d, w) limbs of m ``rows`` of d masks, once none is negative or
    has a bit at n and, with ``sizes``, slot j holds sizes[j] (builtin passes: cheaper than numpy here)."""
    if set(map(len, rows)) - {d}:
        i = next(i for i, row in enumerate(rows) if len(row) != d)
        raise ValueError(f"{what} {i} needs {d} masks, got {len(rows[i])}")
    masks = list(chain.from_iterable(rows))
    if masks and (max(masks) >> n or min(masks) < 0):
        k = next(k for k, x in enumerate(masks) if x < 0 or x >> n)
        raise ValueError(f"{what} {k // d}: mask {masks[k]} does not fit in {n} bits")
    if sizes and (counts := list(map(int.bit_count, masks))) != (want := list(sizes) * (len(masks) // d)):
        k = next(k for k, (count, size) in enumerate(zip(counts, want)) if count != size)
        raise ValueError(f"{what} {k // d}: mask {masks[k]} in slot {k % d} is not a {want[k]}-subset")
    limbs = _mask_limbs(masks)
    object.__setattr__(family, "limbs", limbs.reshape(-1, d, limbs.shape[1]))


def is_cross_oddtown(fam: TupleFamily) -> bool:
    """Odd within-tuple intersections; even across any d distinct positions.

    These are the diagonal and the all-distinct cells of the parity grid, so
    the family is cross-Oddtown exactly when its tensor is semi-diagonal.
    """
    return not fam.members or is_semi_diagonal(oddtown_tensor(fam))


def oddtown_tensor(fam: TupleFamily) -> Tensor:
    """m^d tensor over GF(2): parity of the slot-wise intersection size."""
    m = len(fam.members)
    if m == 0:
        raise ValueError("tensor of an empty family is undefined")
    caps.grid_shape(m, fam.d)  # raises over the dense cap, before any allocation
    parity = _intersection_sizes([fam.limbs[:, j] for j in range(fam.d)]) & 1
    return Tensor.from_array(_frozen(parity.astype(entry_dtype(GF2), copy=False)), GF2)


def oddtown_rank1_certificate(fam: TupleFamily) -> np.ndarray:
    """(n, d, m) 0/1 array: ``cert[k, j, i]`` is 1 when slot j of member i contains k.

    Element k contributes the rank-1 term ``cert[k, 0] ⊗ ... ⊗ cert[k, d-1]``
    (the d indicator vectors "member's slot-j set contains k"); summing all n
    of them over GF(2) reproduces the intersection-parity tensor exactly,
    which certifies tensor rank (and hence every flattening rank) at most n.
    The n·d·m cells, and the n·m^|slots| of each of the two Khatri-Rao
    products :func:`reconstruct_from_certificate` multiplies, are checked
    against the dense cap before anything is allocated.
    """
    n, d, m = fam.n, fam.d, len(fam.members)
    row = sum(math.prod(caps.grid_shape(m, len(slots))) for slots in _slot_halves(d))
    caps.admit((n, d * m + row), f"certificate over {n} elements")
    bits = np.unpackbits(fam.limbs.view(np.uint8), axis=-1, count=n, bitorder="little")
    return bits.transpose(2, 1, 0)


def _slot_halves(d: int) -> tuple[range, range]:
    """The slots of the two Khatri-Rao products :func:`reconstruct_from_certificate` multiplies."""
    half = (d + 1) // 2
    return range(half), range(half, d)


def reconstruct_from_certificate(cert: np.ndarray) -> np.ndarray:
    """Sum over GF(2) of the certificate's rank-1 terms, as an (m,) * d int64 parity array.

    The sum over elements is one matrix product: the Khatri-Rao product of
    the first half of the slots' factors against that of the rest.  It runs
    in float64, through BLAS, and is exact: the factors are 0/1, so every
    partial sum is an integer count of at most n, and the dense cap of
    :func:`oddtown_rank1_certificate` keeps n <= 2^24, well below 2^53.
    """
    n, d, m = cert.shape

    def khatri_rao(slots: range) -> np.ndarray:
        acc = np.ones((n, 1))
        for j in slots:
            acc = (acc[:, :, None] * cert[:, j, None, :]).reshape(n, -1)
        return acc

    first, rest = _slot_halves(d)
    counts = khatri_rao(first).T @ khatri_rao(rest)
    return (counts.astype(np.int64) & 1).reshape((m,) * d)


def cross_oddtown_bound(n: int, d: int) -> int:
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    return (d - 1) * n


def repeated_singleton_family(n: int, d: int) -> TupleFamily:
    """The tight family: each singleton tuple ({i},...,{i}) taken d-1 times."""
    return TupleFamily(n=n, d=d, members=tuple((1 << i,) * d for i in range(n) for _ in range(d - 1)))


def _cross_even_with(limbs: np.ndarray, new: tuple[int, ...], d: int, distinct: np.ndarray) -> bool:
    """Can ``new`` join the members of ``limbs`` keeping all distinct-position d-tuples even?

    ``limbs`` are the members' :func:`_slot_limbs`, which the greedy search
    keeps as it grows; ``new`` is split to their width.  For each slot of
    ``new``, one broadcast intersects it with every arrangement of d-1
    members over the other slots; only arrangements of pairwise-distinct
    members count: the leading c^(d-1) corner of ``distinct``, a
    :func:`flatrank.tensor.distinct_cells` grid of d-1 axes on at least the
    c members, masks each slot's parities.
    """
    c = len(limbs)
    if c + 1 < d:
        return True
    corner = distinct[(slice(c),) * (d - 1)]
    fresh = _slot_limbs([new], d, limbs.shape[2])
    for slot in range(d):
        others = [limbs[:, j] for j in range(d) if j != slot]
        odd = _intersection_sizes([fresh[:, slot], *others])[0] & 1
        if np.logical_and(odd, corner).any():
            return False
    return True


def try_extend_cross_oddtown(limbs: np.ndarray, new: tuple[int, ...], d: int, distinct: np.ndarray) -> bool:
    """Incremental validity test used by greedy growth; members stay valid.

    ``limbs`` and ``distinct`` are as for :func:`_cross_even_with`.
    """
    if intersection_size(new) % 2 == 0:
        return False
    return _cross_even_with(limbs, new, d, distinct)


def verify_oddtown_chain(fam: TupleFamily) -> dict:
    """Full bound chain for one family: hypothesis, tensor, certificate, bounds.

    The hypothesis is read off the parity tensor, which is built once; the
    certificate is summed independently from the slot-membership matrices,
    and its parity array is compared with the tensor's.  Both read the
    family's ``limbs``.
    """
    m = len(fam)
    d = fam.d
    report: dict = {"size": m, "n": fam.n, "d": d, "bound": cross_oddtown_bound(fam.n, d)}
    report["size_bound_ok"] = m <= report["bound"]
    if m == 0:
        report["is_cross_oddtown"] = True
        report["verified"] = report["size_bound_ok"]
        return report
    t = oddtown_tensor(fam)
    hypothesis = is_semi_diagonal(t)
    franks = flattening_ranks(t)
    mfrank = max(franks)
    recon = reconstruct_from_certificate(oddtown_rank1_certificate(fam))
    report.update(
        {
            "is_cross_oddtown": hypothesis,
            "franks": franks,
            "mfrank": mfrank,
            "semi_diagonal": hypothesis,
            "certificate_reconstructs": np.array_equal(recon, t.array),
            "mfrank_le_n": mfrank <= fam.n,
        }
    )
    if not hypothesis:
        report["verified"] = False
        return report
    report["mfrank_lower_ok"] = mfrank * (d - 1) >= m
    report["verified"] = all(
        report[key]
        for key in (
            "semi_diagonal",
            "certificate_reconstructs",
            "mfrank_le_n",
            "mfrank_lower_ok",
            "size_bound_ok",
        )
    )
    return report
