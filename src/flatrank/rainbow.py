"""Colored hypergraphs, rainbow matchings, and wedge-product tensors.

A (z, t)-colored r-uniform multi-hypergraph carries z color classes, each a
matching of t edges.  Vertex v gets the moment-curve vector (1, x_v, x_v^2,
...) over a binary field, x_v = v + 1.  The tensor entry at colors
(i_1, ..., i_t) is the top exterior coefficient of the wedge of the chosen
edges' vertex vectors: a Vandermonde product of x_u + x_v over the pairs of
chosen vertices (no signs in characteristic 2).  It is nonzero exactly when
the edges are pairwise disjoint, so "no rainbow matching of size t" becomes
semi-diagonality and the color count is capped by (t-1) * C(rt, r).  The
product splits into one factor per slot and one per pair of slots, so
:func:`_wedge_grid` builds the z^t tensor by broadcasting those factor
tables, masked by the pairwise-disjointness grid of :func:`_disjoint_grid`.

The same grids with per-slot grades r_1, ..., r_t verify the skew set-pair
inequality |family| <= (t-1) * max_i C(r_1+...+r_t, r_i); its hypothesis is
read off the disjointness grid before any entry is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce
from itertools import accumulate, combinations, product
from typing import Sequence

import numpy as np

from .field import FieldDescriptor, binary_mul_add, discrete_log_tables, make_binary_field
from .setfam import _checked_limbs, _grid_shape
from .tensor import (
    Tensor,
    _bounded_search,
    is_semi_diagonal,
    max_flattening_rank,
    semi_diagonal_faults,
)

__all__ = [
    "ColoredHypergraph",
    "SetPairSystem",
    "find_rainbow_matching",
    "default_field_for",
    "rainbow_tensor",
    "rainbow_bound",
    "certify_no_rainbow_bound",
    "bollobas_bound",
    "bollobas_verify",
]

# elements a blocked step of the wedge kernel materialises at once
_BLOCK = 1 << 20


@dataclass(frozen=True)
class ColoredHypergraph:
    """Edges as vertex masks over [num_vertices], grouped into color classes."""

    num_vertices: int
    r: int
    t: int
    colors: tuple[tuple[int, ...], ...]
    limbs: np.ndarray = dc_field(init=False, compare=False, repr=False)  # (z, t, w)

    def __post_init__(self) -> None:
        if self.r < 1 or self.t < 1:
            raise ValueError("need r >= 1 and t >= 1")
        _checked_limbs(self, self.colors, self.t, self.num_vertices, "color", (self.r,) * self.t)
        for ci, cls in enumerate(self.colors):
            if sum(cls).bit_count() != self.r * self.t:  # two edges that meet carry: fewer bits
                raise ValueError(f"color {ci} is not a matching")

    @property
    def z(self) -> int:
        return len(self.colors)


def find_rainbow_matching(
    h: ColoredHypergraph, size: int
) -> list[tuple[int, int]] | None:
    """Lexicographically-first set of ``size`` disjoint edges with distinct colors.

    Complete backtracking over color-ascending choices, which picks an edge
    of a color only while enough colors are left after it to finish; None
    when no rainbow matching of the requested size exists.  Its nodes are
    (vertices used, lowest color left), searched by
    :func:`flatrank.tensor._bounded_search`, which refuses (ValueError) a
    search past :data:`flatrank.tensor.MAX_SEARCH_NODES` nodes.
    """
    if size < 1:
        raise ValueError("size must be positive")
    z = h.z
    if size > z:
        return None

    def children(node: tuple[int, int], level: int):
        used, start = node
        for c in range(start, z - size + level + 1):
            for ei, e in enumerate(h.colors[c]):
                if not e & used:
                    yield (c, ei), (used | e, c + 1)

    return _bounded_search((0, 0), children, size, f"rainbow-matching search of size {size}")


def default_field_for(num_vertices: int) -> FieldDescriptor:
    """Smallest binary field with more than num_vertices nonzero parameters, k >= 8."""
    return make_binary_field(max(8, (num_vertices + 1).bit_length()))


def _blocked(fn, rows: int, per_row: int) -> np.ndarray:
    """``fn`` over slices of ``rows`` of at most about _BLOCK elements, concatenated."""
    step = max(1, _BLOCK // max(per_row, 1))
    if step >= rows:
        return fn(slice(None))
    return np.concatenate([fn(slice(lo, lo + step)) for lo in range(0, rows, step)])


def _along(table: np.ndarray, axes: tuple[int, ...], t: int) -> np.ndarray:
    """An (m,) * len(axes) table reshaped to broadcast along ``axes`` of an m^t grid."""
    return table.reshape([table.shape[0] if i in axes else 1 for i in range(t)])


@lru_cache(maxsize=None)
def _pair_runs(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(2, t, L) and (2, C(t, 2), L') position pairs: within each slot, then across each slot pair.

    Positions index a member's vertices slot by slot.  Row j of the first
    holds slot j's pairs a < b; row p of the second holds every a in slot j
    against every b in slot l, for the p-th slot pair j < l in combinations
    order.  Each row is padded to its array's length, at least 1, with the
    pair (s, s) of position s = sum(sizes), past every vertex, where
    :func:`_wedge_grid` holds 0 for every member: its factor 0 counts as the
    neutral factor.
    """
    starts = [0, *accumulate(sizes)]
    pad = (starts[-1], starts[-1])
    spans = [range(lo, hi) for lo, hi in zip(starts, starts[1:])]
    within = [list(combinations(s, 2)) for s in spans]
    cross = [list(product(spans[j], spans[l])) for j, l in combinations(range(len(sizes)), 2)]

    def padded(runs: list[list[tuple[int, int]]]) -> np.ndarray:
        width = max([1, *map(len, runs)])
        pairs = [run + [pad] * (width - len(run)) for run in runs]
        out = np.array(pairs, dtype=np.intp).reshape(len(runs), width, 2).transpose(2, 0, 1)
        out.flags.writeable = False
        return out

    return padded(within), padded(cross)


def _binary_product(x: np.ndarray, y: np.ndarray, field: FieldDescriptor) -> np.ndarray:
    """x * y in GF(2^k), elementwise and broadcasting, for uint64 ``x`` and ``y``, as a fresh array."""
    if x.size > y.size:  # the shift-and-XOR scratch holds two arrays of x's shape
        x, y = y, x
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape), np.uint64)
    binary_mul_add(out, x, y, field, np.empty((2, *x.shape), np.uint64), np.empty_like(y), np.empty_like(out))
    return out


def _halving_product(a: np.ndarray, field: FieldDescriptor) -> np.ndarray:
    """The GF(2^k) product of ``a`` over its axis -2, halving that axis at each step."""
    while a.shape[-2] > 1:
        half = a.shape[-2] // 2
        head = _binary_product(a[..., :half, :], a[..., half : 2 * half, :], field)
        a = np.concatenate([head, a[..., 2 * half :, :]], axis=-2)
    return a[..., 0, :]


def _disjoint_grid(limbs: np.ndarray) -> np.ndarray:
    """(m,) * t boolean grid: True where the picked slot sets are pairwise disjoint.

    ``limbs`` are the (m, t, w) limbs of m members' t slot sets; cell
    (i_0, ..., i_{t-1}) picks slot j of member i_j.  m^t is checked against
    the dense cap before the grid is allocated.
    """
    m, t, w = limbs.shape
    disjoint = np.ones(_grid_shape(m, t), dtype=bool)
    for j, l in combinations(range(t), 2):
        meet = _blocked(lambda rows: (limbs[rows, None, j] & limbs[None, :, l]).any(-1), m, m * w)
        disjoint &= ~_along(meet, (j, l), t)
    return disjoint


def _wedge_grid(
    limbs: np.ndarray,
    sizes: tuple[int, ...],
    disjoint: np.ndarray,
    num_vertices: int,
    field: FieldDescriptor,
) -> np.ndarray:
    """Wedge-tensor entries over the grid of :func:`_disjoint_grid`, as an integer array.

    A cell's entry is the product of x_u ^ x_v over the pairs of its picked
    vertices (slot j has sizes[j] of them).  Over GF(2^k <= 16) the factors
    are summed as discrete logs and read back through the exp table; larger
    fields multiply them in uint64 by shift and XOR
    (:func:`flatrank.field.binary_mul_add`).  Cells that are not pairwise
    disjoint repeat a vertex, a zero factor, and are masked to 0.
    """
    if field.kind != "binary":
        raise ValueError("wedge tensors need a binary field")
    if field.order <= num_vertices + 1:
        raise ValueError(f"{field} is too small for {num_vertices} general-position vectors")
    m, t, w = limbs.shape
    bits = lambda rows: np.unpackbits(limbs[rows].view(np.uint8), axis=-1, bitorder="little")
    # column i: x_v = v + 1 for member i's vertices, slot by slot, each slot in
    # increasing order, then the 0 of the padding position
    verts = _blocked(lambda rows: np.flatnonzero(bits(rows)), m, 64 * t * w)
    xs = np.zeros((sum(sizes) + 1, m), np.int64)
    body = xs[:-1]
    np.remainder(verts.reshape(m, sum(sizes)).T, 64 * w, out=body)
    body += 1
    within, cross = _pair_runs(tuple(sizes))
    if field.k <= 16:
        exp, log = discrete_log_tables(field)
        log = log.astype(np.int64)
        log[0] = 0  # the neutral log, for a padding pair; other 0 factors are masked
        lift, combine = log.__getitem__, np.add
        run_product = lambda terms: np.add.reduce(terms, axis=-2)
    else:
        xs = xs.view(np.uint64)  # the products' dtype
        lift = lambda f: f | (f == 0)  # a 0 is a padding pair or masked
        combine = lambda x, y: _binary_product(x, y, field)
        run_product = lambda terms: _halving_product(terms, field)
    slot_terms = run_product(lift(xs[within[0]] ^ xs[within[1]]))
    xa, xb = xs.T[:, cross[0]], xs[cross[1]]
    pair_terms = _blocked(
        lambda rows: run_product(lift(xa[rows, ..., None] ^ xb[None])), m, xb.size
    )
    terms = [_along(slot_terms[j], (j,), t) for j in range(t)]
    terms += [_along(pair_terms[:, p], axes, t) for p, axes in enumerate(combinations(range(t), 2))]
    total = reduce(combine, terms)
    entries = exp[total % (field.order - 1)] if field.k <= 16 else total.astype(np.int64)
    entries *= disjoint
    return entries


def rainbow_tensor(h: ColoredHypergraph, field: FieldDescriptor | None = None) -> Tensor:
    """z^t tensor whose (i_1..i_t) entry wedges edge j of color i_j for each slot j.

    Entries are nonzero exactly when the chosen edges are pairwise disjoint;
    requires at least r*t vertices and a binary field exceeding the vertex count.
    """
    n = h.r * h.t
    if h.num_vertices < n:
        raise ValueError(f"need at least r*t = {n} vertices, got {h.num_vertices}")
    if field is None:
        field = default_field_for(h.num_vertices)
    entries = _wedge_grid(h.limbs, (h.r,) * h.t, _disjoint_grid(h.limbs), h.num_vertices, field)
    return Tensor.from_array(entries, field)


def rainbow_bound(r: int, t: int) -> int:
    if r < 1 or t < 1:
        raise ValueError("need r >= 1 and t >= 1")
    return (t - 1) * math.comb(r * t, r)


def certify_no_rainbow_bound(
    h: ColoredHypergraph, field: FieldDescriptor | None = None
) -> dict:
    """Run the full no-rainbow certification chain and report every link.

    When a rainbow matching of size t exists the report carries it and the
    tensor is skipped (it would not be semi-diagonal), as it is for z = 0,
    where every bound holds vacuously.  Otherwise reports
    semi-diagonality, mfrank, and the sandwich
    z / (t-1) <= mfrank <= C(rt, r), hence z <= (t-1) * C(rt, r).
    """
    if h.t < 2:
        raise ValueError("the certification chain needs t >= 2")
    report: dict = {
        "z": h.z,
        "r": h.r,
        "t": h.t,
        "flattening_cap": math.comb(h.r * h.t, h.r),
        "color_cap": rainbow_bound(h.r, h.t),
    }
    if h.z == 0:  # no colors: the bounds hold vacuously, and there is no tensor to build
        report.update({"rainbow_matching": None, "color_bound_ok": True, "verified": True})
        return report
    matching = find_rainbow_matching(h, h.t)
    if matching is not None:
        report["rainbow_matching"] = [list(pair) for pair in matching]
        report["verified"] = False
        return report
    tensor = rainbow_tensor(h, field)
    mfrank = max_flattening_rank(tensor)
    semi = is_semi_diagonal(tensor)
    report.update(
        {
            "rainbow_matching": None,
            "field": tensor.field.to_document(),
            "semi_diagonal": semi,
            "mfrank": mfrank,
            "lower_bound_ok": h.z <= (h.t - 1) * mfrank,
            "upper_bound_ok": mfrank <= report["flattening_cap"],
            "color_bound_ok": h.z <= report["color_cap"],
        }
    )
    report["verified"] = (
        semi and report["lower_bound_ok"] and report["upper_bound_ok"] and report["color_bound_ok"]
    )
    return report


@dataclass(frozen=True)
class SetPairSystem:
    """Family of t-tuples of subsets of a base set, slot i of fixed size sizes[i]."""

    base_size: int
    sizes: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    limbs: np.ndarray = dc_field(init=False, compare=False, repr=False)  # (m, t, w)

    def __post_init__(self) -> None:
        if len(self.sizes) < 2 or any(s < 1 for s in self.sizes):
            raise ValueError("need t >= 2 positive slot sizes")
        _checked_limbs(self, self.members, len(self.sizes), self.base_size, "member", self.sizes)

    @property
    def t(self) -> int:
        return len(self.sizes)


def bollobas_bound(sizes: Sequence[int]) -> int:
    n = sum(sizes)
    return (len(sizes) - 1) * max(math.comb(n, r) for r in sizes)


def bollobas_verify(system: SetPairSystem) -> dict:
    """Check the skew set-pair hypothesis and, when it holds, the size bound.

    Hypothesis: each member's t sets are pairwise disjoint, and no t distinct
    members (by position) give pairwise-disjoint slot-wise picks.  The report
    also builds the mixed-grade wedge tensor and records its semi-diagonality
    and mfrank, mirroring the rainbow chain.
    """
    t = system.t
    m = len(system.members)
    n = sum(system.sizes)
    report: dict = {
        "size": m,
        "sizes": list(system.sizes),
        "bound": bollobas_bound(system.sizes),
    }
    if m == 0:
        report.update(hypothesis_ok=True, bound_ok=True, verified=True)
        return report
    disjoint = _disjoint_grid(system.limbs)
    clashing, cross = semi_diagonal_faults(disjoint)  # diagonal cell k is member k
    if clashing is not None:
        report.update(hypothesis_ok=False, violating_member=clashing, verified=False)
        return report
    if cross is not None:  # C order, the order of permutations(range(m), t)
        report.update(hypothesis_ok=False, violating_assignment=list(cross), verified=False)
        return report
    field = default_field_for(system.base_size)
    entries = _wedge_grid(system.limbs, system.sizes, disjoint, system.base_size, field)
    tensor = Tensor.from_array(entries, field)
    mfrank = max_flattening_rank(tensor)
    report.update(
        {
            "hypothesis_ok": True,
            "bound_ok": m <= report["bound"],
            "field": field.to_document(),
            "semi_diagonal": is_semi_diagonal(tensor),
            "mfrank": mfrank,
            "lower_bound_ok": m <= (t - 1) * mfrank,
            "upper_bound_ok": mfrank <= max(math.comb(n, r) for r in system.sizes),
        }
    )
    checks = ("bound_ok", "semi_diagonal", "lower_bound_ok", "upper_bound_ok")
    report["verified"] = all(report[key] for key in checks)
    return report
