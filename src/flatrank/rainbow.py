"""Colored hypergraphs, rainbow matchings, and wedge-product tensors.

A (z, t)-colored r-uniform multi-hypergraph carries z color classes, each a
matching of t edges.  Assign every vertex a moment-curve vector in dimension
rt over a binary field; the tensor entry at colors (i_1, ..., i_t) is the top
exterior coefficient of wedging the t chosen edges' vertex vectors, computed
as an rt x rt determinant.  General position makes the entry nonzero exactly
when the edges are pairwise disjoint, so "no rainbow matching of size t"
translates into semi-diagonality and the color count is capped by
(t-1) * C(rt, r).

The same machinery with per-slot grades r_1, ..., r_t verifies the skew
set-pair inequality |family| <= (t-1) * max_i C(r_1+...+r_t, r_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Sequence

from .extalg import moment_curve_vectors
from .field import FieldDescriptor, make_binary_field
from .linalg import determinant
from .tensor import Tensor, is_semi_diagonal, max_flattening_rank

__all__ = [
    "ColoredHypergraph",
    "SetPairSystem",
    "hypergraph_from_vertex_lists",
    "find_rainbow_matching",
    "default_field_for",
    "rainbow_tensor",
    "rainbow_bound",
    "certify_no_rainbow_bound",
    "bollobas_bound",
    "bollobas_verify",
]


def _mask_vertices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class ColoredHypergraph:
    """Edges as vertex masks over [num_vertices], grouped into color classes."""

    num_vertices: int
    r: int
    t: int
    colors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.r < 1 or self.t < 1:
            raise ValueError("need r >= 1 and t >= 1")
        for ci, cls in enumerate(self.colors):
            if len(cls) != self.t:
                raise ValueError(f"color {ci} has {len(cls)} edges, expected {self.t}")
            used = 0
            for e in cls:
                if e >> self.num_vertices or e.bit_count() != self.r:
                    raise ValueError(f"color {ci}: edge {e:#x} is not an r-subset of the vertices")
                if e & used:
                    raise ValueError(f"color {ci} is not a matching")
                used |= e
            if used.bit_count() != self.r * self.t:
                raise ValueError(f"color {ci} is not a matching")

    @property
    def z(self) -> int:
        return len(self.colors)


def hypergraph_from_vertex_lists(
    num_vertices: int, r: int, t: int, colors: Sequence[Sequence[Sequence[int]]]
) -> ColoredHypergraph:
    packed = []
    for cls in colors:
        edges = []
        for edge in cls:
            mask = 0
            for v in edge:
                if not 0 <= v < num_vertices:
                    raise ValueError(f"vertex {v} out of range")
                mask |= 1 << v
            edges.append(mask)
        packed.append(tuple(edges))
    return ColoredHypergraph(num_vertices=num_vertices, r=r, t=t, colors=tuple(packed))


def find_rainbow_matching(
    h: ColoredHypergraph, size: int
) -> list[tuple[int, int]] | None:
    """Lexicographically-first set of ``size`` disjoint edges with distinct colors.

    Complete backtracking over color-ascending choices; None when no rainbow
    matching of the requested size exists.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if size > h.z:
        return None
    chosen: list[tuple[int, int]] = []

    def rec(start_color: int, used: int) -> bool:
        if len(chosen) == size:
            return True
        if h.z - start_color < size - len(chosen):
            return False
        for c in range(start_color, h.z):
            for ei, e in enumerate(h.colors[c]):
                if not e & used:
                    chosen.append((c, ei))
                    if rec(c + 1, used | e):
                        return True
                    chosen.pop()
        return False

    return chosen if rec(0, 0) else None


def default_field_for(num_vertices: int) -> FieldDescriptor:
    """Smallest binary field with more than num_vertices nonzero parameters, k >= 8."""
    k = 8
    while (1 << k) <= num_vertices + 1:
        k += 1
    return make_binary_field(k)


class _WedgeEntryEngine:
    """Shared determinant evaluator for edge tuples over a vertex pool."""

    def __init__(self, num_vertices: int, grade_total: int, field: FieldDescriptor):
        if field.kind != "binary":
            raise ValueError("wedge tensors need a binary field")
        if field.order <= num_vertices + 1:
            raise ValueError(f"{field} is too small for {num_vertices} general-position vectors")
        self.field = field
        self.n = grade_total
        self.vectors = moment_curve_vectors(num_vertices, grade_total, field)
        self._cache: dict[tuple[int, ...], int] = {}

    def entry(self, vertices: list[int]) -> int:
        if len(vertices) != self.n:
            raise ValueError("vertex count must match the total grade")
        key = tuple(sorted(vertices))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if len(set(key)) != self.n:
            val = 0  # a repeated vertex repeats a matrix row
        else:
            val = determinant([self.vectors[v] for v in key], self.field)
        self._cache[key] = val
        return val


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
    engine = _WedgeEntryEngine(h.num_vertices, n, field)
    edge_vertices = [[_mask_vertices(e) for e in cls] for cls in h.colors]
    entries = []
    for idx in product(range(h.z), repeat=h.t):
        verts: list[int] = []
        for slot, color in enumerate(idx):
            verts.extend(edge_vertices[color][slot])
        entries.append(engine.entry(verts))
    return Tensor((h.z,) * h.t, field, entries)


def rainbow_bound(r: int, t: int) -> int:
    if r < 1 or t < 1:
        raise ValueError("need r >= 1 and t >= 1")
    return (t - 1) * math.comb(r * t, r)


def certify_no_rainbow_bound(
    h: ColoredHypergraph, field: FieldDescriptor | None = None
) -> dict:
    """Run the full no-rainbow certification chain and report every link.

    When a rainbow matching of size t exists the report carries it and the
    tensor is skipped (it would not be semi-diagonal).  Otherwise reports
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

    def __post_init__(self) -> None:
        if len(self.sizes) < 2 or any(s < 1 for s in self.sizes):
            raise ValueError("need t >= 2 positive slot sizes")
        for tup in self.members:
            if len(tup) != len(self.sizes):
                raise ValueError(f"member {tup!r} has the wrong arity")
            for slot, mask in enumerate(tup):
                if mask >> self.base_size or mask.bit_count() != self.sizes[slot]:
                    raise ValueError(
                        f"slot {slot} of member {tup!r} is not a {self.sizes[slot]}-subset"
                    )

    @property
    def t(self) -> int:
        return len(self.sizes)


def bollobas_bound(sizes: Sequence[int]) -> int:
    n = sum(sizes)
    return (len(sizes) - 1) * max(math.comb(n, r) for r in sizes)


def bollobas_verify(system: SetPairSystem, field: FieldDescriptor | None = None) -> dict:
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
    for pos, tup in enumerate(system.members):
        used = 0
        for mask in tup:
            if mask & used:
                report["hypothesis_ok"] = False
                report["violating_member"] = pos
                report["verified"] = False
                return report
            used |= mask
    cross = None
    if m >= t:
        for positions in permutations(range(m), t):
            used = 0
            ok = True
            for slot, pos in enumerate(positions):
                mask = system.members[pos][slot]
                if mask & used:
                    ok = False
                    break
                used |= mask
            if ok:
                cross = list(positions)
                break
    if cross is not None:
        report["hypothesis_ok"] = False
        report["violating_assignment"] = cross
        report["verified"] = False
        return report
    report["hypothesis_ok"] = True
    report["bound_ok"] = m <= report["bound"]
    if m >= 1:
        if field is None:
            field = default_field_for(system.base_size)
        engine = _WedgeEntryEngine(system.base_size, n, field)
        member_vertices = [[_mask_vertices(mask) for mask in tup] for tup in system.members]
        entries = []
        for idx in product(range(m), repeat=t):
            verts: list[int] = []
            for slot, pos in enumerate(idx):
                verts.extend(member_vertices[pos][slot])
            entries.append(engine.entry(verts))
        tensor = Tensor((m,) * t, field, entries)
        mfrank = max_flattening_rank(tensor)
        report.update(
            {
                "field": field.to_document(),
                "semi_diagonal": is_semi_diagonal(tensor),
                "mfrank": mfrank,
                "lower_bound_ok": m <= (t - 1) * mfrank,
                "upper_bound_ok": mfrank <= max(math.comb(n, r) for r in system.sizes),
            }
        )
        report["verified"] = (
            report["bound_ok"]
            and report["semi_diagonal"]
            and report["lower_bound_ok"]
            and report["upper_bound_ok"]
        )
    else:
        report["verified"] = report["bound_ok"]
    return report
