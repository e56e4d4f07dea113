"""Rainbow-matching search, wedge tensors, and the set-pair verifier."""

import itertools
import json
import math
import sys

import numpy as np
import pytest

from flatrank.field import make_binary_field
from flatrank.linalg import entry_dtype
from flatrank.rainbow import (
    SetPairSystem,
    _disjoint_grid,
    _wedge_grid,
    bollobas_bound,
    bollobas_verify,
    certify_no_rainbow_bound,
    default_field_for,
    find_rainbow_matching,
    rainbow_bound,
    rainbow_tensor,
)
from flatrank.rng import Rng
from flatrank.setfam import _slot_limbs

from oracles import (
    hypergraph_from_vertex_lists,
    moment_curve_vectors,
    random_colored_hypergraph,
    sample_without_replacement,
    top_coefficient,
    wedge_of_vectors,
)


def k4_factorization():
    colors = [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]]
    return hypergraph_from_vertex_lists(4, 2, 2, colors)


def naive_rainbow_search(h, size):
    for color_set in itertools.combinations(range(h.z), size):
        for picks in itertools.product(*(range(h.t) for _ in color_set)):
            used = 0
            ok = True
            for color, ei in zip(color_set, picks):
                e = h.colors[color][ei]
                if e & used:
                    ok = False
                    break
                used |= e
            if ok:
                return True
    return False


def test_matching_invariant_enforced():
    with pytest.raises(ValueError, match="matching"):
        hypergraph_from_vertex_lists(4, 2, 2, [[[0, 1], [1, 2]]])
    with pytest.raises(ValueError):
        hypergraph_from_vertex_lists(4, 2, 2, [[[0, 1]]])  # wrong class size
    with pytest.raises(ValueError):
        hypergraph_from_vertex_lists(4, 2, 2, [[[0, 1, 2], [3]]])  # not r-uniform


def test_single_color_size_one():
    h = hypergraph_from_vertex_lists(4, 2, 2, [[[0, 1], [2, 3]]])
    assert find_rainbow_matching(h, 1) == [(0, 0)]


def test_two_color_disjoint_rainbow():
    colors = [[[0, 1], [2, 3]], [[0, 1], [2, 3]]]
    h = hypergraph_from_vertex_lists(4, 2, 2, colors)
    m = find_rainbow_matching(h, 2)
    assert m is not None
    edges = [h.colors[c][e] for c, e in m]
    assert edges[0] & edges[1] == 0
    assert len({c for c, _ in m}) == 2


def test_k4_has_no_rainbow_two_matching():
    assert find_rainbow_matching(k4_factorization(), 2) is None


def test_matching_search_agrees_with_naive():
    rng = Rng(3)
    for _ in range(60):
        r = 1 + rng.next_below(2)
        t = 1 + rng.next_below(3)
        z = 1 + rng.next_below(max(1, 12 // t))
        n = r * t + rng.next_below(3)
        h = random_colored_hypergraph(n, r, t, z, rng)
        size = 1 + rng.next_below(t)
        assert (find_rainbow_matching(h, size) is not None) == naive_rainbow_search(h, size)


def test_rainbow_tensor_t1_all_nonzero():
    h = hypergraph_from_vertex_lists(3, 2, 1, [[[0, 1]], [[1, 2]]])
    t = rainbow_tensor(h)
    assert t.dims == (2,)
    assert all(v != 0 for v in t.entries)


def test_rainbow_tensor_shared_vertex_zero():
    colors = [[[0, 1], [2, 3]], [[4, 5], [0, 2]]]
    h = hypergraph_from_vertex_lists(6, 2, 2, colors)
    t = rainbow_tensor(h)
    # slot 0 from color 0 is {0,1}; slot 1 from color 1 is {0,2}: share vertex 0
    assert t.array[0, 1] == 0
    # disjoint picks are nonzero
    assert t.array[0, 0] != 0 and t.array[1, 1] != 0


def test_rainbow_tensor_pattern_matches_disjointness():
    from flatrank.tensor import flattening_rank

    rng = Rng(14)
    for _ in range(25):
        r = 1 + rng.next_below(2)
        t = 2 + rng.next_below(2)
        z = 1 + rng.next_below(4)
        n = r * t + rng.next_below(4)
        h = random_colored_hypergraph(n, r, t, z, rng)
        tensor = rainbow_tensor(h)
        for flat, idx in enumerate(itertools.product(range(z), repeat=t)):
            edges = [h.colors[c][slot] for slot, c in enumerate(idx)]
            disjoint = all(
                not (e1 & e2) for e1, e2 in itertools.combinations(edges, 2)
            )
            assert (tensor.entries[flat] != 0) == disjoint
        # the basis-decomposition cap holds with or without a rainbow matching
        cap = math.comb(r * t, r)
        assert all(flattening_rank(tensor, ax) <= cap for ax in range(t))


def test_rainbow_tensor_needs_enough_vertices():
    h = hypergraph_from_vertex_lists(4, 2, 2, [[[0, 1], [2, 3]]])
    small = hypergraph_from_vertex_lists(3, 1, 3, [[[0], [1], [2]]])
    assert rainbow_tensor(small).dims == (1, 1, 1)
    with pytest.raises(ValueError):
        rainbow_tensor(h, make_binary_field(2))


def test_rainbow_bound_values():
    assert rainbow_bound(2, 2) == 6
    assert rainbow_bound(3, 3) == 2 * math.comb(9, 3) == 168
    # the r-partite lower-bound landmark stays below: (t-1) * 2^r at r=t=2
    assert 4 <= rainbow_bound(2, 2)


def test_certify_k4():
    rep = certify_no_rainbow_bound(k4_factorization())
    assert rep["verified"]
    assert rep["semi_diagonal"]
    assert rep["z"] == 3 and rep["color_cap"] == 6
    assert rep["z"] <= (rep["t"] - 1) * rep["mfrank"]
    assert rep["mfrank"] <= rep["flattening_cap"]


def test_certify_single_color():
    h = hypergraph_from_vertex_lists(4, 2, 2, [[[0, 1], [2, 3]]])
    rep = certify_no_rainbow_bound(h)
    assert rep["verified"] and rep["mfrank"] >= 1


def test_certify_reports_matching_when_present():
    colors = [[[0, 1], [2, 3]], [[0, 1], [2, 3]]]
    h = hypergraph_from_vertex_lists(4, 2, 2, colors)
    rep = certify_no_rainbow_bound(h)
    assert not rep["verified"]
    assert rep["rainbow_matching"] is not None


def test_repeated_color_class_never_yields_rainbow():
    # identical matchings in every class: picking two colors still needs two
    # disjoint edges, which exist, so this DOES have a rainbow matching
    colors = [[[0, 1], [2, 3]], [[0, 1], [2, 3]], [[0, 1], [2, 3]]]
    h = hypergraph_from_vertex_lists(4, 2, 2, colors)
    assert find_rainbow_matching(h, 2) is not None


def test_default_field_for():
    assert default_field_for(10).k == 8
    assert default_field_for(300).k == 9


def test_bollobas_classic_pairs():
    s = SetPairSystem(base_size=2, sizes=(1, 1), members=((0b01, 0b10), (0b10, 0b01)))
    rep = bollobas_verify(s)
    assert rep["hypothesis_ok"] and rep["verified"]
    assert rep["bound"] == 2 and rep["size"] == 2  # classic tight case
    assert rep["semi_diagonal"]


def test_bollobas_bound_mixed_sizes():
    assert bollobas_bound((1, 2)) == 3
    assert bollobas_bound((2, 2)) == math.comb(4, 2)
    assert bollobas_bound((1, 1, 1)) == 2 * 3


def test_bollobas_hypothesis_violations():
    # a member whose own sets intersect
    bad = SetPairSystem(base_size=3, sizes=(2, 2), members=((0b011, 0b110),))
    rep = bollobas_verify(bad)
    assert not rep["hypothesis_ok"] and not rep["verified"]
    # three identical disjoint tuples: cross-tuples stay disjoint
    same = SetPairSystem(
        base_size=2, sizes=(1, 1), members=((0b01, 0b10),) * 3
    )
    rep = bollobas_verify(same)
    assert not rep["hypothesis_ok"]
    assert "violating_assignment" in rep


def test_bollobas_mixed_grades_tensor():
    members = ((0b001, 0b110), (0b010, 0b101))
    s = SetPairSystem(base_size=3, sizes=(1, 2), members=members)
    rep = bollobas_verify(s)
    assert rep["hypothesis_ok"]
    assert rep["verified"]
    assert rep["mfrank"] >= 1


def test_bollobas_empty_family():
    s = SetPairSystem(base_size=2, sizes=(1, 1), members=())
    rep = bollobas_verify(s)
    assert rep["verified"]


def wedge_oracle(slots, num_vertices, field):
    """Entries by exterior algebra: the top coefficient of the wedge of the
    picked vertices' moment-curve vectors, cell by cell in row-major order."""
    n = sum(slot[0].bit_count() for slot in slots)
    vectors = moment_curve_vectors(num_vertices, n, field)
    out = []
    for idx in itertools.product(range(len(slots[0])), repeat=len(slots)):
        masks = [slots[j][i] for j, i in enumerate(idx)]
        picked = [vectors[v] for mask in masks for v in range(num_vertices) if mask >> v & 1]
        out.append(top_coefficient(wedge_of_vectors(picked, field)))
    return out


def hypothesis_loop(system):
    """The set-pair hypothesis by direct enumeration, witnesses included."""
    for pos, tup in enumerate(system.members):
        used = 0
        for mask in tup:
            if mask & used:
                return {"violating_member": pos}
            used |= mask
    for positions in itertools.permutations(range(len(system.members)), system.t):
        used = 0
        for slot, pos in enumerate(positions):
            mask = system.members[pos][slot]
            if mask & used:
                break
            used |= mask
        else:
            return {"violating_assignment": list(positions)}
    return {}


def random_setpair_system(rng, t, sizes, base, m, skew):
    """Members of pairwise-disjoint slots; ``skew`` systems pair a-subsets of a
    core with their complements (plus fixed extra slots), so they satisfy the
    hypothesis until a member repeats, and others overlap a slot now and then."""
    members = []
    if skew:
        core = sizes[0] + sizes[1]
        full = (1 << core) - 1
        extra, free = [], core
        for size in sizes[2:]:
            extra.append(((1 << size) - 1) << free)
            free += size
        pool = [sum(1 << v for v in c) for c in itertools.combinations(range(core), sizes[0])]
        for _ in range(m):
            a = pool[rng.next_below(len(pool))]
            members.append((a, full ^ a, *extra))
    else:
        for _ in range(m):
            verts = sample_without_replacement(rng, base, sum(sizes))
            tup, at = [], 0
            for size in sizes:
                tup.append(sum(1 << v for v in verts[at : at + size]))
                at += size
            if rng.next_below(6) == 0:
                j = rng.next_below(t)
                tup[j] = sum(1 << v for v in sample_without_replacement(rng, base, sizes[j]))
            members.append(tuple(tup))
    return SetPairSystem(base_size=base, sizes=sizes, members=tuple(members))


@pytest.mark.parametrize("k", [8, 17])
def test_rainbow_tensor_matches_exterior_algebra(k):
    field = make_binary_field(k)
    rng = Rng(60 + k)
    for _ in range(40):
        r = 1 + rng.next_below(3)
        t = 1 + rng.next_below(3)
        z = 1 + rng.next_below(4)
        n = r * t + rng.next_below(4)
        h = random_colored_hypergraph(n, r, t, z, rng)
        slots = [[cls[j] for cls in h.colors] for j in range(t)]
        assert rainbow_tensor(h, field).entries.tolist() == wedge_oracle(slots, n, field)


@pytest.mark.parametrize("k", [8, 17])
def test_setpair_wedge_grid_matches_exterior_algebra(k):
    # mixed grades, slots that meet, repeated members: every cell against the oracle
    field = make_binary_field(k)
    rng = Rng(70 + k)
    for _ in range(40):
        t = 2 + rng.next_below(2)
        sizes = tuple(1 + rng.next_below(3) for _ in range(t))
        base = sum(sizes) + rng.next_below(3)
        system = random_setpair_system(rng, t, sizes, base, 1 + rng.next_below(4), skew=False)
        slots = [[tup[j] for tup in system.members] for j in range(t)]
        limbs = _slot_limbs(system.members, t)
        disjoint = _disjoint_grid(limbs)
        entries = _wedge_grid(limbs, sizes, disjoint, base, field)
        assert entries.reshape(-1).tolist() == wedge_oracle(slots, base, field)
        assert np.array_equal(entries != 0, disjoint)


def _pair_product_oracle(system, field):
    """Each cell's product of x_u + x_v over the pairs of its picked vertices, by ``field.mul``."""
    out = []
    for cell in itertools.product(range(len(system.members)), repeat=system.t):
        picked = [v + 1 for j, i in enumerate(cell) for v in range(system.base_size) if system.members[i][j] >> v & 1]
        acc = 1
        for x, y in itertools.combinations(picked, 2):
            acc = field.mul(acc, x ^ y)  # a repeated vertex is a zero factor
        out.append(acc)
    return out


@pytest.mark.parametrize("k", [17, 20, 32, 63])
def test_wedge_grid_over_large_fields_matches_field_mul(k):
    # the shift-and-XOR products against Python field.mul: mixed grades, so the
    # cross runs are padded, and members that meet, so cells are masked
    field = make_binary_field(k)
    rng = Rng(80 + k)
    for case in range(30):
        t = 2 + rng.next_below(3)
        sizes = tuple(1 + rng.next_below(3) for _ in range(t))
        base = sum(sizes) + rng.next_below(40 if case % 2 else 3)
        system = random_setpair_system(rng, t, sizes, base, 1 + rng.next_below(4), skew=False)
        limbs = _slot_limbs(system.members, t)
        entries = _wedge_grid(limbs, sizes, _disjoint_grid(limbs), base, field)
        assert entries.dtype == entry_dtype(field)  # the dtype its Tensor keeps
        assert entries.reshape(-1).tolist() == _pair_product_oracle(system, field)


def test_bollobas_witnesses_match_enumeration():
    rng = Rng(91)
    seen = {"violating_member": 0, "violating_assignment": 0, "holds": 0}
    for case in range(400):
        t = 2 + rng.next_below(3)
        sizes = tuple(1 + rng.next_below(2) for _ in range(t))
        base = sum(sizes) + rng.next_below(4)
        m = rng.next_below(7)
        system = random_setpair_system(rng, t, sizes, base, m, skew=case % 3 == 0)
        want = hypothesis_loop(system)
        rep = bollobas_verify(system)
        got = {key: rep[key] for key in ("violating_member", "violating_assignment") if key in rep}
        assert got == want, system
        assert rep["hypothesis_ok"] == (not want)
        seen[next(iter(want), "holds")] += 1
    assert min(seen.values()) >= 40, seen


def test_wedge_grid_cap_before_allocation():
    # 257 members of three singleton slots: the grid would hold 257^3 = 16.97 M cells
    system = SetPairSystem(base_size=3, sizes=(1, 1, 1), members=((1, 2, 4),) * 257)
    with pytest.raises(ValueError, match=r"^grid of 257\^3 needs 16974593 cells, over the cap of 16777216 cells$"):
        bollobas_verify(system)


def _cyclic_latin_square(n):
    """Colors c of K_{n,n} on rows 0..n-1 and columns n..2n-1: edges {i, n + (i + c) mod n}.

    Each color is a perfect matching, and a rainbow matching of size n is a
    transversal of the cyclic Latin square, which has none at even n; a
    complete search for one is exponential in n.
    """
    return {"N": 2 * n, "r": 2, "t": n, "colors": [[[i, n + (i + c) % n] for i in range(n)] for c in range(n)]}


def test_rainbow_search_over_the_node_budget_exits_2(capsys, tmp_path):
    from flatrank.cli import main
    from flatrank.caps import MAX_SEARCH_NODES

    doc = tmp_path / "latin.json"
    doc.write_text(json.dumps(_cyclic_latin_square(6)))  # exhausted in 733 nodes
    assert main(["verify", "rainbow", str(doc)]) == 0
    capsys.readouterr()
    doc.write_text(json.dumps(_cyclic_latin_square(12)))
    assert main(["verify", "rainbow", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rainbow-matching search of size 12 needs at least {MAX_SEARCH_NODES + 1} nodes, over the cap" in captured.err


def test_rainbow_search_deeper_than_the_recursion_limit(tmp_path):
    # t = z = 1,100 colors, each the same 1,100 singletons: the first matching takes
    # edge c of color c, 1,100 levels deep, where a recursive search raised RecursionError
    from flatrank.cli import main

    n = 1100
    assert sys.getrecursionlimit() < n
    doc, out = tmp_path / "deep.json", tmp_path / "report.json"
    doc.write_text(json.dumps({"N": n, "r": 1, "t": n, "colors": [[[v] for v in range(n)]] * n}))
    assert main(["verify", "rainbow", str(doc), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["results"]["rainbow_matching"] == [[c, c] for c in range(n)]


@pytest.mark.parametrize("k", [8, 20])
def test_blocked_grids_match_one_block(k, monkeypatch):
    # with _BLOCK 1 every grid is built one member row at a time, and concatenated to
    # the grid of one block, over the log tables and over shift and XOR
    import flatrank.rainbow as rainbow

    field = make_binary_field(k)
    h = random_colored_hypergraph(12, 2, 3, 7, Rng(k))
    whole = rainbow_tensor(h, field).entries
    assert whole.any()
    pieces, blocked = [], rainbow._blocked
    monkeypatch.setattr(rainbow, "_BLOCK", 1)
    monkeypatch.setattr(
        rainbow, "_blocked", lambda fn, rows, per_row: blocked(lambda s: pieces.append(s) or fn(s), rows, per_row)
    )
    assert np.array_equal(rainbow_tensor(h, field).entries, whole)
    assert slice(6, 7) in pieces and slice(None) not in pieces
