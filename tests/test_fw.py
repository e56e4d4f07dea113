"""Configuration verifiers, tensors, bounds, and the bad-box sampler."""

import itertools
import json
import math
import sys
from itertools import product, repeat

import numpy as np
import pytest

from flatrank.fw import (
    BadBoxFamily,
    Configuration,
    badbox_clique_order,
    badbox_target_size,
    complete_graph_config,
    config_degree,
    config_max_degree,
    find_config_witness,
    find_odd_clique,
    fw_flattening_bound,
    fw_size_bound,
    fw_tensor,
    is_config_satisfying,
    sample_badbox_family,
    verify_badbox_chain,
    verify_fw_chain,
)
from flatrank.rng import Rng
from flatrank.setfam import SetFamily, _mask_limbs, intersection_size
from flatrank.caps import MAX_SEARCH_NODES
from flatrank.linalg import entry_dtype
from flatrank.tensor import flattening_rank, is_semi_diagonal

from oracles import (
    _violation_grid,
    grow_config_satisfying_family,
    odd_adjacency,
    odd_subsets,
    random_configuration,
)


FW_CFG = Configuration(k=2, p=2, C=(0b11,), L=(0,))


def _fw_tensor(fam, cfg):
    """The fw tensor of a nonempty family, on the grid of every member that the chain builds."""
    from flatrank.fw import _h_grid

    return fw_tensor(fam, cfg, _h_grid(fam.limbs[:, 0], cfg))


def test_config_degree_examples():
    assert config_degree(FW_CFG, 0) == 1
    k4 = complete_graph_config(4)
    assert all(config_degree(k4, a) == 3 for a in range(4))
    kwise = Configuration(k=3, p=2, C=((1 << 3) - 1,), L=(0,))
    assert config_max_degree(kwise) == 1
    with pytest.raises(IndexError):
        config_degree(FW_CFG, 2)


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(k=2, p=4, C=(0b11,), L=(0,))
    with pytest.raises(ValueError):
        Configuration(k=2, p=2, C=(0,), L=(0,))
    with pytest.raises(ValueError):
        Configuration(k=2, p=2, C=(0b100,), L=(0,))
    with pytest.raises(ValueError):
        Configuration(k=2, p=2, C=(0b11,), L=(0, 0))


def test_h_table_examples():
    # h(x) = prod_{l in L} (x - l) mod p, at the sizes up to the largest, below p
    from flatrank.fw import _h_table_np

    assert _h_table_np(FW_CFG, 1).tolist() == [0, 1]
    assert _h_table_np(Configuration(k=1, p=5, C=(1,), L=(1, 2)), 9).tolist() == [2, 0, 0, 2, 1]
    assert _h_table_np(Configuration(k=1, p=5, C=(1,), L=()), 2).tolist() == [1, 1, 1]


def test_is_config_satisfying_singletons():
    fam = SetFamily(n=4, members=tuple(1 << i for i in range(4)))
    assert is_config_satisfying(fam, FW_CFG)


def test_size_condition_violation():
    cfg = Configuration(k=2, p=2, C=(0b11,), L=(1,))
    fam = SetFamily(n=2, members=(0b01, 0b10))  # singleton sizes lie in L
    assert not is_config_satisfying(fam, cfg)


def test_empty_family_is_satisfying():
    assert is_config_satisfying(SetFamily(n=3, members=()), FW_CFG)


def test_witness_found_for_violating_family():
    # a concrete violating pair for the single-pair configuration:
    # sizes odd (not in L={0}) and intersection odd (not in L) -> witness
    fam = SetFamily(n=3, members=(0b011, 0b001))  # |A|=2 is even -> size cond fails
    assert not is_config_satisfying(fam, FW_CFG)
    fam2 = SetFamily(n=3, members=(0b111, 0b001))  # sizes 3, 1; |meet| = 1 odd
    w = find_config_witness(fam2, FW_CFG)
    assert w is not None and len(w) == 2
    assert not is_config_satisfying(fam2, FW_CFG)


@pytest.mark.parametrize(
    "members,satisfying,witness,grids",
    [
        ((0b111, 0b001), False, [0, 1], 1),  # sizes 3 and 1 avoid L, but they meet in 1
        ((0b011, 0b100), False, None, 1),  # only the size 2 of member 0 fails
        ((0b011,), False, None, 0),  # fails by size, and one member holds no witness
        ((0b001, 0b010), True, None, 1),
        ((0b001, 0b010, 0b001), True, None, 1),  # a repeated set reads its first cells
    ],
    ids=["witness", "sizes-only", "sizes-only-no-pair", "satisfying", "repeated-set"],
)
def test_fw_chain_builds_its_grid_once(monkeypatch, members, satisfying, witness, grids):
    import flatrank.fw as fw

    calls = []
    real = fw._h_grid
    monkeypatch.setattr(fw, "_h_grid", lambda *args: calls.append(args) or real(*args))
    fam = SetFamily(n=3, members=members)
    report = verify_fw_chain(fam, FW_CFG)
    assert len(calls) == grids
    assert report["satisfying"] is satisfying
    assert report.get("witness") == witness and ("witness" in report) is not satisfying
    if satisfying:  # the tensor ranked is the one fw_tensor builds over every member
        assert report["franks"] == [flattening_rank(_fw_tensor(fam, FW_CFG), j) for j in range(2)]


def test_witness_distinct_semantics():
    fam = SetFamily(n=3, members=(0b111, 0b111))  # same set twice
    # as sets there is only one member, so no witness of 2 distinct sets
    assert find_config_witness(fam, FW_CFG, distinct="sets") is None
    # as positions the pair intersects itself oddly
    assert find_config_witness(fam, FW_CFG, distinct="positions") is not None


def test_witness_search_is_ordered_for_asymmetric_c():
    # C = {{0,1}} of order 3 only constrains the first two slots, so the
    # witness may need a non-sorted assignment
    cfg = Configuration(k=3, p=2, C=(0b011,), L=(0,))
    x, y, z = 0b0111, 0b1001, 0b0100  # |x&y| = 1 odd, |x&z| = 1 odd, |y&z| = 0
    fam = SetFamily(n=4, members=(y, z, x))
    # sorted positions (0,1,2) put y,z in the constrained slots: |y&z| = 0 in L
    assert (y & z).bit_count() == 0
    w = find_config_witness(fam, cfg)
    assert w is not None
    a, b = fam.members[w[0]], fam.members[w[1]]
    assert (a & b).bit_count() % 2 == 1


def test_fw_tensor_diagonal_and_identity():
    fam = SetFamily(n=4, members=tuple(1 << i for i in range(4)))
    t = _fw_tensor(fam, FW_CFG)
    assert t.entries.tolist() == [1 if i == j else 0 for i in range(4) for j in range(4)]
    assert is_semi_diagonal(t)


def _naive_fw_entries(fam, cfg):
    """The fw tensor's entries in C order, cell by cell: product over C of h(intersection size)."""
    entries = []
    for idx in itertools.product(range(len(fam.members)), repeat=cfg.k):
        expected = 1
        for x in cfg.C:
            acc = (1 << fam.n) - 1
            for slot in range(cfg.k):
                if x >> slot & 1:
                    acc &= fam.members[idx[slot]]
            expected = expected * math.prod(acc.bit_count() - root for root in cfg.L) % cfg.p
        entries.append(expected)
    return entries


def test_fw_tensor_matches_naive_oracle():
    rng = Rng(123)
    for _ in range(10):
        n = 3 + rng.next_below(3)
        k = 2 + rng.next_below(2)
        p = (2, 3)[rng.next_below(2)]
        c_masks = []
        full = (1 << k) - 1
        for _ in range(1 + rng.next_below(3)):
            x = 1 + rng.next_below(full)
            if x not in c_masks:
                c_masks.append(x)
        lsize = 1 + rng.next_below(min(2, p - 1))
        cfg = Configuration(k=k, p=p, C=tuple(c_masks), L=tuple(range(lsize)))
        m = 1 + rng.next_below(4)
        fam = SetFamily(n=n, members=tuple(rng.next_below(1 << n) for _ in range(m)))
        assert _fw_tensor(fam, cfg).entries.tolist() == _naive_fw_entries(fam, cfg)


@pytest.mark.parametrize("distinct", ["sets", "positions"])
def test_fw_chain_agrees_with_the_violation_grid_oracle(monkeypatch, distinct):
    # the witness read off the product grid is the first hit of the per-member
    # violation grid, and a satisfying family's tensor is the cell-by-cell product
    import flatrank.fw as fw

    tensors = []
    ranks = fw.flattening_ranks
    monkeypatch.setattr(fw, "flattening_ranks", lambda t: tensors.append(t) or ranks(t))
    rng = Rng(31 if distinct == "sets" else 32)
    outcomes = []
    for _ in range(150):
        cfg = random_configuration(rng)
        n = 2 + rng.next_below(4)
        pool = [rng.next_below(1 << n) for _ in range(1 + rng.next_below(6))]
        fam = SetFamily(n=n, members=tuple(pool[rng.next_below(len(pool))] for _ in range(rng.next_below(8))))
        positions = list(range(len(fam.members)))
        if distinct == "sets":
            positions = sorted({mask: pos for pos, mask in reversed(list(enumerate(fam.members)))}.values())
        ok = _violation_grid([fam.members[p] for p in positions], cfg)
        # permutations yields the pairwise-distinct cells in C order
        hit = next((c for c in itertools.permutations(range(len(positions)), cfg.k) if ok[c]), None)
        want = None if hit is None else [positions[i] for i in hit]
        tensors.clear()
        report = verify_fw_chain(fam, cfg, distinct)
        assert report.get("witness") == want
        if report["satisfying"] and fam.members:
            assert tensors[0].entries.tolist() == _naive_fw_entries(fam, cfg)
        outcomes.append((report["satisfying"], want is not None, len(positions) < len(fam.members)))
    assert {(True, False), (False, True), (False, False)} <= {o[:2] for o in outcomes}
    if distinct == "sets":  # satisfying families with repeated sets expand the grid
        assert (True, False, True) in outcomes


def test_fw_bound_formulas():
    assert fw_flattening_bound(FW_CFG, 4, 0) == 5
    k3 = complete_graph_config(3)
    assert fw_flattening_bound(k3, 5, 0) == 16
    assert fw_size_bound(FW_CFG, 4) == 5
    kwise3 = Configuration(k=3, p=2, C=(0b111,), L=(0,))
    assert fw_size_bound(kwise3, 4) == 10
    assert fw_size_bound(k3, 5) == 32


def test_flattening_bound_holds_dynamically():
    rng = Rng(77)
    cfg = complete_graph_config(3)
    fam = grow_config_satisfying_family(cfg, 5, rng, candidate_budget=80)
    assert is_config_satisfying(fam, cfg)
    if fam.members:
        t = _fw_tensor(fam, cfg)
        for j in range(cfg.k):
            assert flattening_rank(t, j) <= fw_flattening_bound(cfg, fam.n, j)
        assert len(fam.members) <= fw_size_bound(cfg, fam.n)


def test_odd_subsets_count():
    for t in range(2, 7):
        assert len(odd_subsets(t)) == 1 << (t - 1)
    assert odd_subsets(3) == [0b001, 0b010, 0b100, 0b111]


def factor_family(members):
    """The bad-box family of the factor tuples ``members``, over the fewest t that holds them."""
    t = max(f.bit_length() for factors in members for f in factors)
    return BadBoxFamily(t=t, s=len(members[0]), k=1, members_factors=tuple(members), attempts=0, seed=0)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_odd_pairwise_odd_bound(t):
    # the parity argument: at most 2^((t-1)/2) odd subsets of [t] meet pairwise oddly
    bound = math.floor(2 ** ((t - 1) / 2))
    singles = [(x,) for x in odd_subsets(t)]
    assert find_odd_clique(factor_family(singles), bound) is not None  # the bound is attained
    assert find_odd_clique(factor_family(singles), bound + 1) is None


def test_badbox_target_size():
    assert badbox_target_size(3, 1) == 2  # ceil(2^0.5)
    assert badbox_target_size(3, 2) == 2
    assert badbox_target_size(5, 2) == 4
    assert badbox_target_size(5, 4) == 16


def test_badbox_clique_order():
    assert badbox_clique_order(3) == 8
    assert badbox_clique_order(5) == 16
    assert badbox_clique_order(2) == 8


def test_verify_badbox_free_small():
    members = ((0b001,), (0b010,))
    assert find_odd_clique(factor_family(members), 3) is None  # fewer than k members
    assert find_odd_clique(factor_family([(0b111,)] * 4), 4) is not None  # k copies pairwise odd


def test_verify_badbox_free_matches_bruteforce():
    rng = Rng(2)
    pool = odd_subsets(3)
    for _ in range(40):
        m = 3 + rng.next_below(4)
        members = [
            (pool[rng.next_below(4)], pool[rng.next_below(4)]) for _ in range(m)
        ]
        k = 2 + rng.next_below(3)
        brute = False
        for combo in itertools.combinations(range(m), k):
            if all(
                all(
                    (members[a][j] & members[b][j]).bit_count() % 2 == 1
                    for j in range(2)
                )
                for a, b in itertools.combinations(combo, 2)
            ):
                brute = True
                break
        assert (find_odd_clique(factor_family(members), k) is not None) == brute


def test_sampler_small_case():
    fam = sample_badbox_family(3, 1, seed=1)
    assert len(fam.members_factors) == 2
    assert fam.attempts >= 1
    flat = fam.flat_family()
    assert flat.n == 3
    assert all(mask.bit_count() % 2 == 1 for mask in flat.members)


@pytest.mark.parametrize("t,s", [(3, 1), (3, 2), (5, 2)])
def test_sampler_output_verifies(t, s):
    fam = sample_badbox_family(t, s, seed=11)
    assert find_odd_clique(fam, fam.k) is None
    cfg = complete_graph_config(fam.k)
    assert is_config_satisfying(fam.flat_family(), cfg, distinct="positions")
    # members really are product sets: size = product of factor sizes, odd
    for factors, mask in zip(fam.members_factors, fam.flat_masks()):
        assert mask.bit_count() == math.prod(f.bit_count() for f in factors)
        assert mask.bit_count() % 2 == 1


def test_sampler_rejects_large_ground_set():
    with pytest.raises(ValueError):
        sample_badbox_family(3, 4, seed=0)


def test_sampler_cap_before_the_power(monkeypatch):
    # 3^(10^7) would take seconds to compute and cannot be printed; the cap
    # passes at the third factor, 27 > 25, and one more is drawn to tell "at least"
    import flatrank.fw as fw

    drawn = []

    def counted(t, s):
        return map(lambda f: drawn.append(f) or f, repeat(t, s))

    class NoPower(int):
        def __pow__(self, exponent):
            raise AssertionError("t ** s computed")

    monkeypatch.setattr(fw, "repeat", counted)
    with pytest.raises(ValueError, match=r"^bad-box ground set 3\^10000000 needs at least 27 cells, over the cap of 25 cells$"):
        sample_badbox_family(NoPower(3), 10**7, seed=1)
    assert drawn == [3, 3, 3, 3]


def cell_masks(fam):
    """The flat masks of a product family, cell by cell: the oracle of ``flat_masks``."""
    out = []
    for factors in fam.members_factors:
        cells = [0]
        for f in factors:
            cells = [c * fam.t + e for c in cells for e in range(fam.t) if f >> e & 1]
        out.append(sum(1 << c for c in set(cells)))
    return tuple(out)


@pytest.mark.parametrize("t,s", [(2, 1), (3, 1), (3, 2), (3, 3), (5, 2), (4, 5), (7, 4)], ids=str)
def test_flat_masks_match_cell_oracle(t, s):
    rng = Rng(t * 10 + s)
    # any factor masks, the empty one and the full one included
    members = [tuple(rng.next_below(1 << t) for _ in range(s)) for _ in range(6)]
    members += [(0,) * s, ((1 << t) - 1,) * s]
    fam = BadBoxFamily(t=t, s=s, k=3, members_factors=tuple(members), attempts=0, seed=0)
    assert fam.flat_masks() == cell_masks(fam)


def test_badbox_chain_reports_the_clique():
    # members 0, 2 and 3 meet pairwise in odd sets, factor by factor; member 1 is
    # disjoint from member 0 in the first factor
    members = ((0b001, 0b111), (0b010, 0b111), (0b111, 0b001), (0b001, 0b001))
    fam = BadBoxFamily(t=3, s=2, k=3, members_factors=members, attempts=0, seed=0)
    report = verify_badbox_chain(fam, 3)
    assert report["witness"] == [0, 2, 3]
    assert not report["badbox_free"] and not report["config_satisfying"] and not report["verified"]
    assert verify_badbox_chain(fam, 4) == {
        "t": 3, "s": 2, "k": 4, "size": 4,
        "badbox_free": True, "config_satisfying": True, "verified": True,
    }


def test_badbox_chain_cap_before_the_masks(monkeypatch):
    def refuse(self):
        raise AssertionError("flat masks built")

    monkeypatch.setattr(BadBoxFamily, "flat_masks", refuse)
    # 2 * 3^15 flat cells; the factors are never read
    fam = BadBoxFamily(t=3, s=15, k=8, members_factors=((1,), (1,)), attempts=0, seed=0)
    with pytest.raises(ValueError, match=r"^2 bad-box members over \[3\]\^15 needs 28697814 cells, over the cap of 16777216 cells$"):
        verify_badbox_chain(fam, 8)
    # an empty family builds nothing, at any s
    empty = BadBoxFamily(t=3, s=10**7, k=8, members_factors=(), attempts=0, seed=0)
    assert verify_badbox_chain(empty, 8)["verified"]


def test_sampler_determinism():
    a = sample_badbox_family(5, 2, seed=42)
    b = sample_badbox_family(5, 2, seed=42)
    assert a == b


def test_grow_family_respects_bound_and_satisfaction():
    rng = Rng(17)
    for _ in range(10):
        cfg = Configuration(k=2, p=3, C=(0b11,), L=(0, 1))
        fam = grow_config_satisfying_family(cfg, 5, rng, candidate_budget=60)
        assert is_config_satisfying(fam, cfg)
        assert len(fam.members) <= fw_size_bound(cfg, 5)


def test_h_is_evaluated_only_at_sizes_that_occur(monkeypatch):
    # p may be close to 2^31: a table of h over all p residues took 0.6 s and
    # 46 MB at p = 1000003, even for an empty family
    import flatrank.fw as fw

    tables = []
    h = fw._h_table_np
    monkeypatch.setattr(fw, "_h_table_np", lambda cfg, top: tables.append(h(cfg, top)) or tables[-1])
    cfg = Configuration(k=2, p=1000003, C=(0b11,), L=(0, 3))
    reports = [
        verify_fw_chain(SetFamily(n=40, members=members), cfg)
        for members in ((), (0b111,), (0b011, 0b110, 0b101), (0b1111 << 36, 1))
    ]
    assert max(map(len, tables)) == 5  # h at the sizes 0..4
    assert [r["satisfying"] for r in reports] == [True, False, False, True]
    assert [(r["size_violations"], r["witness"]) for r in reports[1:3]] == [([0], None), ([], [0, 1])]
    assert reports[3]["verified"]


def test_failing_badbox_chain_searches_once(monkeypatch):
    import flatrank.fw as fw

    searches = []
    search = fw.find_odd_clique
    monkeypatch.setattr(fw, "find_odd_clique", lambda *args: searches.append(args) or search(*args))
    members = ((0b001, 0b111), (0b010, 0b111), (0b111, 0b001), (0b001, 0b001))
    fam = BadBoxFamily(t=3, s=2, k=3, members_factors=members, attempts=0, seed=0)
    assert verify_badbox_chain(fam, 3)["witness"] == [0, 2, 3]
    assert len(searches) == 1
    assert verify_badbox_chain(fam, 4)["verified"] and len(searches) == 2


def test_odd_subset_by_rank_matches_the_list():
    from flatrank.fw import _odd_subset

    for t in range(1, 13):
        assert [_odd_subset(i) for i in range(1 << (t - 1))] == odd_subsets(t)


@pytest.mark.parametrize("t,s", [(3, 1), (3, 2), (4, 2), (5, 2)])
def test_sampler_draws_as_from_the_list(t, s):
    # the draws of the list-based sampler: seeded families replay byte for byte
    pool = odd_subsets(t)
    for seed in (0, 1, 42):
        fam = sample_badbox_family(t, s, seed=seed)
        rng = Rng(Rng.sub_seed(seed, fam.attempts - 1))
        size = badbox_target_size(t, s)
        want = tuple(
            tuple(pool[rng.next_below(len(pool))] for _ in range(s)) for _ in range(size)
        )
        assert fam.members_factors == want


def _first_clique(adj, m, k):
    """The lexicographically first k positions that are pairwise adjacent in ``adj``, or None."""
    for combo in itertools.combinations(range(m), k):
        if all(adj[a] >> b & 1 for a, b in itertools.combinations(combo, 2)):
            return combo
    return None


def test_odd_adjacency_and_cliques_match_the_python_oracle():
    # t up to 70 puts factors on two limbs; repeated members meet themselves
    from flatrank.fw import _odd_adjacency

    rng = Rng(20)
    for _ in range(300):
        t, s, m = 1 + rng.next_below(70), 1 + rng.next_below(4), 1 + rng.next_below(12)
        pool = [tuple(rng.next_below(1 << t) for _ in range(s)) for _ in range(1 + rng.next_below(m))]
        members = [pool[rng.next_below(len(pool))] for _ in range(m)]
        adj = odd_adjacency(members)
        assert _odd_adjacency(factor_family(members).limbs) == adj
        for k in range(1, 6):
            assert find_odd_clique(factor_family(members), k) == _first_clique(adj, m, k)


def test_one_member_clique_builds_no_adjacency(monkeypatch):
    # at k = 1 the chain's grid has m cells, and m^2 adjacency bits would dwarf it
    import flatrank.fw as fw

    def built(members):
        raise AssertionError("adjacency built")

    monkeypatch.setattr(fw, "_odd_adjacency", built)
    fam = BadBoxFamily(t=3, s=1, k=1, members_factors=((0b111,),) * 50000, attempts=0, seed=0)
    assert verify_badbox_chain(fam, 1)["witness"] == [0]


def test_odd_adjacency_blocks_rows(monkeypatch):
    # blocks of a few rows, the last one short, give the same bitsets
    import flatrank.fw as fw

    rng = Rng(21)
    members = [(rng.next_below(1 << 70) | 1, rng.next_below(8) | 1) for _ in range(23)]
    whole = fw._odd_adjacency(factor_family(members).limbs)
    monkeypatch.setattr(fw, "_ADJACENCY_ENTRIES", 3 * 23)
    assert fw._odd_adjacency(factor_family(members).limbs) == whole == odd_adjacency(members)


def _assignments(m, k):
    """Index tuples of ``range(m)^k`` in C order with pairwise-distinct entries."""
    for cell in product(range(m), repeat=k):
        if all(a != b for a, b in itertools.combinations(cell, 2)):
            yield cell


@pytest.mark.parametrize("distinct", ["sets", "positions"])
def test_config_witness_is_the_first_hit_in_c_order(distinct):
    rng = Rng(22 if distinct == "sets" else 23)
    found = 0
    for _ in range(150):
        cfg = random_configuration(rng)
        n = 2 + rng.next_below(4)
        pool = [rng.next_below(1 << n) for _ in range(1 + rng.next_below(8))]
        fam = SetFamily(n=n, members=tuple(pool[rng.next_below(len(pool))] for _ in range(rng.next_below(9))))
        positions = list(range(len(fam.members)))
        if distinct == "sets":
            positions = sorted({mask: pos for pos, mask in reversed(list(enumerate(fam.members)))}.values())
        m = len(positions)
        grid = np.zeros((m,) * cfg.k, dtype=bool)
        for cell in _assignments(m, cfg.k):
            masks = [fam.members[positions[i]] for i in cell]
            grid[cell] = all(
                intersection_size([masks[j] for j in range(cfg.k) if x >> j & 1]) % cfg.p not in cfg.L
                for x in cfg.C
            )
        want = tuple(positions[int(i)] for i in np.argwhere(grid)[0]) if grid.any() else None
        assert find_config_witness(fam, cfg, distinct) == want
        found += want is not None
    assert 30 < found < 120  # both outcomes are exercised


def _turan_members(parts, size):
    """One-factor members whose odd-intersection graph is complete ``parts``-partite.

    Member i of part p is {0, p, e} with e its own element: members of one
    part meet in {0, p}, of two parts in {0}, so the largest cliques hold one
    member of each part, and a search for ``parts + 1`` of them visits about
    (size + 1)^parts nodes before it gives up.
    """
    return [
        (1 | 1 << p | 1 << (parts + 1 + (p - 1) * size + i),)
        for p in range(1, parts + 1)
        for i in range(size)
    ]


def test_odd_clique_search_stops_at_the_node_budget():
    members = _turan_members(11, 3)  # t = 45; 4,017,157 nodes to exhaust
    assert find_odd_clique(factor_family(members), 11) is not None
    with pytest.raises(ValueError, match=f"^odd-clique search of order 12 needs at least {MAX_SEARCH_NODES + 1} nodes, over the cap of {MAX_SEARCH_NODES} nodes$"):
        find_odd_clique(factor_family(members), 12)


def test_odd_clique_search_deeper_than_the_recursion_limit():
    # 1,100 copies of {0}: the only clique takes every member, 1,100 levels deep,
    # where a recursive search raised RecursionError
    n = 1100
    assert sys.getrecursionlimit() < n
    assert find_odd_clique(factor_family([(1,)] * n), n) == tuple(range(n))
    assert find_odd_clique(factor_family([(1,)] * n + [(2,)]), n + 1) is None


def test_odd_clique_search_counts_every_node_once(monkeypatch):
    from flatrank import caps

    members = _turan_members(4, 3)  # no 5-clique: 175 nodes to exhaust, root included
    monkeypatch.setattr(caps, "MAX_SEARCH_NODES", 175)
    assert find_odd_clique(factor_family(members), 5) is None
    monkeypatch.setattr(caps, "MAX_SEARCH_NODES", 174)
    with pytest.raises(ValueError, match="order 5 needs at least 175 nodes, over the cap of 174 nodes"):
        find_odd_clique(factor_family(members), 5)


def test_badbox_search_over_the_budget_exits_2(monkeypatch, capsys, tmp_path):
    from flatrank import caps
    from flatrank.cli import main

    # 12 members, no 5-clique: 175 nodes to exhaust.  Through the CLI the chain's
    # m^k configuration grid is capped first, which bounds this search far below
    # the budget, so the budget is lowered here
    members = _turan_members(4, 3)
    doc = tmp_path / "turan.json"
    doc.write_text(json.dumps({"t": 20, "s": 1, "k": 5, "members_factors": [list(f) for f in members]}))
    assert main(["verify", "badbox", str(doc)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(caps, "MAX_SEARCH_NODES", 100)
    assert main(["verify", "badbox", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "odd-clique search of order 5 needs at least 101 nodes, over the cap of 100 nodes" in captured.err


@pytest.mark.parametrize("p", [3, 13, 251, 65521, 2**31 - 1])
def test_h_grid_reduces_before_a_product_overflows(p):
    # every nonempty slot subset of k = 4 is in C: 15 factors, so the narrow working
    # grid (uint8 for p <= 13, uint16, uint32, uint64) must be reduced along the way;
    # it is handed over read-only in the entry dtype
    import flatrank.fw as fw

    cfg = Configuration(k=4, p=p, C=tuple(range(1, 16)), L=(p - 1,))
    rng = Rng(p)
    fam = SetFamily(n=9, members=tuple(rng.next_below(1 << 9) for _ in range(5)))
    grid = fw._h_grid(_mask_limbs(fam.members), cfg)
    assert grid.dtype == entry_dtype(cfg.field) and not grid.flags.writeable
    assert grid.reshape(-1).tolist() == _naive_fw_entries(fam, cfg)
    assert 0 < np.count_nonzero(grid) and grid.max() < p
