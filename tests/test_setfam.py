"""Cross-Oddtown families: verifiers, tensors, certificates, enumeration."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatrank.field import GF2
from flatrank.fw import Configuration, find_config_witness
from flatrank.rng import Rng
from flatrank.setfam import (
    SetFamily,
    _cross_even_with,
    _slot_limbs,
    TupleFamily,
    cross_oddtown_bound,
    intersection_size,
    is_cross_oddtown,
    oddtown_rank1_certificate,
    oddtown_tensor,
    reconstruct_from_certificate,
    repeated_singleton_family,
    verify_oddtown_chain,
)
from flatrank.tensor import (
    _CACHED_GRID_CELLS,
    _distinct_cells,
    distinct_cells,
    is_semi_diagonal,
    max_flattening_rank,
)

from oracles import (
    _rank_generic,
    enumerate_cross_oddtown,
    odd_tuple_candidates,
    reconstruct_from_certificate_int64,
    singleton_diagonal_family,
)


def test_intersection_size_examples():
    assert intersection_size([0b111]) == 3
    assert intersection_size([0b011, 0b110]) == 1
    with pytest.raises(ValueError):
        intersection_size([])


def test_intersection_size_random_against_membership_loop():
    rng = Rng(5)
    n = 10
    for _ in range(50):
        masks = [rng.next_below(1 << n) for _ in range(4)]
        direct = sum(1 for e in range(n) if all((m >> e) & 1 for m in masks))
        assert intersection_size(masks) == direct


def test_singleton_diagonal_family_is_oddtown():
    fam = singleton_diagonal_family(5, 2)
    assert is_cross_oddtown(fam)
    assert len(fam) == 5 == cross_oddtown_bound(5, 2)


def test_repeated_singletons_attain_bound():
    fam = repeated_singleton_family(4, 3)
    assert is_cross_oddtown(fam)
    assert len(fam) == 8 == cross_oddtown_bound(4, 3)


def test_cross_condition_violation():
    # two pairs sharing exactly one element across the cross pattern
    fam = TupleFamily(n=3, d=2, members=((0b001, 0b001), (0b011, 0b010)))
    # |A1(1) ∩ A2(2)| = |{0} ∩ {1}| = 0 even, |A2(1) ∩ A1(2)| = |{0,1} ∩ {0}| = 1 odd
    assert not is_cross_oddtown(fam)


def test_repeat_same_pair_violates_d2():
    tup = (0b001, 0b001)
    assert is_cross_oddtown(TupleFamily(n=1, d=2, members=(tup,)))
    assert not is_cross_oddtown(TupleFamily(n=1, d=2, members=(tup, tup)))


def test_oddtown_tensor_identity_for_singletons():
    fam = singleton_diagonal_family(3, 2)
    t = oddtown_tensor(fam)
    assert t.entries.tolist() == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert t.field == GF2


def test_oddtown_tensor_matches_parity_oracle():
    rng = Rng(9)
    n, d, m = 4, 3, 5
    members = tuple(tuple(rng.next_below(1 << n) for _ in range(d)) for _ in range(m))
    fam = TupleFamily(n=n, d=d, members=members)
    t = oddtown_tensor(fam)
    for idx in itertools.product(range(m), repeat=d):
        masks = [members[idx[j]][j] for j in range(d)]
        parity = intersection_size(masks) % 2
        assert t.array[idx] == parity


def test_oddtown_tensor_semi_diagonal_for_oddtown_families():
    for fam in (singleton_diagonal_family(4, 2), repeated_singleton_family(3, 3)):
        assert is_semi_diagonal(oddtown_tensor(fam))


def test_certificate_reconstructs_any_family():
    rng = Rng(31)
    for trial in range(20):
        n = 1 + rng.next_below(4)
        d = 2 + rng.next_below(2)
        m = 1 + rng.next_below(5)
        members = tuple(tuple(rng.next_below(1 << n) for _ in range(d)) for _ in range(m))
        fam = TupleFamily(n=n, d=d, members=members)
        cert = oddtown_rank1_certificate(fam)
        assert len(cert) == n
        assert np.array_equal(reconstruct_from_certificate(cert), oddtown_tensor(fam).array)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_float64_certificate_sum_equals_the_int64_oracle(data):
    n = data.draw(st.integers(1, 140))
    d = data.draw(st.integers(2, 4))
    m = data.draw(st.integers(1, 6))
    masks = st.integers(0, (1 << n) - 1)
    members = data.draw(st.lists(st.tuples(*[masks] * d), min_size=m, max_size=m))
    cert = oddtown_rank1_certificate(TupleFamily(n=n, d=d, members=tuple(members)))
    got = reconstruct_from_certificate(cert)
    assert got.dtype == np.int64 and got.shape == (m,) * d
    assert np.array_equal(got, reconstruct_from_certificate_int64(cert))


def test_float64_certificate_sum_is_exact_at_the_certificate_cap():
    # one member of two slots: n * (2 + 2) cells, so n = 2^22 is the largest n admitted,
    # and the one cell counts n or n - 1 elements, past float32's 2^24 / 2 spacing of 1
    n = 1 << 22
    for ones, parity in ((n, 0), (n - 1, 1)):
        fam = TupleFamily(n=n, d=2, members=(((1 << n) - 1, (1 << ones) - 1),))
        cert = oddtown_rank1_certificate(fam)
        got = reconstruct_from_certificate(cert)
        assert got.tolist() == [[parity]]
        assert np.array_equal(got, reconstruct_from_certificate_int64(cert))
        del cert
    with pytest.raises(ValueError, match=r"^certificate over 4194305 elements needs 16777220 cells, over the cap"):
        oddtown_rank1_certificate(TupleFamily(n=n + 1, d=2, members=((1, 1),)))


def test_distinct_cells_are_read_only_and_cached_up_to_a_size():
    small = distinct_cells(6, 3)
    assert distinct_cells(6, 3) is small
    assert [tuple(c) for c in np.argwhere(small)] == list(itertools.permutations(range(6), 3))
    with pytest.raises(ValueError, match="read-only"):
        small[0, 1, 2] = False
    with pytest.raises(ValueError, match="read-only"):
        small &= False
    m = 41  # 41^3 cells, over the cached size: built on every call, read-only too
    assert m**3 > _CACHED_GRID_CELLS
    large = distinct_cells(m, 3)
    assert distinct_cells(m, 3) is not large and not large.flags.writeable
    assert np.array_equal(large, distinct_cells(m, 3))
    for size in range(2, 40):  # a growing family: the cache keeps a bounded number of shapes
        distinct_cells(size, 2)
    info = _distinct_cells.cache_info()
    assert info.currsize <= info.maxsize == 16


def test_cached_distinct_cells_keep_their_cells_across_callers():
    # the greedy step, the configuration witness and the semi-diagonal test read
    # the same cached grids, and none of them writes one
    keys = ((2, 2), (3, 2), (3, 3))
    grids = {key: distinct_cells(*key) for key in keys}
    before = {key: grid.copy() for key, grid in grids.items()}
    limbs = _slot_limbs([(0b011,) * 3, (0b110,) * 3], 3)
    assert _cross_even_with(limbs, (0b1000,) * 3, 3, grids[2, 2])
    assert not _cross_even_with(limbs, (0b010,) * 3, 3, grids[2, 2])  # {1} in all three slots: odd
    cfg = Configuration(k=3, p=2, C=(0b011, 0b110), L=(0,))
    assert find_config_witness(SetFamily(n=3, members=(0b011, 0b110, 0b010)), cfg) is not None
    assert not is_cross_oddtown(TupleFamily(n=2, d=3, members=((1, 1, 1), (1, 1, 1), (1, 1, 1))))
    for key in keys:
        assert distinct_cells(*key) is grids[key]
        assert np.array_equal(grids[key], before[key])


def test_oddtown_chain_peak_memory():
    # 128 members at d = 3: a 2 M-cell parity grid, its flattenings and the
    # certificate's sum, read without an int64 index array of the distinct cells
    verify_oddtown_chain(repeated_singleton_family(2, 3))
    fam = repeated_singleton_family(64, 3)
    tracemalloc.start()
    try:
        report = verify_oddtown_chain(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["verified"]
    assert peak < 56 << 20


def test_certificate_caps_mfrank_at_n():
    fam = repeated_singleton_family(3, 3)
    t = oddtown_tensor(fam)
    assert max_flattening_rank(t) <= fam.n
    chain = verify_oddtown_chain(fam)
    assert chain["verified"]
    assert chain["mfrank_le_n"] and chain["certificate_reconstructs"]


def test_bound_formula():
    assert cross_oddtown_bound(5, 2) == 5
    assert cross_oddtown_bound(5, 3) == 10
    assert cross_oddtown_bound(1, 2) == 1
    with pytest.raises(ValueError):
        cross_oddtown_bound(0, 2)


def test_enumeration_agrees_with_direct_checker():
    seen = 0
    for members in itertools.islice(enumerate_cross_oddtown(3, 3, 4), 0, 3000, 37):
        fam = TupleFamily(n=3, d=3, members=members)
        assert is_cross_oddtown(fam)
        seen += 1
    assert seen > 10


@pytest.mark.parametrize("n,d,cap", [(2, 2, 3), (2, 3, 4), (1, 3, 3)])
def test_enumeration_is_complete_for_tiny_cases(n, d, cap):
    # independent population check: enumerate all multisets of candidates
    # directly and compare against the bitset DFS
    cands = odd_tuple_candidates(n, d)
    brute = set()
    for size in range(1, cap + 1):
        for combo in itertools.combinations_with_replacement(range(len(cands)), size):
            members = tuple(cands[i] for i in combo)
            if is_cross_oddtown(TupleFamily(n=n, d=d, members=members)):
                brute.add(members)
    dfs = set(enumerate_cross_oddtown(n, d, cap))
    assert dfs == brute


def test_enumeration_max_sizes_match_bound():
    for n, d in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]:
        cap = min(6, cross_oddtown_bound(n, d) + 1)
        best = max(len(f) for f in enumerate_cross_oddtown(n, d, cap))
        assert best == cross_oddtown_bound(n, d)


def _parity_oracle(fam):
    """Slow oracle: the parity grid from a product loop over intersection_size."""
    m, d = len(fam.members), fam.d
    grid = np.zeros((m,) * d, dtype=np.int64)
    for idx in itertools.product(range(m), repeat=d):
        grid[idx] = intersection_size([fam.members[idx[j]][j] for j in range(d)]) % 2
    return grid


def _cross_oddtown_oracle(fam):
    """Slow oracle: odd within each tuple, even across every d distinct positions."""
    if any(intersection_size(tup) % 2 == 0 for tup in fam.members):
        return False
    return all(
        intersection_size([fam.members[pos[j]][j] for j in range(fam.d)]) % 2 == 0
        for pos in itertools.permutations(range(len(fam.members)), fam.d)
    )


def _oracle_mfrank(fam):
    grid = _parity_oracle(fam)
    return max(
        _rank_generic(np.moveaxis(grid, ax, 0).reshape(len(fam), -1).tolist(), GF2)
        for ax in range(fam.d)
    )


def test_chain_verifies_enumerated_families():
    for members in itertools.islice(enumerate_cross_oddtown(3, 2, 4), 0, 500, 11):
        fam = TupleFamily(n=3, d=2, members=members)
        full = verify_oddtown_chain(fam)
        assert full["verified"] and full["is_cross_oddtown"]
        assert full["semi_diagonal"] and full["certificate_reconstructs"]
        assert full["mfrank"] == _oracle_mfrank(fam)
        assert full["mfrank_le_n"] and full["mfrank_lower_ok"]


def test_chain_wide_flattenings():
    # 18 members: each flattening has 324 columns, more than one 64-bit word
    fam = repeated_singleton_family(9, 3)
    full = verify_oddtown_chain(fam)
    assert full["verified"] and full["franks"] == [9, 9, 9]
    assert full["mfrank"] == _oracle_mfrank(fam) == 9
    assert full["mfrank_lower_ok"] and full["mfrank_le_n"]
    assert full["semi_diagonal"] and full["certificate_reconstructs"]


def _random_families():
    """Random families: d = 2..5, m < d, m = 1, repeated members, up to three limbs."""
    rnd = random.Random(2024)
    for trial in range(60):
        d = 2 + trial % 4
        n = rnd.choice([1, 3, 7, 63, 64, 65, 100, 130])
        m = rnd.choice([1, d - 1, d, d + 1, 2 * d]) if d < 5 else rnd.choice([1, 3, 4, 5])
        pool = [tuple(rnd.getrandbits(n) for _ in range(d)) for _ in range(max(1, m // 2))]
        members = tuple(rnd.choice(pool) for _ in range(m))
        yield TupleFamily(n=n, d=d, members=members)
    for n, d in ((130, 2), (65, 3), (70, 2)):
        yield singleton_diagonal_family(n, d)
    for n, d in ((3, 5), (2, 4), (66, 2)):
        yield repeated_singleton_family(n, d)
    # high bits only: the low limbs are all zero
    yield TupleFamily(n=130, d=3, members=(((1 << 129) | (1 << 64),) * 3,) * 2)


def test_parity_grid_matches_slow_oracle():
    for fam in _random_families():
        case = (fam.n, fam.d, fam.members)
        assert oddtown_tensor(fam).array.tolist() == _parity_oracle(fam).tolist(), case
        assert is_cross_oddtown(fam) == _cross_oddtown_oracle(fam), case
        cert = oddtown_rank1_certificate(fam)
        assert cert.shape == (fam.n, fam.d, len(fam)), case
        assert np.array_equal(reconstruct_from_certificate(cert), oddtown_tensor(fam).array), case


def _cross_even_with_loop(members, new, d):
    """The greedy step as a loop over slot arrangements of d - 1 distinct members."""
    if len(members) + 1 < d:
        return True
    for slot in range(d):
        for arrangement in itertools.permutations(range(len(members)), d - 1):
            acc = new[slot]
            others = iter(arrangement)
            for j in range(d):
                if j != slot:
                    acc &= members[next(others)][j]
            if acc.bit_count() % 2:
                return False
    return True


def test_greedy_step_matches_arrangement_loop():
    rnd = random.Random(11)
    cases = []
    for members in itertools.islice(enumerate_cross_oddtown(2, 3, 4), 0, 4000, 13):
        cases.append((members[:-1], members[-1], 3))  # joins: True
    for d, n in ((2, 3), (3, 2), (4, 2)):
        cands = odd_tuple_candidates(n, d)
        for _ in range(40):
            members = tuple(rnd.choice(cands) for _ in range(rnd.randrange(2 * d)))
            cases.append((members, rnd.choice(cands), d))
    for fam in _random_families():
        cases.append((fam.members[:-1], fam.members[-1], fam.d))
    answers = []
    for members, new, d in cases:
        want = _cross_even_with_loop(list(members), new, d)
        # the members' limbs as the greedy search keeps them, at the width of
        # the widest mask and one limb wider, with the members' own grid and
        # the corner of a larger one
        fits = _slot_limbs((*members, new), d).shape[2]
        for width in (fits, fits + 1):
            limbs = _slot_limbs(members, d, width)
            grid = distinct_cells(len(members) + width - fits, d - 1)
            assert _cross_even_with(limbs, new, d, grid) == want, (members, new, d)
        answers.append(want)
    assert answers.count(True) > 50 and answers.count(False) > 50


def test_empty_family_is_cross_oddtown():
    fam = TupleFamily(n=2, d=3, members=())
    assert is_cross_oddtown(fam)
    assert verify_oddtown_chain(fam)["verified"]


def test_chain_flags_non_oddtown_family():
    fam = TupleFamily(n=3, d=2, members=((0b001, 0b001), (0b011, 0b010)))
    chain = verify_oddtown_chain(fam)
    assert not chain["is_cross_oddtown"]
    assert not chain["verified"]


def test_mask_validation():
    with pytest.raises(ValueError):
        TupleFamily(n=2, d=2, members=((0b100, 0b001),))
    with pytest.raises(ValueError):
        SetFamily(n=2, members=(4,))
    with pytest.raises(ValueError):
        TupleFamily(n=2, d=1, members=())


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128])
def test_every_family_checks_its_mask_range_once(n):
    # the one range check of setfam._checked_limbs: 2^n - 1 fits, and 2^n and
    # -1 do not, in each of the five families of masks; the reader leaves the
    # range to the family
    from flatrank.formats import set_family_from_document
    from flatrank.fw import BadBoxFamily
    from flatrank.rainbow import ColoredHypergraph, SetPairSystem

    full = (1 << n) - 1
    families = {
        "member": [
            lambda x: SetFamily(n=n, members=(full, x)),
            lambda x: TupleFamily(n=n, d=2, members=((full, full), (full, x))),
            lambda x: SetPairSystem(base_size=n, sizes=(n, n), members=((full, full), (full, x))),
            lambda x: BadBoxFamily(t=n, s=2, k=2, members_factors=((full, full), (full, x)), attempts=0, seed=0),
        ],
        "color": [lambda x: ColoredHypergraph(num_vertices=n, r=n, t=1, colors=((full,), (x,)))],
    }
    for what, builds in families.items():
        for build in builds:
            limbs = build(full).limbs
            assert limbs.dtype == np.uint64 and limbs.shape[2] == -(-n // 64)
            assert {int.from_bytes(slot.tobytes(), "little") for slot in limbs.reshape(-1, limbs.shape[2])} == {full}
            for bad in (1 << n, -1):
                with pytest.raises(ValueError, match=f"^{what} 1: mask {bad} does not fit in {n} bits$"):
                    build(bad)
    with pytest.raises(ValueError, match=f"^member 0: mask {1 << n} does not fit in {n} bits$"):
        set_family_from_document({"n": n, "members": [1 << n]})


@pytest.mark.parametrize("members", [((0b001, 0b001), (0b011, 0b010)), ((1, 1), (2, 2), (4, 4))])
def test_chain_splits_the_masks_into_limbs_once(monkeypatch, members):
    # the family splits its masks once, when it is built; the parity tensor and
    # the certificate read that one (m, d, w) split
    import flatrank.setfam as setfam

    want = verify_oddtown_chain(TupleFamily(n=3, d=2, members=members))
    calls = []
    split = setfam._mask_limbs
    monkeypatch.setattr(setfam, "_mask_limbs", lambda *a: calls.append(a) or split(*a))
    fam = TupleFamily(n=3, d=2, members=members)
    assert verify_oddtown_chain(fam) == want
    assert len(calls) == 1
    assert np.array_equal(fam.limbs, _slot_limbs(members, 2))
