"""Tensor flattenings, ranks, semi-diagonality, and the two constructions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatrank.field import GF2, make_binary_field, make_prime_field
from flatrank.formats import canonical_json, load_document, tensor_from_document, tensor_to_document
from flatrank.fw import Configuration, fw_tensor, verify_fw_chain
from flatrank.linalg import entry_dtype
from flatrank.rainbow import SetPairSystem, bollobas_verify, rainbow_tensor
from flatrank.rng import Rng
from flatrank.setfam import SetFamily, oddtown_tensor, repeated_singleton_family
from flatrank.tensor import (
    Tensor,
    _axis_order,
    _flattening,
    axis_constant_construction,
    flattening_rank,
    flattening_ranks,
    index_class_arrays,
    is_semi_diagonal,
    max_flattening_rank,
    partition_construction,
    semi_diagonal_faults,
)

from oracles import (
    _rank_generic,
    add_tensors,
    hypergraph_from_vertex_lists,
    semi_diagonal_faults_naive,
    subtensor,
    tensor_key,
)

GF3 = make_prime_field(3)
GF5 = make_prime_field(5)


def random_tensor(dims, field, rng):
    entries = tuple(rng.next_below(field.order) for _ in range(math.prod(dims)))
    return Tensor(tuple(dims), field, entries)


def diagonal(a, d, field):
    """The tensor on A^d that is 1 on the diagonal and 0 elsewhere."""
    arr = np.zeros((a,) * d, dtype=np.int64)
    arr[(np.arange(a),) * d] = 1
    return Tensor.from_array(arr, field)


def zeros(dims, field):
    return Tensor(dims, field, [0] * math.prod(dims))


def small_tensors(fields=(GF2, GF3, GF5)):
    return st.builds(
        lambda dims, field, seed: random_tensor(dims, field, Rng(seed)),
        dims=st.lists(st.integers(1, 3), min_size=2, max_size=3).map(tuple),
        field=st.sampled_from(fields),
        seed=st.integers(0, 2**32),
    )


def decode_column(col, dims, axis):
    """Column index of the axis-``axis`` flattening -> multi-index of the other axes.

    The mixed-radix column encoding of the file-format contract, written out
    as the index oracle for ``_flattening``.
    """
    rest = [dims[j] for j in range(len(dims)) if j != axis]
    out = [0] * len(rest)
    for j in range(len(rest) - 1, -1, -1):
        col, out[j] = divmod(col, rest[j])
    return tuple(out)


def test_flatten_all_ones():
    t = Tensor((2, 2, 2), GF2, (1,) * 8)
    m = _flattening(t, 0)
    assert m.shape == (2, 4)
    assert (m == 1).all()
    assert flattening_rank(t, 0) == 1


def test_flatten_matrix_axes():
    ident = Tensor((3, 3), GF2, tuple(1 if i == j else 0 for i in range(3) for j in range(3)))
    m = _flattening(ident, 1)
    assert m.tolist() == [[1 if i == j else 0 for j in range(3)] for i in range(3)]


def test_flatten_matches_index_oracle():
    rng = Rng(11)
    t = random_tensor((2, 3, 2), GF5, rng)
    m = _flattening(t, 1)
    assert m.shape == (3, 4)
    for r in range(3):
        for c in range(4):
            rest = decode_column(c, t.dims, 1)
            idx = (rest[0], r, rest[1])
            assert m[r, c] == t.array[idx]


@pytest.mark.parametrize("field", [GF2, GF3, make_binary_field(8)], ids=str)
def test_flattenings_match_moveaxis(field):
    # transpose views of _axis_order are np.moveaxis's, strides and all, so
    # the flattenings copied from them keep the file format's column order
    rng = np.random.default_rng(field.order)
    for dims in [(3, 3, 3), (2, 2, 2, 2, 2), (4, 4), (2, 5), (3, 1, 4), (2, 3, 4, 2), (5, 2, 2)]:
        arr = rng.integers(0, field.order, dims)
        for src in range(arr.ndim):
            for dst in range(arr.ndim):
                view, want = arr.transpose(_axis_order(arr.ndim, src, dst)), np.moveaxis(arr, src, dst)
                assert (view.shape, view.strides) == (want.shape, want.strides)
        t = Tensor.from_array(arr, field)
        moved = [np.moveaxis(arr, ax, 0).reshape(dims[ax], -1) for ax in range(arr.ndim)]
        assert [_flattening(t, ax).tolist() for ax in range(arr.ndim)] == [m.tolist() for m in moved]
        assert flattening_ranks(t) == [_rank_generic(m.tolist(), field) for m in moved], dims


@given(data=st.data(), t=small_tensors())
@settings(max_examples=60, deadline=None)
def test_flatten_bijectivity(data, t):
    axis = data.draw(st.integers(0, t.ndim - 1))
    m = _flattening(t, axis)
    rows, cols = m.shape
    assert rows == t.dims[axis]
    rebuilt = {}
    for r in range(rows):
        for c in range(cols):
            rest = decode_column(c, t.dims, axis)
            idx = rest[:axis] + (r,) + rest[axis:]
            assert idx not in rebuilt
            rebuilt[idx] = int(m[r, c])
    assert len(rebuilt) == len(t.entries)
    for idx, v in rebuilt.items():
        assert t.array[idx] == v


def test_flattening_rank_examples():
    assert flattening_rank(Tensor((2, 2, 2), GF2, (1,) * 8), 2) == 1
    diag = diagonal(3, 3, GF2)
    assert [flattening_rank(diag, ax) for ax in range(3)] == [3, 3, 3]
    part = partition_construction(4, 3, GF2)
    assert [flattening_rank(part, ax) for ax in range(3)] == [2, 2, 2]
    assert flattening_rank(zeros((2, 2), GF2), 0) == 0


def test_axis_out_of_range():
    t = zeros((2, 2), GF2)
    with pytest.raises(IndexError):
        _flattening(t, 2)
    with pytest.raises(IndexError):
        flattening_rank(t, -1)


def test_max_flattening_rank_examples():
    t = axis_constant_construction(3, 3, 0, GF2)
    assert flattening_rank(t, 0) == 1
    assert flattening_rank(t, 1) == 3 and flattening_rank(t, 2) == 3
    assert max_flattening_rank(t) == 3
    assert max_flattening_rank(partition_construction(5, 3, GF2)) == 3
    assert max_flattening_rank(zeros((2, 2), GF2)) == 0


def test_sum_flattening_ranks_examples():
    diag2 = diagonal(2, 3, GF2)
    assert sum(flattening_ranks(diag2)) == 6
    part = partition_construction(4, 3, GF2)
    assert sum(flattening_ranks(part)) == 6  # tight at (3/2)*4
    assert sum(flattening_ranks(Tensor((2, 2, 2), GF2, (1,) * 8))) == 3


def test_flattening_ranks_match_per_axis(monkeypatch):
    import flatrank.tensor as tensor_mod

    calls = []
    rank = tensor_mod.matrix_rank
    monkeypatch.setattr(tensor_mod, "matrix_rank", lambda m, f: calls.append(m.shape) or rank(m, f))
    rng = Rng(8)
    dims_list = [(5,), (2, 3), (4, 4), (3, 1), (2, 3, 2), (3, 3, 3, 2), (3, 3, 3), (2, 2, 2, 2)]
    for dims in dims_list:
        for field in (GF2, GF3, GF5, make_binary_field(8)):
            entries = [rng.next_below(field.order) for _ in range(math.prod(dims))]
            t = Tensor(dims, field, entries)
            calls.clear()
            want = [flattening_rank(t, ax) for ax in range(len(dims))]
            calls.clear()
            assert flattening_ranks(t) == want
            # a matrix's second flattening is the transpose of its first, and the
            # flattenings of a cubical tensor are ranked as one batch: one rank call
            cubical = len(set(dims)) == 1
            assert len(calls) == (1 if len(dims) == 2 or cubical else len(dims))


def test_is_semi_diagonal():
    assert is_semi_diagonal(diagonal(3, 3, GF2))
    spoiled = list(Tensor((3, 3, 3), GF2, (1,) * 27).entries)
    spoiled[0] = 0  # kill T(0,0,0)
    assert not is_semi_diagonal(Tensor((3, 3, 3), GF2, tuple(spoiled)))
    for a in range(1, 6):
        for d in (2, 3, 4):
            assert is_semi_diagonal(partition_construction(a, d, GF3))
    with pytest.raises(ValueError, match="cubical"):
        is_semi_diagonal(zeros((2, 3), GF2))
    # at d == 1 each index is both constant and all-distinct, so nothing qualifies
    assert not is_semi_diagonal(Tensor((3,), GF2, (1, 1, 1)))


def test_semi_diagonal_when_d_exceeds_axis():
    # no all-distinct tuples exist, so only the diagonal matters
    assert is_semi_diagonal(Tensor((2, 2, 2), GF2, (1,) * 8))


@given(
    a=st.integers(1, 6),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    off=st.sampled_from([0.0, 0.002, 0.05, 0.5]),
    on=st.sampled_from([1.0, 0.9, 0.5]),
    as_bool=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_semi_diagonal_faults_match_the_cell_by_cell_oracle(a, d, seed, off, on, as_bool):
    # a < d has no pairwise-distinct cell, a == 1 one constant cell, and at d == 1
    # every cell is both; the moved axes are a grid that is not in C order
    rng = np.random.default_rng(seed)
    cells = (rng.random((a,) * d) < off) * rng.integers(1, 5, (a,) * d)
    cells[(np.arange(a),) * d] = (rng.random(a) < on) * rng.integers(1, 5, a)
    want = semi_diagonal_faults_naive(cells)
    assert is_semi_diagonal(Tensor.from_array(cells, GF5)) == (want == (None, None))
    if as_bool:
        cells = cells.astype(bool)
    assert semi_diagonal_faults(cells) == want
    moved = np.moveaxis(cells, 0, -1)
    assert semi_diagonal_faults(moved) == semi_diagonal_faults_naive(moved)


def test_subtensor_identity_and_restriction():
    diag = diagonal(3, 3, GF5)
    assert tensor_key(subtensor(diag, [range(3)] * 3)) == tensor_key(diag)
    small = subtensor(diag, [[0, 1]] * 3)
    assert tensor_key(small) == tensor_key(diagonal(2, 3, GF5))
    with pytest.raises(ValueError):
        subtensor(diag, [[0], [], [0]])
    with pytest.raises(IndexError):
        subtensor(diag, [[0], [3], [0]])
    with pytest.raises(ValueError):
        subtensor(diag, [[0, 0], [0], [0]])


@given(data=st.data(), t=small_tensors())
@settings(max_examples=50, deadline=None)
def test_subtensor_rank_monotone(data, t):
    subs = []
    for a in t.dims:
        size = data.draw(st.integers(1, a))
        subs.append(sorted(data.draw(st.permutations(range(a)))[:size]))
    restricted = subtensor(t, subs)
    for ax in range(t.ndim):
        assert flattening_rank(restricted, ax) <= flattening_rank(t, ax)
    assert max_flattening_rank(restricted) <= max_flattening_rank(t)


def test_add_tensors_identities():
    rng = Rng(3)
    t = random_tensor((2, 2, 2), GF5, rng)
    zero = zeros((2, 2, 2), GF5)
    assert tensor_key(add_tensors(t, zero)) == tensor_key(t)
    summed = add_tensors(t, Tensor(t.dims, GF5, (5 - t.entries) % 5))
    assert not summed.entries.any() and max_flattening_rank(summed) == 0
    with pytest.raises(ValueError):
        add_tensors(t, zeros((2, 2), GF5))
    with pytest.raises(ValueError):
        add_tensors(t, zeros((2, 2, 2), GF2))


@given(
    seed_a=st.integers(0, 2**32),
    seed_b=st.integers(0, 2**32),
    field=st.sampled_from([GF2, GF3, GF5]),
)
@settings(max_examples=60, deadline=None)
def test_subadditivity(seed_a, seed_b, field):
    s = random_tensor((2, 2, 2), field, Rng(seed_a))
    t = random_tensor((2, 2, 2), field, Rng(seed_b))
    total = add_tensors(s, t)
    for ax in range(3):
        assert flattening_rank(total, ax) <= flattening_rank(s, ax) + flattening_rank(t, ax)


@pytest.mark.parametrize("field", [GF2, GF3], ids=str)
def test_partition_construction_tightness(field):
    for a in range(1, 9):
        for d in range(2, 5):
            t = partition_construction(a, d, field)
            target = math.ceil(a / (d - 1))
            assert is_semi_diagonal(t)
            assert all(flattening_rank(t, ax) == target for ax in range(d))


def test_partition_construction_d2_is_identity():
    t = partition_construction(2, 2, GF2)
    assert t.entries.tolist() == [1, 0, 0, 1]


def test_partition_rejects_bad_params():
    with pytest.raises(ValueError):
        partition_construction(0, 3, GF2)
    with pytest.raises(ValueError):
        partition_construction(3, 1, GF2)


def test_axis_constant_construction():
    t = axis_constant_construction(3, 3, 1, GF2)
    assert flattening_rank(t, 1) == 1
    assert is_semi_diagonal(t)
    tiny = axis_constant_construction(1, 4, 2, GF2)
    assert tiny.entries.tolist() == [1]
    assert max_flattening_rank(axis_constant_construction(3, 3, 0, GF2)) == 3
    with pytest.raises(IndexError):
        axis_constant_construction(3, 3, 3, GF2)


def test_axis_constant_rank1_factorizes():
    # frank_axis == 1 comes with an explicit split T = f(a_axis) * g(rest)
    a, d, axis = 3, 3, 1
    t = axis_constant_construction(a, d, axis, GF2)

    def f(_x):
        return 1

    def g(rest):
        return int(all(v == rest[0] for v in rest))

    for flat in range(a**d):
        idx = []
        v = flat
        for _ in range(d):
            v, r = divmod(v, a)
            idx.append(r)
        idx.reverse()
        rest = tuple(idx[j] for j in range(d) if j != axis)
        assert t.entries[flat] == (f(idx[axis]) * g(rest)) % 2


def test_semidiagonal_population_small_exhaustive():
    # every GF(2) semi-diagonal tensor with unit diagonal at (a, d) = (2, 3):
    # mixed entries free, no all-distinct tuples
    diag, distinct, mixed = index_class_arrays(2, 3)
    assert distinct.size == 0
    worst_mfrank = 3
    worst_sum = None
    for v in range(1 << len(mixed)):
        entries = [0] * 8
        for flat in diag:
            entries[flat] = 1
        for t_i, flat in enumerate(mixed):
            entries[flat] = (v >> t_i) & 1
        t = Tensor((2, 2, 2), GF2, tuple(entries))
        assert is_semi_diagonal(t)
        mf = max_flattening_rank(t)
        s = sum(flattening_ranks(t))
        worst_mfrank = min(worst_mfrank, mf)
        worst_sum = s if worst_sum is None else min(worst_sum, s)
        assert mf >= 1  # ceil(2/2)
        assert s >= 3  # ceil((3/2)*2)
    assert worst_mfrank == 1


def test_entry_cap_guard():
    with pytest.raises(ValueError, match="cap"):
        Tensor((2,) * 25, GF2, ())  # refused before the entries are read


def test_document_cap_and_validation():
    with pytest.raises(ValueError):
        Tensor((2, 2), GF5, (0, 1, 2, 5))
    with pytest.raises(ValueError):
        Tensor((2, 2), GF5, (0, 1, 2))
    for bad in (True, 1.0, None, "1", 2**70):
        with pytest.raises(ValueError):
            Tensor((2, 2), GF5, (0, 1, 2, bad))
    with pytest.raises(ValueError):
        Tensor((2, 2), GF5, np.array([0.0, 1.0, 2.0, 3.0]))
    t = Tensor((2, 2), GF5, np.array([0, 1, 2, 3], dtype=np.uint8))
    with pytest.raises(ValueError):
        t.entries[0] = 4  # entries are read-only
    assert t.entries.dtype == np.uint8 and t.array[1, 1] == 3


def _scaled_permutation(dims, field, rng, terms):
    """Sum of ``terms`` scaled unit tensors at distinct indices on every axis."""
    arr = np.zeros(dims, dtype=np.int64)
    picks = tuple(rng.permutation(a)[:terms] for a in dims)
    arr[picks] = rng.integers(1, field.order, terms)
    return Tensor.from_array(arr, field)


def _sparse_tensors(dims, field, rng):
    """All-zero, one entry, a scaled permutation, a diagonal plus noise, a partition, dense."""
    size = math.prod(dims)
    one = np.zeros(size, dtype=np.int64)
    one[rng.integers(size)] = rng.integers(1, field.order)
    tensors = [
        zeros(dims, field),
        Tensor(dims, field, one),
        _scaled_permutation(dims, field, rng, min(dims)),
        add_tensors(_scaled_permutation(dims, field, rng, min(dims)), Tensor(dims, field, one)),
        Tensor(dims, field, rng.integers(0, field.order, size)),
    ]
    if len(set(dims)) == 1 and len(dims) > 1:
        tensors.append(partition_construction(dims[0], len(dims), field))
    return tensors


@pytest.mark.parametrize(
    "field",
    [GF2, GF3, make_prime_field(7), make_binary_field(8), make_binary_field(16)],
    ids=str,
)
def test_sparse_flattening_ranks_match_generic(field, monkeypatch):
    import flatrank.tensor as tensor_mod

    shapes = []
    rank = tensor_mod.matrix_rank
    monkeypatch.setattr(tensor_mod, "matrix_rank", lambda m, f: shapes.append(m.shape) or rank(m, f))
    rng = np.random.default_rng(field.order)
    for dims in [(4, 4), (3, 5), (4, 4, 4), (3, 3, 3, 3), (2, 3, 4), (5, 2, 2)]:
        for t in _sparse_tensors(dims, field, rng):
            shapes.clear()
            want = [_rank_generic(_flattening(t, ax).tolist(), field) for ax in range(t.ndim)]
            assert flattening_ranks(t) == want, (dims, t.entries.tolist())
            assert [flattening_rank(t, ax) for ax in range(t.ndim)] == want
            full = [math.prod(dims) // dims[ax] for ax in range(t.ndim)]
            if field.order == 2:  # never compacted
                assert all(s[-1] in full for s in shapes)


def test_compaction_keeps_only_live_columns(monkeypatch):
    import flatrank.tensor as tensor_mod

    shapes = []
    rank = tensor_mod.matrix_rank
    monkeypatch.setattr(tensor_mod, "matrix_rank", lambda m, f: shapes.append(m.shape) or rank(m, f))
    rng = np.random.default_rng(4)
    # one entry: one live column of 16, fewer than the 4 rows
    one = np.zeros(64, dtype=np.int64)
    one[39] = 2  # (2, 1, 3): column 7, 11 and 9 of the three flattenings
    assert flattening_ranks(Tensor((4, 4, 4), GF3, one)) == [1, 1, 1]
    assert shapes[-1] == (3, 4, 3)
    assert flattening_ranks(zeros((4, 4, 4), GF3)) == [0, 0, 0] and shapes[-1] == (3, 4, 0)
    # a dense tensor keeps every column, and GF(2) is never compacted
    flattening_ranks(random_tensor((3, 3, 3), GF3, Rng(2)))
    assert shapes[-1] == (3, 3, 9)
    assert flattening_ranks(Tensor((4, 4, 4), GF2, one // 2)) == [1, 1, 1]
    assert shapes[-1] == (3, 4, 16)
    # compaction needs at least half of the columns dead: 8 live columns of 16 go,
    # 9 stay
    for live, kept in [(8, 8), (9, 16)]:
        m = np.zeros((4, 16), dtype=np.int64)
        m[rng.integers(0, 4, live), rng.permutation(16)[:live]] = rng.integers(1, 3, live)
        flattening_ranks(Tensor.from_array(m, GF3))
        assert shapes[-1] == (1, 4, kept)
    # the single-axis path compacts its one flattening
    assert flattening_rank(Tensor((4, 4, 4), GF3, one), 1) == 1 and shapes[-1] == (1, 4, 1)
    assert flattening_rank(Tensor((4, 4), GF3, one[:16]), 0) == 0 and shapes[-1] == (1, 4, 0)


@pytest.mark.parametrize("field", [GF2, GF3, make_binary_field(8)], ids=str)
def test_cubical_ranks_stack_only_within_the_dense_cap(field, monkeypatch):
    # the d flattenings of a^d are stacked while their d a^d entries fit the dense
    # cap; one entry past it, each axis is ranked on its own, to the same ranks
    import flatrank.tensor as tensor_mod
    from flatrank import caps

    shapes = []
    rank = tensor_mod.matrix_rank
    monkeypatch.setattr(tensor_mod, "matrix_rank", lambda m, f: shapes.append(m.shape[0]) or rank(m, f))
    rng = np.random.default_rng(field.order)
    for t in (Tensor((3,) * 4, field, rng.integers(0, field.order, 81)), partition_construction(3, 4, field)):
        stacked = flattening_ranks(t)
        monkeypatch.setattr(caps, "MAX_ENTRIES", 4 * 81 - 1)
        shapes.clear()
        assert flattening_ranks(t) == stacked == [_rank_generic(_flattening(t, ax).tolist(), field) for ax in range(4)]
        assert shapes == [1] * 4
        monkeypatch.setattr(caps, "MAX_ENTRIES", 4 * 81)
        shapes.clear()
        assert flattening_ranks(t) == stacked and shapes == [4]


def test_scaled_permutation_ranks_without_a_clear(monkeypatch):
    # the full-rank 8^5 tensor of the benchmark's rank documents over GF(2^8): its
    # flattenings keep at most 5 * 8 live columns, few enough for byte rows, and
    # the batched kernel finds nothing to clear on that stack either
    import flatrank.linalg as linalg
    import flatrank.tensor as tensor_mod

    field = make_binary_field(8)
    t = _scaled_permutation((8,) * 5, field, np.random.default_rng(8), 8)
    stacks, clears = [], []
    rank = tensor_mod.matrix_rank
    monkeypatch.setattr(tensor_mod, "matrix_rank", lambda m, f: stacks.append(m.copy()) or rank(m, f))
    eliminate = linalg._eliminate
    monkeypatch.setattr(
        linalg,
        "_eliminate",
        lambda m, ws, settle, clear: eliminate(m, ws, settle, lambda *args: clears.append(args)),
    )
    assert flattening_ranks(t) == [8] * 5
    assert len(stacks) == 1 and stacks[0].shape[:2] == (5, 8) and stacks[0].shape[2] <= 40
    ws = linalg._Workspace(linalg._elimination_sizes(*stacks[0].shape, field))
    work = ws.take("work", *stacks[0].shape)
    np.copyto(work, stacks[0])
    assert linalg._rank_into(work, field, ws).tolist() == [8] * 5
    assert clears == []


def test_tensor_keeps_only_frozen_owned_arrays(monkeypatch):
    import flatrank.tensor as tensor_mod

    # a caller's writeable array is copied and stays writeable
    arr = np.array([0, 1, 2, 3], dtype=np.uint8)
    t = Tensor((2, 2), GF5, arr)
    assert arr.flags.writeable and not np.shares_memory(arr, t.entries)
    # a read-only view of a writeable array could still change: copied
    view = arr.view()
    view.flags.writeable = False
    assert not np.shares_memory(Tensor((2, 2), GF5, view).entries, arr)
    # an owned read-only array in the field's entry dtype cannot change: checked and kept
    frozen = arr.copy()
    frozen.flags.writeable = False
    assert np.shares_memory(Tensor((2, 2), GF5, frozen).entries, frozen)
    # in any other dtype it is cast once, after its range is checked in its own
    wide = frozen.astype(np.int64)
    wide.flags.writeable = False
    assert Tensor((2, 2), GF5, wide).entries.dtype == np.uint8
    for bad, entry in [([0, 1, 2, 5], 5), ([0, 1, 2, 259], 259), ([0, -1, 2, 3], -1)]:
        bad = np.array(bad, dtype=np.int64)
        bad.flags.writeable = False
        with pytest.raises(ValueError, match=f"^entry {entry} is not canonical"):
            Tensor((2, 2), GF5, bad)
    # the constructions hand over the arrays they build, uncopied
    built, frozen_by = [], tensor_mod._frozen
    monkeypatch.setattr(tensor_mod, "_frozen", lambda a: built.append(frozen_by(a)) or built[-1])
    made = [partition_construction(4, 3, GF3), axis_constant_construction(3, 3, 1, GF3)]
    assert [np.shares_memory(t.entries, grid) for t, grid in zip(made, built)] == [True, True]
    # only sequences go through the int64 conversion
    copies = []
    convert = tensor_mod.integer_array
    monkeypatch.setattr(tensor_mod, "integer_array", lambda *a: copies.append(a[1]) or convert(*a))
    Tensor.from_array(np.ones((2, 2), dtype=np.int64), GF3)
    assert copies == []
    Tensor((2, 2), GF3, [1, 1, 1, 1])
    assert copies == ["tensor entries"]



def _read_document(t, sparse, tmp_path):
    """``t`` written as a dense or sparse document, and read back from the file."""
    path = tmp_path / "t.json"
    path.write_text(canonical_json(tensor_to_document(t, sparse=sparse)))
    return tensor_from_document(load_document(str(path))[0])


def _violation_witness(field, monkeypatch):
    """A 4^3 sweep over ``field`` whose kernel is made to rank tensor 5 low, so it builds a witness."""
    import flatrank.search as search

    kernel = "_packed_population_ranks" if field.order == 2 else "_block_ranks"
    real = getattr(search, kernel)

    def faked(*args):
        mfrank, sumrank = real(*args)
        mfrank = mfrank.copy()
        mfrank[5] = 0
        return mfrank, sumrank

    monkeypatch.setattr(search, kernel, faked)
    assert search.random_semidiagonal_sweep(4, 3, 9, seed=41, field=field).violations == 1


# name -> a call, given a field, a temporary directory and monkeypatch, that builds tensors
# over that field
PRODUCERS = {
    "partition": lambda f, tmp, mp: partition_construction(4, 3, f),
    "axis-constant": lambda f, tmp, mp: axis_constant_construction(3, 3, 1, f),
    "dense-document": lambda f, tmp, mp: _read_document(partition_construction(4, 3, f), False, tmp),
    "sparse-document": lambda f, tmp, mp: _read_document(partition_construction(4, 3, f), True, tmp),
    "violation-witness": lambda f, tmp, mp: _violation_witness(f, mp),
}
# name -> a call that builds tensors over a field of its own
OWN_FIELD = {
    "oddtown": lambda: oddtown_tensor(repeated_singleton_family(3, 3)),
    "fw": lambda: fw_tensor(
        SetFamily(n=4, members=(0b0011, 0b0101, 0b1110)), Configuration(k=2, p=17, C=(0b11, 0b01), L=(0,))
    ),
    # a family that repeats a set: the chain's tensor reads the grid of its distinct sets
    "fw-chain": lambda: verify_fw_chain(SetFamily(n=2, members=(1, 2, 1)), Configuration(k=2, p=2, C=(3,), L=(0,))),
    "rainbow": lambda: rainbow_tensor(
        hypergraph_from_vertex_lists(6, 2, 2, [[[0, 1], [2, 3]], [[4, 5], [0, 2]]])
    ),
    "bollobas": lambda: bollobas_verify(
        SetPairSystem(base_size=4, sizes=(1, 1, 2), members=((0b0001, 0b0010, 0b1100), (0b0010, 0b0100, 0b1001)))
    ),
}


@pytest.mark.parametrize(
    "name,field",
    [(name, f) for name in PRODUCERS for f in (GF2, GF5, make_binary_field(8))]
    + [(name, None) for name in OWN_FIELD],
    ids=str,
)
def test_every_producer_keeps_the_entry_dtype(name, field, monkeypatch, tmp_path):
    # every tensor a producer builds holds its entries read-only, in the dtype the rank
    # kernels read: nothing casts them again before ranking.  Every producer but a
    # sweep's witness hands over an array the tensor keeps: it shares that memory
    built, init = [], Tensor.__post_init__
    monkeypatch.setattr(Tensor, "__post_init__", lambda self: built.append((self.entries, self)) or init(self))
    if field is None:
        OWN_FIELD[name]()
    else:
        PRODUCERS[name](field, tmp_path, monkeypatch)
    assert built
    for handed, t in built:
        assert t.entries.dtype == entry_dtype(t.field) and t.entries.ndim == 1
        assert not t.entries.flags.writeable
        assert name == "violation-witness" or np.shares_memory(handed, t.entries)
