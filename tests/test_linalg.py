"""Rank kernels cross-checked against enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatrank.field import discrete_log_tables, make_binary_field, make_prime_field
from flatrank.linalg import matrix_rank, rank_gf2_bitrows
from flatrank.rng import Rng

from oracles import Arith, _rank_generic


def _batched_ranks(mats, field):
    """Ranks of an (N, r, c) batch, r <= c, through the batched kernel, whatever its size;
    over GF(2), which has none, through the bit rows."""
    from flatrank.linalg import _elimination_sizes, _rank_gf2, _rank_into, _Workspace

    mats = np.asarray(mats)
    if field.order == 2:
        return _rank_gf2(mats % 2).tolist()
    ws = _Workspace(_elimination_sizes(*mats.shape, field))
    work = ws.take("work", *mats.shape)
    np.copyto(work, mats % field.order if field.kind == "prime" else mats, casting="unsafe")
    return _rank_into(work, field, ws).tolist()


def _rank(rows, field):
    """``matrix_rank`` of the one matrix ``rows``, as the (1, r, c) stack a tensor hands it."""
    return int(matrix_rank(np.array([rows], dtype=np.int64), field)[0])


def span_size_rank(rows, field):
    """Oracle: the row span of r independent rows has order^rank elements."""
    span = {0: tuple([0] * len(rows[0]))} if rows else {}
    vectors = {tuple([0] * len(rows[0]))} if rows else set()
    field = Arith.of(field)
    for row in rows:
        new = set()
        for v in vectors:
            for c in range(field.order):
                cand = tuple(field.add(x, field.mul(c, y)) for x, y in zip(v, row))
                new.add(cand)
        vectors |= new
    if not rows:
        return 0
    size = len(vectors)
    rank = 0
    while size > 1:
        size //= field.order
        rank += 1
    return rank


def test_rank_gf2_bitrows_basics():
    assert rank_gf2_bitrows([]) == 0
    assert rank_gf2_bitrows([0, 0]) == 0
    assert rank_gf2_bitrows([0b1, 0b10, 0b11]) == 2
    assert rank_gf2_bitrows([0b101, 0b011, 0b110]) == 2


@pytest.mark.parametrize(
    "field",
    [make_prime_field(2), make_prime_field(3), make_prime_field(5), make_binary_field(3)],
    ids=str,
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_matrix_rank_matches_span_oracle(field, data):
    nrows = data.draw(st.integers(1, 3))
    ncols = data.draw(st.integers(1, 4))
    rows = [
        [data.draw(st.integers(0, field.order - 1)) for _ in range(ncols)] for _ in range(nrows)
    ]
    assert _rank(rows, field) == span_size_rank(rows, field)


def test_rank_wide_matrix_mod_p():
    f = make_prime_field(3)
    rows = [[1, 2, 0, 1, 2, 0], [2, 1, 0, 2, 1, 0], [0, 0, 1, 1, 1, 1]]
    # row2 = 2*row1 mod 3
    assert _rank(rows, f) == 2


def test_gf2k_rank_matches_generic_elimination():
    f = make_binary_field(8)
    rng = Rng(77)
    for _ in range(30):
        nrows = 2 + rng.next_below(4)
        ncols = 2 + rng.next_below(5)
        rows = [[rng.next_below(f.order) for _ in range(ncols)] for _ in range(nrows)]
        assert _rank(rows, f) == _rank_generic([list(r) for r in rows], f)


RANK_FIELDS = [
    make_prime_field(2),
    make_prime_field(3),
    make_prime_field(5),
    make_binary_field(3),
    make_binary_field(8),
    make_binary_field(17),  # beyond the log tables: multiplied by shift and XOR
]


def _combine(field, coeffs, rows):
    """sum_i coeffs[i] * rows[i] over the field."""
    out, field = [0] * len(rows[0]), Arith.of(field)
    for c, row in zip(coeffs, rows):
        out = [field.add(x, field.mul(c, y)) for x, y in zip(out, row)]
    return out


@st.composite
def field_matrices(draw, field, nrows, ncols):
    """All-zero, uniformly random, or rank-deficient (rows from a smaller basis)."""
    kind = draw(st.sampled_from(["zero", "random", "deficient"]))
    if kind == "zero":
        return [[0] * ncols for _ in range(nrows)]
    entry = st.integers(0, field.order - 1)
    if kind == "random":
        return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    k = draw(st.integers(1, max(1, min(nrows, ncols) - 1)))
    basis = [[draw(entry) for _ in range(ncols)] for _ in range(k)]
    return [_combine(field, [draw(entry) for _ in range(k)], basis) for _ in range(nrows)]


@pytest.mark.parametrize("field", RANK_FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_matrix_rank_matches_generic(field, data):
    nrows = data.draw(st.integers(1, 7), label="rows")
    ncols = data.draw(st.integers(1, 7), label="cols")
    rows = data.draw(field_matrices(field, nrows, ncols))
    assert _rank(rows, field) == _rank_generic([list(r) for r in rows], field)


@pytest.mark.parametrize("field", RANK_FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_batched_rank_matches_generic(field, data):
    count = data.draw(st.sampled_from([1, 2, 5]), label="N")
    nrows = data.draw(st.integers(1, 6), label="rows")
    ncols = data.draw(st.integers(1, 6), label="cols")
    mats = [data.draw(field_matrices(field, nrows, ncols)) for _ in range(count)]
    ranks = matrix_rank(np.array(mats, dtype=np.int64), field)
    assert ranks.shape == (count,)
    want = [_rank_generic([list(r) for r in m], field) for m in mats]
    assert ranks.tolist() == want
    batch = np.array(mats, dtype=np.int64)  # the sweeps' kernel, which small batches skip
    assert _batched_ranks(batch if nrows <= ncols else batch.transpose(0, 2, 1), field) == want


@pytest.mark.parametrize("field", RANK_FIELDS, ids=str)
def test_wide_and_tall_rank_deficient(field):
    # the 8 x a^(d-1) shape of a flattening, rank 3 by construction, and its transpose
    rng = Rng(field.order)
    basis = [[rng.next_below(field.order) for _ in range(4096)] for _ in range(3)]
    rows = basis + [
        _combine(field, [rng.next_below(field.order) for _ in range(3)], basis) for _ in range(5)
    ]
    expected = _rank_generic([list(r) for r in rows], field)
    assert expected == 3
    wide = np.array(rows, dtype=np.int64)
    assert matrix_rank(wide[None], field).tolist() == [expected]
    assert matrix_rank(wide.T[None], field).tolist() == [expected]
    assert matrix_rank(np.stack([wide, np.zeros_like(wide)]), field).tolist() == [expected, 0]


def test_matrix_rank_empty_shapes():
    # a stack of no matrices, of matrices with no columns, and of zero matrices, whose
    # columns are all dropped over a field of order > 2
    for f in (make_prime_field(2), make_prime_field(3), make_binary_field(2), make_binary_field(17)):
        assert matrix_rank(np.zeros((0, 2, 2), dtype=np.int64), f).tolist() == []
        assert matrix_rank(np.zeros((3, 4, 0), dtype=np.uint8), f).tolist() == [0, 0, 0]
        assert matrix_rank(np.zeros((2, 3, 5), dtype=np.uint8), f).tolist() == [0, 0]


DIFF_PRIMES = [3, 5, 7, 11, 13, 127, 251, 257, 65521, 2**31 - 1]
DTYPE_LIMITS = [np.iinfo(t).max for t in (np.uint8, np.uint16, np.uint32)]


def _limits_within_reach(p):
    """(dtype max, largest r whose bound p-1 + (r-1)(p-1)^2 fits it), for r <= 64."""
    lasts = [(top, 1 + (top - (p - 1)) // (p - 1) ** 2) for top in DTYPE_LIMITS]
    return [(top, last) for top, last in lasts if 1 <= last <= 64]


def _mod_p_batch(rng, p, count, r, c):
    """Random, zero and rank-deficient (r, c) matrices of canonical entries."""
    mats = rng.integers(0, p, (count, r, c), dtype=np.int64)
    mats[0] = 0
    if count > 1 and r > 1:  # matrix 1: every row a combination of two rows, rank <= 2
        coeffs = rng.integers(0, min(p, 1 << 15), (r, 2))
        mats[1] = [(int(x) * mats[1, 0] + int(y) * mats[1, -1]) % p for x, y in coeffs]
    return mats


def _worst_case(p, r, c):
    """Rank r-1: rows R_j + sum of R_i (i < j), R_i = -1 from column i on, the last
    row repeating the one before.  Every clearing step then multiplies a row of -1s
    by -1, adding the most, (p-1)^2, to each entry it touches, and only the last row
    is dependent, so an entry that overflowed would show as rank r."""
    steps = np.triu(np.full((r, c), p - 1, dtype=object))
    rows = np.cumsum(steps, axis=0) % p
    rows[-1] = rows[-2]
    return rows.astype(np.int64)


@pytest.mark.parametrize("p", DIFF_PRIMES)
def test_mod_p_rank_matches_generic_across_dtype_limits(p):
    from flatrank.linalg import _lazy_plan

    field = make_prime_field(p)
    rng = np.random.default_rng(p)
    limits = _limits_within_reach(p)
    for r in sorted({1, 2, 3, 5, 6, 7, 8}.union(*({last, last + 1} for _, last in limits))):
        for c in (r, r + 3):
            mats = _mod_p_batch(rng, p, 3, r, c)
            want = [_rank_generic(m.tolist(), field) for m in mats]
            assert matrix_rank(mats, field).tolist() == want, (p, r, c, _lazy_plan(p, r))
            assert matrix_rank(mats.transpose(0, 2, 1), field).tolist() == want
            assert _batched_ranks(mats, field) == want, (p, r, c, _lazy_plan(p, r))
            if r > 1:
                assert matrix_rank(_worst_case(p, r, c)[None], field).tolist() == [r - 1]
                assert _batched_ranks(_worst_case(p, r, c)[None], field) == [r - 1]
    for top, last in limits:  # the plans really change dtype at the chosen r
        assert np.iinfo(_lazy_plan(p, last)[0]).max == top
        assert np.iinfo(_lazy_plan(p, last + 1)[0]).max > top


def test_lazy_plan():
    from flatrank.linalg import _lazy_plan

    assert _lazy_plan(3, 8) == (np.uint8, 63)  # 2 + 63 * 4 <= 255: never reduced
    assert _lazy_plan(5, 8) == (np.uint8, 15)
    assert _lazy_plan(5, 17)[0] is np.uint16
    assert _lazy_plan(65521, 8)[0] is np.uint64
    assert _lazy_plan(2**31 - 1, 8) == (np.uint64, 4)  # reduced every fourth step


@pytest.mark.parametrize("p", [2, 3, 5, 7, 127])
@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint64])
def test_mod_p_rank_any_integer_dtype(p, dtype):
    # canonical entries, 0 and p - 1 included, are ranked in the caller's integer dtype
    field = make_prime_field(p)
    rng = np.random.default_rng(p)
    mats = rng.integers(0, p, (20, 4, 6)).astype(dtype)
    mats[0, 0] = 0
    mats[0, 1] = p - 1
    want = [_rank_generic(m.tolist(), field) for m in mats]
    assert matrix_rank(mats, field).tolist() == want


STORAGE = [(8, np.uint8), (16, np.uint16), (32, np.uint32), (64, np.uint64)]


@pytest.mark.parametrize("k", [*range(2, 17), 17, 20, 32, 63])
def test_gf2k_rank_matches_generic_across_storage_dtypes(k):
    from flatrank.linalg import entry_dtype

    field = make_binary_field(k)
    rng = Rng(k)
    for r, c in [(1, 3), (2, 2), (3, 5), (5, 4), (6, 6)]:
        mats = []
        for j in range(4):
            rows = [[rng.next_below(field.order) for _ in range(c)] for _ in range(r)]
            if j == 1:  # the last row a combination of the others
                coeffs = [rng.next_below(field.order) for _ in rows[:-1]]
                rows[-1] = _combine(field, coeffs, rows[:-1]) if r > 1 else [0] * c
            if j == 2:
                rows = [[0] + row[1:] for row in rows]
            mats.append(rows)
        want = [_rank_generic([list(row) for row in m], field) for m in mats]
        arr = np.array(mats, dtype=np.int64)
        narrow = arr.astype(entry_dtype(field))
        assert narrow.dtype == next(t for bits, t in STORAGE if k <= bits)
        assert matrix_rank(arr, field).tolist() == want
        assert matrix_rank(narrow, field).tolist() == want


@pytest.mark.parametrize("k", [2, 3, 8, 16])
def test_log_tables_multiply_with_zero(k):
    field = make_binary_field(k)
    exp, log = discrete_log_tables(field)
    rng = Rng(k)
    elems = list(range(min(field.order, 64))) + [rng.next_below(field.order) for _ in range(64)]
    for a in elems:
        for b in elems:
            assert int(exp[int(log[a]) + int(log[b])]) == field.mul(a, b)


@pytest.mark.parametrize(
    "field",
    [
        make_prime_field(3),
        make_prime_field(2**31 - 1),
        make_binary_field(8),
        make_binary_field(16),
        make_binary_field(20),
        make_binary_field(63),
    ],
    ids=str,
)
def test_elimination_plan_holds_every_smaller_batch(field):
    # a sweep plans its workspace at its largest block; a short last block clears
    # more GF(2^k) rows per gather group than a full one: 600 of 1365 (4, 16) matrices
    from flatrank.linalg import _elimination_sizes, _rank_into, _Workspace

    rng = np.random.default_rng(field.order)
    for n, r, c in [(1365, 4, 16), (40, 3, 9), (6, 8, 64)]:
        ws = _Workspace(_elimination_sizes(n, r, c, field))
        for m in sorted({1, 2, n // 3, min(n, 600), n - 1, n}):
            mats = rng.integers(0, 3, (m, r, c))
            mats[::2, -1] = mats[::2, 0]  # rank-deficient
            work = ws.take("work", m, r, c)
            np.copyto(work, mats, casting="unsafe")
            assert _rank_into(work, field, ws).tolist() == matrix_rank(mats, field).tolist()


@pytest.mark.parametrize("field", RANK_FIELDS, ids=str)
@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int8])
def test_matrix_rank_leaves_input_unmodified(field, dtype):
    rng = np.random.default_rng(field.order)
    top = min(field.order, 100)
    for shape in [(1, 3, 5), (1, 5, 3), (4, 3, 6), (4, 6, 3)]:
        for sparse in (False, True):  # every other column zero: dropped over order > 2
            mats = rng.integers(0, top, shape).astype(dtype)
            mats[..., 1::2] *= not sparse
            before = mats.copy()
            mats.flags.writeable = False  # an in-place write would raise
            matrix_rank(mats, field)
            assert np.array_equal(mats, before) and mats.dtype == dtype


def _counting_clears(monkeypatch):
    """Record the factors of every clearing step that runs; skipped steps record nothing."""
    import flatrank.linalg as linalg

    factors = []
    eliminate = linalg._eliminate

    def counted(m, ws, settle, clear):
        def counted_clear(below, factor, row, piv):
            factors.append(factor.copy())
            clear(below, factor, row, piv)

        return eliminate(m, ws, settle, counted_clear)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    return factors


def _sparse_batch(rng, field, count, r, c):
    """Scaled partial permutations, with a few extra entries in some of them, and a zero matrix."""
    mats = np.zeros((count, r, c), dtype=np.int64)
    for m in mats[1:]:
        cols = rng.choice(c, size=min(r, c), replace=False)
        m[np.arange(min(r, c)), cols] = rng.integers(1, field.order, min(r, c))
        for _ in range(rng.integers(0, 3)):
            m[rng.integers(r), rng.integers(c)] = rng.integers(0, field.order)
    return mats


SPARSE_FIELDS = [
    make_prime_field(3),
    make_prime_field(7),
    make_prime_field(251),
    make_binary_field(3),
    make_binary_field(8),
    make_binary_field(16),
    make_binary_field(20),
]


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=str)
def test_empty_clears_are_skipped_and_ranks_stay_exact(field, monkeypatch):
    factors = _counting_clears(monkeypatch)
    rng = np.random.default_rng(field.order)
    steps = 0
    for r, c in [(3, 3), (4, 9), (6, 4), (8, 64)]:
        mats = _sparse_batch(rng, field, 6, r, c)
        want = [_rank_generic(m.tolist(), field) for m in mats]
        assert _batched_ranks(mats if r <= c else mats.transpose(0, 2, 1), field) == want
        steps += min(r, c) - 1
    # a scaled permutation clears nothing: only the extra entries make a step clear
    assert 0 < len(factors) < steps
    assert all(f.any() for f in factors)


def test_clears_with_factors_that_vanish_mod_p(monkeypatch):
    # step 0 turns row 2 into [3, 3, 1]: its factor at step 1 is 3, nonzero but
    # 0 mod 3, so that step clears (by a zero multiple) and grows nothing
    factors = _counting_clears(monkeypatch)
    field = make_prime_field(3)
    rows = [[1, 1, 0], [2, 1, 0], [1, 1, 1]]
    assert _batched_ranks([rows], field) == [_rank_generic([list(r) for r in rows], field)] == [3]
    assert [f.tolist() for f in factors] == [[[2, 1]], [[3]]]


@pytest.mark.parametrize("p", [3, 5, 65521])
def test_inverse_table_holds_every_inverse(p):
    from flatrank.linalg import INVERSE_TABLE_PRIMES, _inverse_table

    assert p < INVERSE_TABLE_PRIMES
    table = _inverse_table(p)
    assert table.tolist() == [0] + [pow(x, p - 2, p) for x in range(1, p)]
    assert table.dtype == np.min_scalar_type(p - 1) and not table.flags.writeable
    assert _inverse_table(p) is table  # built once per prime


@pytest.mark.parametrize("p", [65537, 2**31 - 1])
def test_power_loop_inverts_above_the_table(p):
    from flatrank.linalg import INVERSE_TABLE_PRIMES, _inverse_mod

    assert p >= INVERSE_TABLE_PRIMES
    rng = np.random.default_rng(p)
    x = np.concatenate([[0, 1, 2, p - 2, p - 1], rng.integers(0, p, 2000)]).astype(np.uint64)
    assert _inverse_mod(x.copy(), p).tolist() == [pow(int(v), p - 2, p) for v in x]


def test_pivots_read_the_table_below_2_16_and_the_power_loop_above(monkeypatch):
    import flatrank.linalg as linalg

    linalg._inverse_table(65521)  # built before the count starts
    calls = []
    power = linalg._inverse_mod
    monkeypatch.setattr(linalg, "_inverse_mod", lambda x, p: calls.append(p) or power(x, p))
    rng = np.random.default_rng(7)
    for p, loops in ((65521, 0), (65537, 5)):
        field = make_prime_field(p)
        mats = rng.integers(0, p, (3, 6, 8))
        want = [_rank_generic(m.tolist(), field) for m in mats]
        assert matrix_rank(mats, field).tolist() == want
        assert calls.count(p) == loops  # one loop for each of the 5 clearing steps


@pytest.mark.parametrize("k", [2, 3, 8, 16])
def test_neg_log_table_inverts_through_the_exp_table(k):
    from flatrank.linalg import _neg_log_table, entry_dtype

    field = make_binary_field(k)
    exp, log = discrete_log_tables(field)
    table = _neg_log_table(field)
    assert table.dtype == entry_dtype(field) and not table.flags.writeable
    assert table[0] == 1 and table[1:].min() >= 1 and table.max() <= field.order - 1
    x = np.arange(1, field.order)
    assert (exp[log[x].astype(np.int64) + table[x]] == 1).all()  # x * x^-1
    assert _neg_log_table(field) is table


BYTE_ROW_FIELDS = [make_prime_field(p) for p in (3, 5, 7, 113, 127)] + [
    make_binary_field(k) for k in (2, 3, 8)
]


def _byte_row_batch(rng, field, n, r, c):
    """Matrices with a zero row, a repeated row, a scaled row, rank at most 2, or random entries."""
    mats = rng.integers(0, field.order, (n, r, c))
    for i, m in enumerate(mats):
        kind = i % 5
        if kind == 0:
            m[rng.integers(r)] = 0
        elif kind == 1 and r > 1:
            m[rng.integers(1, r)] = m[0]
        elif kind == 2 and r > 1:
            m[-1] = [field.mul(int(rng.integers(1, field.order)), int(x)) for x in m[0]]
        elif kind == 3 and r > 2:
            basis = m[:2].tolist()
            for j in range(2, r):
                m[j] = _combine(field, [int(x) for x in rng.integers(0, field.order, 2)], basis)
    return mats


def _kernels_called(monkeypatch):
    """Record which kernel each matrix_rank call reaches: 'bits', 'bytes' or 'batched'."""
    import flatrank.linalg as linalg

    calls = []
    for name, label in (("_rank_gf2", "bits"), ("_rank_byte_rows", "bytes"), ("_rank_into", "batched")):
        real = getattr(linalg, name)
        monkeypatch.setattr(
            linalg, name, lambda *a, real=real, label=label: calls.append(label) or real(*a)
        )
    return calls


@pytest.mark.parametrize("field", BYTE_ROW_FIELDS, ids=str)
def test_byte_rows_match_generic(field, monkeypatch):
    calls = _kernels_called(monkeypatch)
    rng = np.random.default_rng(field.order)
    for n, r, c in [(1, 1, 1), (1, 1, 9), (2, 2, 2), (5, 3, 3), (5, 4, 7), (5, 6, 6), (4, 8, 20), (1, 20, 20)]:
        mats = _byte_row_batch(rng, field, n, r, c)
        want = [_rank_generic(m.tolist(), field) for m in mats]
        assert matrix_rank(mats, field).tolist() == want, (n, r, c)
        assert matrix_rank(mats.transpose(0, 2, 1), field).tolist() == want
        assert matrix_rank(mats.astype(np.uint8), field).tolist() == want
    assert set(calls) == {"bytes"}
    assert matrix_rank(np.zeros((3, 4, 4), dtype=np.int64), field).tolist() == [0, 0, 0]


@pytest.mark.parametrize("field", BYTE_ROW_FIELDS, ids=str)
def test_byte_row_gate_edges(field, monkeypatch):
    # the last batch on byte rows and the first past it, by entries and by rows:
    # both kernels must give the oracle's ranks on each side
    from flatrank.linalg import BYTE_ROW_ENTRIES, BYTE_ROW_ROWS, _rank_byte_rows

    calls = _kernels_called(monkeypatch)
    rng = np.random.default_rng(field.order + 1)
    rows = BYTE_ROW_ENTRIES // 256  # 16 rows of 256: exactly at the entry bound
    edges = [
        ((1, rows, BYTE_ROW_ENTRIES // rows), "bytes"),
        ((1, rows + 1, BYTE_ROW_ENTRIES // (rows + 1) + 1), "batched"),  # 4,097 entries
        ((3, BYTE_ROW_ROWS // 3, BYTE_ROW_ROWS // 3), "bytes"),
        ((7, 7, 7), "batched"),  # 49 rows
    ]
    assert edges[1][0][1] * edges[1][0][2] == BYTE_ROW_ENTRIES + 1 and 7 * 7 == BYTE_ROW_ROWS + 1
    for shape, kernel in edges:
        mats = _byte_row_batch(rng, field, *shape)
        want = [_rank_generic(m.tolist(), field) for m in mats]
        calls.clear()
        assert matrix_rank(mats, field).tolist() == want, shape
        assert calls == [kernel]
        assert _rank_byte_rows(mats, field).tolist() == want
        assert _batched_ranks(mats, field) == want


@pytest.mark.parametrize(
    "field", [make_prime_field(131), make_binary_field(9), make_prime_field(2)], ids=str
)
def test_fields_past_a_byte_stay_off_byte_rows(field, monkeypatch):
    calls = _kernels_called(monkeypatch)
    rng = np.random.default_rng(field.order)
    mats = rng.integers(0, field.order, (3, 5, 6))
    want = [_rank_generic(m.tolist(), field) for m in mats]
    assert matrix_rank(mats, field).tolist() == want
    assert calls == ["bits" if field.order == 2 else "batched"]


def test_gf2_ranks_build_no_workspace(monkeypatch):
    # a GF(2) batch goes to the bit rows as it is, in any integer dtype: no
    # elimination workspace, which only the other fields' kernels read
    import flatrank.linalg as linalg

    def refused(*args):
        raise AssertionError("a workspace was built")

    monkeypatch.setattr(linalg, "_Workspace", refused)
    rng = np.random.default_rng(2)
    for field in (make_prime_field(2), make_binary_field(1)):
        for shape in [(1, 10, 10), (5, 8, 4096), (3, 20, 400), (4, 9, 3)]:
            mats = rng.integers(0, 2, shape, dtype=np.uint8)
            mats[:, -1] = mats[:, 0]  # rank-deficient
            want = [_rank_generic(m.tolist(), field) for m in mats]
            assert matrix_rank(mats, field).tolist() == want, shape
            assert matrix_rank(mats.astype(np.int64), field).tolist() == want
    with pytest.raises(AssertionError, match="workspace"):
        matrix_rank(rng.integers(0, 3, (3, 20, 100)), make_prime_field(3))  # past byte rows


@pytest.mark.parametrize("field", BYTE_ROW_FIELDS, ids=str)
def test_byte_tables_scale_and_normalize(field):
    from flatrank.linalg import _byte_tables

    scale, pivot, residue = _byte_tables(field)
    assert _byte_tables(field) is _byte_tables(field)  # built once per field
    q, unit = field.order, 1 if field.kind == "binary" else field.p - 1
    for s in range(1, q):
        assert list(scale[s][:q]) == [field.mul(s, x) for x in range(q)]
        assert pivot[s][s] == unit
    if residue is not None:
        assert list(residue) == [x % q for x in range(256)]


def test_byte_tables_are_not_built_at_import():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import numpy as np, flatrank.cli, flatrank.linalg as l, flatrank.field as f\n"
        "assert l._byte_tables.cache_info().currsize == 0\n"
        "l.matrix_rank(np.array([[[1, 2], [2, 1]]]), f.make_prime_field(5))\n"
        "assert l._byte_tables.cache_info().currsize == 1\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})
