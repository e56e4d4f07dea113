"""Rank kernels cross-checked against enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatrank.field import make_binary_field, make_prime_field
from flatrank.linalg import (
    _rank_generic,
    matrix_rank,
    rank_gf2_bitrows,
    solve_is_independent,
)
from flatrank.rng import Rng


def span_size_rank(rows, field):
    """Oracle: the row span of r independent rows has order^rank elements."""
    span = {0: tuple([0] * len(rows[0]))} if rows else {}
    vectors = {tuple([0] * len(rows[0]))} if rows else set()
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
    assert matrix_rank(rows, field) == span_size_rank(rows, field)


def test_rank_wide_matrix_mod_p():
    f = make_prime_field(3)
    rows = [[1, 2, 0, 1, 2, 0], [2, 1, 0, 2, 1, 0], [0, 0, 1, 1, 1, 1]]
    # row2 = 2*row1 mod 3
    assert matrix_rank(rows, f) == 2


def test_gf2k_rank_matches_generic_elimination():
    f = make_binary_field(8)
    rng = Rng(77)
    for _ in range(30):
        nrows = 2 + rng.next_below(4)
        ncols = 2 + rng.next_below(5)
        rows = [[rng.next_below(f.order) for _ in range(ncols)] for _ in range(nrows)]
        assert matrix_rank(rows, f) == _rank_generic([list(r) for r in rows], f)


def test_solve_is_independent():
    f = make_prime_field(5)
    assert solve_is_independent([[1, 0], [0, 1]], f)
    assert not solve_is_independent([[1, 2], [2, 4]], f)
    assert solve_is_independent([], f)


RANK_FIELDS = [
    make_prime_field(2),
    make_prime_field(3),
    make_prime_field(5),
    make_binary_field(3),
    make_binary_field(8),
    make_binary_field(17),  # beyond the log tables: the scalar fallback
]


def _combine(field, coeffs, rows):
    """sum_i coeffs[i] * rows[i] over the field."""
    out = [0] * len(rows[0])
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
    assert matrix_rank(rows, field) == _rank_generic([list(r) for r in rows], field)


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
    assert ranks.tolist() == [_rank_generic([list(r) for r in m], field) for m in mats]


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
    assert matrix_rank(wide, field) == expected
    assert matrix_rank(wide.T, field) == expected
    assert matrix_rank(np.stack([wide, np.zeros_like(wide)]), field).tolist() == [expected, 0]


def test_matrix_rank_empty_shapes():
    f = make_prime_field(3)
    assert matrix_rank([], f) == 0
    assert matrix_rank(np.zeros((3, 0), dtype=np.int64), f) == 0
    assert matrix_rank(np.zeros((0, 2, 2), dtype=np.int64), f).tolist() == []
