import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from excodim.fforacle.fields import gf
from excodim.fforacle.linalg import batch_rank, matrix_rank, rows_times
from excodim.fforacle.polynomials import macaulay_stack, n_monomials

FIELDS = [(2, 1), (3, 1), (7, 1), (2, 2), (2, 3), (3, 2)]  # GF(2,3,7,4,8,9)


def reference_rank(field, matrix) -> int:
    """Row reduction with row swaps, one scalar table lookup at a time."""
    rows = [[int(c) for c in row] for row in matrix]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = int(field.INV[rows[rank][col]])
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = int(field.MUL[field.NEG[rows[i][col]], inv])
                rows[i] = [int(field.ADD[a, field.MUL[f, b]])
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def stacks(draw):
    """A field and a (B, m, n) stack of its codes, sparse, with some rows
    zeroed and some duplicated so that rank deficiency is common."""
    field = gf(*draw(st.sampled_from(FIELDS)))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    code = st.one_of(st.just(0), st.integers(0, field.q - 1))
    mats = draw(hnp.arrays(np.uint16, shape, elements=code))
    rows = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
    for b, i in draw(st.lists(rows, max_size=3)):
        mats[b, i] = 0
    for (b, i), j in draw(st.lists(st.tuples(rows, st.integers(0, shape[1] - 1)), max_size=3)):
        mats[b, j] = mats[b, i]
    return field, mats


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_batch_rank_matches_per_matrix_rank(case):
    field, mats = case
    got = batch_rank(field, mats).tolist()
    assert got == [matrix_rank(field, m) for m in mats]
    assert got == [reference_rank(field, m) for m in mats]


@pytest.mark.parametrize("p,e", FIELDS)
def test_batch_rank_shapes_and_degenerate_rows(p, e):
    field = gf(p, e)
    rng = np.random.default_rng(p * 10 + e)
    wide = rng.integers(1, field.q, size=(1, 2, 5), dtype=np.uint16)
    tall = rng.integers(0, field.q, size=(3, 7, 2), dtype=np.uint16)
    zero_rows = rng.integers(0, field.q, size=(2, 4, 4), dtype=np.uint16)
    zero_rows[:, 1:3] = 0
    dup_rows = rng.integers(0, field.q, size=(2, 3, 3), dtype=np.uint16)
    dup_rows[:, 2] = dup_rows[:, 0]
    for mats in (wide, tall, zero_rows, dup_rows, np.zeros((1, 3, 3), dtype=np.uint16)):
        assert batch_rank(field, mats).tolist() == [reference_rank(field, m) for m in mats]
    assert batch_rank(field, dup_rows).max() <= 2


@st.composite
def macaulay_stacks(draw):
    """A field and a stack of sparse Macaulay matrices of random forms with
    random zero coefficients, each matrix with its own rows zeroed."""
    field = gf(*draw(st.sampled_from(FIELDS)))
    r = draw(st.integers(1, 2))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    t = draw(st.integers(max(degrees), max(degrees) + 2))
    nbatch = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = []
    for d in degrees:
        c = rng.integers(0, field.q, size=(nbatch, n_monomials(r, d)), dtype=np.uint16)
        c[rng.random(c.shape) < draw(st.sampled_from([0.0, 0.5, 0.8]))] = 0
        coeffs.append(c)
    mats = macaulay_stack(nbatch, r, t, degrees, coeffs)
    mats[rng.random(mats.shape[:2]) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0
    return field, mats


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(macaulay_stacks())
def test_batch_rank_matches_reference_on_sparse_macaulay_stacks(case):
    field, mats = case
    assert batch_rank(field, mats).tolist() == [reference_rank(field, m) for m in mats]


@pytest.mark.parametrize("p,e", FIELDS)
def test_batch_rank_of_wide_stacks(p, e):
    # stacks with fewer rows than columns are ranked transposed
    field = gf(p, e)
    rng = np.random.default_rng(p * 100 + e)
    for shape in ((6, 1, 4), (64, 2, 3), (5, 3, 7)):
        mats = rng.integers(0, field.q, size=shape, dtype=np.uint16)
        mats[rng.random(shape) < 0.4] = 0
        mats[0] = 0
        assert batch_rank(field, mats).tolist() == [reference_rank(field, m) for m in mats]


@pytest.mark.parametrize("p,e", FIELDS)
def test_matrix_without_pivot_keeps_its_first_row(p, e):
    # column 0 is zero in the first matrix, whose first row is nonzero in
    # the other columns; the second matrix has a pivot there
    field = gf(p, e)
    one = field.one
    mats = np.array([[[0, one, one], [0, one, 0], [0, 0, 0], [0, one, one]],
                     [[one, 0, one], [one, one, 0], [0, 0, one], [0, 0, 0]]], dtype=np.uint16)
    assert batch_rank(field, mats).tolist() == [reference_rank(field, m) for m in mats] == [2, 3]


@pytest.mark.parametrize("p,e", FIELDS)
def test_batch_rank_of_a_non_contiguous_view(p, e):
    field = gf(p, e)
    rng = np.random.default_rng(p + e)
    base = rng.integers(0, field.q, size=(7, 3, 5), dtype=np.uint16)
    base[rng.random(base.shape) < 0.3] = 0
    for view in (base.transpose(0, 2, 1), base[:, :, ::2], base[::2]):
        before = view.copy()
        assert batch_rank(field, view).tolist() == [reference_rank(field, m) for m in view]
        assert np.array_equal(view, before)  # the caller's stack is left alone


def reference_rows_times(field, rows, matrix) -> list[list[int]]:
    """Each entry of rows @ matrix as a sum of scalar table lookups."""
    out = []
    for row in rows:
        out.append([])
        for col in matrix.T:
            acc = 0
            for a, b in zip(row, col):
                acc = int(field.ADD[acc, field.MUL[a, b]])
            out[-1].append(acc)
    return out


@pytest.mark.parametrize("p,e", [(7, 1), (2, 3), (3, 2)])  # GF(7), GF(8), GF(9)
@pytest.mark.parametrize("n, k, m", [(5, 4, 3), (3, 1, 6), (0, 3, 2), (1, 7, 1)])
def test_rows_times_matches_scalar_reference(p, e, n, k, m):
    field = gf(p, e)
    rng = np.random.default_rng(100 * p + 10 * e + k)
    rows = rng.integers(0, field.q, size=(n, k), dtype=np.uint16)
    matrix = rng.integers(0, field.q, size=(k, m), dtype=np.uint16)
    rows[rng.random(rows.shape) < 0.3] = 0
    got = rows_times(field, rows, matrix)
    assert got.shape == (n, m) and got.dtype == np.uint16
    assert got.tolist() == reference_rows_times(field, rows, matrix)


def test_rows_times_memory_is_a_few_outputs():
    # the a * q + b lookup index lives in one reused (n, m) buffer, so a
    # 49 x 3 by 3 x 2451 product over GF(49) stays within 8 outputs' bytes
    field = gf(7, 2)
    rng = np.random.default_rng(49)
    rows = rng.integers(0, field.q, size=(49, 3), dtype=np.uint16)
    matrix = rng.integers(0, field.q, size=(3, 2451), dtype=np.uint16)
    tracemalloc.start()
    try:
        out = rows_times(field, rows, matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * out.nbytes
