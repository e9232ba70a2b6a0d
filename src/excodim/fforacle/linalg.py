"""Rank computation over the table fields.

``batch_rank`` ranks a whole (B, m, n) stack of matrices of field codes.
Over GF(2) each matrix goes through a bitset elimination on Python integers.
Every other field takes one sparse elimination vectorised over the batch
axis: at each column it updates only the rows that are nonzero there in some
matrix of the stack, and in them only the columns where some pivot row is
nonzero, which keeps the sparse Macaulay matrices of ``hilbert`` cheap.
The loop runs over columns, so a stack of matrices wider than tall is
ranked transposed (rank M = rank M^T): a chunk of 2 x 3 linear tuples takes
two column steps, not three.  Each step reads every matrix's pivot row with
one ``take`` on a flat view of the stack, which is why the elimination works
on a C-ordered copy.  Prime-field codes are residues, so their rows are
updated mod p; extension fields use the ADD/MUL tables.  ``matrix_rank`` is
``batch_rank`` on a stack of one.

``rows_times`` multiplies a block of coefficient rows by one matrix: an
integer matmul mod p on prime fields, a table-lookup sum otherwise.  It
multiplies two forms in ``polynomials``, restricts forms to the section
planes of ``hilbert``, multiplies forms by a fixed square in ``experiments``
and evaluates forms at every point of a projective space in ``points``.
"""

from __future__ import annotations

import numpy as np

from .fields import Field


def _rank_gf2_bitrows(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            msb = row.bit_length() - 1
            if msb in pivots:
                row ^= pivots[msb]
            else:
                pivots[msb] = row
                rank += 1
                break
    return rank


def _rank_gf2(mats: np.ndarray) -> np.ndarray:
    """Ranks over GF(2), each matrix row as the integer whose bit j is
    entry j."""
    nbatch, nrows, _ = mats.shape
    packed = np.packbits(mats != 0, axis=2, bitorder="little")
    width = packed.shape[2]
    buf = packed.tobytes()
    rows = [int.from_bytes(buf[i:i + width], "little") for i in range(0, len(buf), width)]
    return np.array([_rank_gf2_bitrows(rows[b * nrows:(b + 1) * nrows]) for b in range(nbatch)],
                    dtype=np.int64)


def _rank_sparse(field: Field, mats: np.ndarray) -> np.ndarray:
    """Ranks of a (B, m, n) stack, eliminating in a C-ordered copy of it.

    Elimination runs column by column over the whole batch at once, with no
    row swaps.  Each matrix's pivot is its first row with a nonzero entry in
    the column; that column is cleared from every row, the pivot row
    included, which zeroes the pivot row so it is never picked again.  Rows
    are then zero in every column already processed.  A row that is zero in
    the column in every matrix is left alone, and so is a column that is
    zero in every chosen row.  A matrix with no pivot in the column chooses
    its first row, which may widen the updated columns but gets zero
    factors.
    """
    m = np.array(mats, dtype=np.uint16, order="C")
    nbatch, nrows, ncols = m.shape
    flat = m.reshape(nbatch * nrows, ncols)  # a view, as m is C-ordered
    first_row = np.arange(0, nbatch * nrows, nrows)
    ranks = np.zeros(nbatch, dtype=np.int64)
    for col in range(ncols):
        nonzero = m[:, :, col] != 0
        rows = np.flatnonzero(nonzero.any(axis=0))
        if rows.size == 0:
            continue
        pivot_row = flat.take(first_row + nonzero.argmax(axis=1), axis=0)
        pivot = pivot_row[:, col:col + 1]
        cols = np.flatnonzero(pivot_row.any(axis=0))
        # row i gets -m[i, col] / pivot times the pivot row; matrices with
        # no pivot have a zero column, hence a zero factor
        factor = field.MUL[field.NEG[m[:, rows, col]], field.INV[pivot]]
        factor, pivots = factor[:, :, None], pivot_row[:, None, cols]
        block = m[:, rows[:, None], cols]
        if field.e == 1:  # the codes are residues mod p
            m[:, rows[:, None], cols] = (block + factor * pivots) % field.p
        else:
            m[:, rows[:, None], cols] = field.ADD[block, field.MUL[factor, pivots]]
        ranks += pivot[:, 0] != 0
    return ranks


def batch_rank(field: Field, mats: np.ndarray) -> np.ndarray:
    """Ranks of a (B, m, n) stack of matrices of field codes."""
    mats = np.asarray(mats)
    if mats.size == 0:
        return np.zeros(len(mats), dtype=np.int64)
    if field.q == 2:
        return _rank_gf2(mats)
    if mats.shape[1] < mats.shape[2]:
        mats = mats.transpose(0, 2, 1)  # rank(M) = rank(M^T), with fewer columns to clear
    return _rank_sparse(field, mats)


def matrix_rank(field: Field, matrix: np.ndarray) -> int:
    """Rank of a matrix of field codes."""
    return int(batch_rank(field, np.asarray(matrix)[None])[0])


def rows_times(field: Field, rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The (n, k) coefficient rows times a (k, m) matrix of field codes."""
    if field.e == 1:  # the codes are residues mod p
        return (rows.astype(np.int64) @ matrix.astype(np.int64) % field.p).astype(np.uint16)
    prods = field.MUL[rows[:, :, None], matrix[None, :, :]]
    out = prods[:, 0]
    for j in range(1, prods.shape[1]):
        out = field.ADD[out, prods[:, j]]
    return out
