"""Rank computation over the table fields.

``batch_rank`` ranks a whole (B, m, n) stack of small matrices with one
elimination vectorised over the batch axis, using only the field's
ADD/MUL/NEG/INV tables, so it serves every GF(p^e).  ``matrix_rank`` ranks
one matrix: bitset elimination over GF(2) and vectorised modular
elimination over odd prime fields (both faster on single large matrices),
and ``batch_rank`` on a stack of one for extension fields.  Inputs are
matrices of field codes.
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


def rows_to_bitrows(matrix: np.ndarray) -> list[int]:
    out = []
    for row in matrix:
        val = 0
        for j in np.flatnonzero(row):
            val |= 1 << int(j)
        out.append(val)
    return out


def _rank_prime(matrix: np.ndarray, p: int) -> int:
    m = matrix.astype(np.int64) % p
    nrows, ncols = m.shape
    rank = 0
    for col in range(ncols):
        if rank >= nrows:
            break
        sub = m[rank:, col]
        nz = np.flatnonzero(sub)
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        inv = pow(int(m[rank, col]), p - 2, p)
        m[rank] = (m[rank] * inv) % p
        rest = np.flatnonzero(m[:, col])
        rest = rest[rest != rank]
        if rest.size:
            m[rest] = (m[rest] - np.outer(m[rest, col], m[rank])) % p
        rank += 1
    return rank


def batch_rank(field: Field, mats: np.ndarray) -> np.ndarray:
    """Ranks of a (B, m, n) stack of matrices of field codes.

    Elimination runs column by column over the whole batch at once, with no
    row swaps.  Each matrix's pivot is its first row with a nonzero entry in
    the column; that column is cleared from every row, the pivot row
    included, which zeroes the pivot row so it is never picked again.  Rows
    are then zero in every column already processed, so only the columns
    from the current one on are updated.  All arithmetic goes through the
    field's ADD/MUL/NEG/INV tables, so every field takes this one path.
    """
    m = np.array(mats, dtype=np.uint16)
    nbatch, _, ncols = m.shape
    ranks = np.zeros(nbatch, dtype=np.int64)
    batch = np.arange(nbatch)
    for col in range(ncols):
        nonzero = m[:, :, col] != 0
        has_pivot = nonzero.any(axis=1)
        if not has_pivot.any():
            continue
        pivot_row = m[batch, nonzero.argmax(axis=1), col:]
        # row i gets -m[i, col] / pivot times the pivot row; matrices with
        # no pivot have a zero column, hence a zero factor
        factor = field.MUL[field.NEG[m[:, :, col]], field.INV[pivot_row[:, :1]]]
        m[:, :, col:] = field.ADD[
            m[:, :, col:], field.MUL[factor[:, :, None], pivot_row[:, None, :]]
        ]
        ranks += has_pivot
    return ranks


def matrix_rank(field: Field, matrix: np.ndarray) -> int:
    """Rank of a matrix of field codes."""
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        return 0
    if field.p == 2 and field.e == 1:
        return _rank_gf2_bitrows(rows_to_bitrows(matrix))
    if field.e == 1:
        return _rank_prime(matrix, field.p)
    return int(batch_rank(field, matrix[None])[0])
