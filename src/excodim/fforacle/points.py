"""Projective point enumeration and the point-count dimension detector.

A zero-dimensional locus cut out by forms of degrees d_i has at most
prod(d_i) points over any extension, so a count above that cutoff certifies
positive dimension (sound).  Failing to exceed the cutoff within the allowed
extension steps is only heuristic evidence of dimension <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from ..errors import BudgetError, ParameterError
from .fields import Field
from .hilbert import _ring_of
from .polynomials import MultiPoly

MAX_POINTS = 300_000


@lru_cache(maxsize=None)
def projective_points(field: Field, r: int) -> np.ndarray:
    """All points of projective r-space over the field, as rows of codes
    normalized so the first nonzero coordinate is 1.  Cached per field
    singleton and r; callers must not modify the result."""
    q = field.q
    blocks = []
    for j in range(r + 1):
        tail = r - j
        n = q**tail
        block = np.zeros((n, r + 1), dtype=np.uint16)
        block[:, j] = field.one
        idx = np.arange(n)
        for c in range(tail):
            block[:, j + 1 + c] = (idx // (q ** (tail - 1 - c))) % q
        blocks.append(block)
    points = np.vstack(blocks)
    points.flags.writeable = False
    return points


def count_projective_points(q: int, r: int) -> int:
    return (q ** (r + 1) - 1) // (q - 1)


def evaluate_on_points(poly: MultiPoly, points: np.ndarray, ext: Field,
                       emb: np.ndarray) -> np.ndarray:
    """Values of the form at the given extension-field points (codes)."""
    pow_table = ext.pow_table(max(poly.d, 1))
    acc = np.zeros(len(points), dtype=np.uint16)
    for exp, code in poly.support():
        term = np.full(len(points), emb[code], dtype=np.uint16)
        for i, e in enumerate(exp):
            if e:
                term = ext.MUL[term, pow_table[points[:, i], e]]
        acc = ext.ADD[acc, term]
    return acc


def count_common_zeros(generators, ext: Field, emb: np.ndarray, r: int) -> int:
    points = projective_points(ext, r)
    mask = np.ones(len(points), dtype=bool)
    for g in generators:
        mask &= evaluate_on_points(g, points, ext, emb) == 0
        if not mask.any():
            break
    return int(mask.sum())


@dataclass(frozen=True)
class PointProbe:
    """Outcome of the point-count dimension test."""

    positive_dimensional: bool
    conclusive: bool
    cutoff: int
    counts: tuple[tuple[int, int, int], ...]  # (m, q^m, count)


def projective_dim_points(generators, field: Field | None = None, r: int | None = None,
                          m_max: int = 3) -> PointProbe:
    """Declare the common vanishing locus positive-dimensional when its point
    count over some extension exceeds the degree-product cutoff.  Only the
    extensions of at most MAX_POINTS projective points are counted."""
    if m_max < 1 or m_max > 3:
        raise ParameterError(f"need 1 <= m_max <= 3, got {m_max}")
    field, r = _ring_of(generators, field, r)
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return PointProbe(r >= 1, True, 1, ())

    cutoff = prod(g.d for g in gens)
    counts = []
    for m in range(1, m_max + 1):
        q_m = field.q**m
        if count_projective_points(q_m, r) > MAX_POINTS:
            break
        try:
            ext, emb = field.extension(m)
        except BudgetError:
            break
        count = count_common_zeros(gens, ext, emb, r)
        counts.append((m, q_m, count))
        if count > cutoff:
            return PointProbe(True, True, cutoff, tuple(counts))
    if not counts:
        raise BudgetError(
            f"no extension of GF({field.q}) fits the point budget for r={r}"
        )
    return PointProbe(False, False, cutoff, tuple(counts))
