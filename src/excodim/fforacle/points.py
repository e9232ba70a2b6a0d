"""Projective point enumeration and the point-count dimension detector.

A zero-dimensional locus cut out by forms of degrees d_i has at most
prod(d_i) points over any extension, so a count above that cutoff certifies
positive dimension (sound).  Failing to exceed the cutoff within the allowed
extension steps is only heuristic evidence of dimension <= 0.

The values of the degree-d monomials at the points of P^r(GF(q^m)) form a
read-only (n_monomials, n_points) table, cached per extension, r and d by
``monomial_values``.  A form's values at every point are then its
coefficient row, embedded in the extension, times that table, so
``batch_projective_dim_points`` evaluates a whole block of samples (an
(n, sum_j C(r + d_j, r)) array of coefficient codes, as in ``hilbert``) with
one ``rows_times`` per form and extension.  The rows are split so that no
intermediate array holds more than ``hilbert.STACK_ENTRIES`` entries, or one
row when a single row's product is larger.  A sample leaves the block at the
first extension whose count exceeds its cutoff.  ``projective_dim_points``
runs its list of forms as a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from ..errors import BudgetError, ParameterError
from . import hilbert
from .fields import Field
from .linalg import rows_times
from .polynomials import substitute

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


@lru_cache(maxsize=64)
def monomial_values(field: Field, r: int, d: int) -> np.ndarray:
    """Entry (i, j) is the i-th degree-d monomial at the j-th point of
    ``projective_points(field, r)``: the points are the 0-planes of
    ``substitute``.  Read-only, because it is a shared cache entry."""
    points = projective_points(field, r)
    values = substitute(field, r, d, points[:, :, None])[:, :, 0].T
    values.flags.writeable = False
    return values


def _common_zeros(ext: Field, emb: np.ndarray, r: int, degrees, coeffs) -> np.ndarray:
    """Number of points of P^r over ext where every form of a row vanishes;
    coeffs[j] is the (n, n_monomials(r, degrees[j])) coefficient stack of the
    j-th form, in base-field codes embedded by emb."""
    tables = [monomial_values(ext, r, d) for d in degrees]
    npoints = count_projective_points(ext.q, r)
    n = len(coeffs[0])
    per = max(1, hilbert.STACK_ENTRIES // (max(len(t) for t in tables) * npoints))
    counts = []
    for lo in range(0, n, per):
        zero = np.ones((min(per, n - lo), npoints), dtype=bool)
        for table, c in zip(tables, coeffs):
            zero &= rows_times(ext, emb[c[lo:lo + per]], table) == 0
        counts.append(np.count_nonzero(zero, axis=1))
    return np.concatenate(counts)


@dataclass(frozen=True)
class PointProbe:
    """Outcome of the point-count dimension test."""

    positive_dimensional: bool
    conclusive: bool
    cutoff: int
    counts: tuple[tuple[int, int, int], ...]  # (m, q^m, count)


def batch_projective_dim_points(field: Field, r: int, degrees, block,
                                m_max: int = 3) -> list[PointProbe | None]:
    """``projective_dim_points`` of every row of a block, with None for each
    row with a nonzero form when no extension fits the point budget."""
    if m_max < 1 or m_max > 3:
        raise ParameterError(f"need 1 <= m_max <= 3, got {m_max}")
    stacks, live = hilbert._form_stacks(field, r, degrees, block)
    cutoffs = [prod(d for d, on in zip(degrees, row) if on) for row in live.tolist()]
    probes: list[PointProbe | None] = [
        None if row.any() else PointProbe(r >= 1, True, 1, ()) for row in live]
    counts: list[list] = [[] for _ in probes]
    active = np.flatnonzero(live.any(axis=1))
    for m in range(1, m_max + 1):
        q_m = field.q**m
        if not active.size or count_projective_points(q_m, r) > MAX_POINTS:
            break
        try:
            ext, emb = field.extension(m)
        except BudgetError:
            break
        zeros = _common_zeros(ext, emb, r, degrees, [c[active] for c in stacks])
        still = []
        for i, count in zip(active.tolist(), zeros.tolist()):
            counts[i].append((m, q_m, count))
            if count > cutoffs[i]:
                probes[i] = PointProbe(True, True, cutoffs[i], tuple(counts[i]))
            else:
                still.append(i)
        active = np.array(still, dtype=np.intp)
    for i in active.tolist():
        if counts[i]:
            probes[i] = PointProbe(False, False, cutoffs[i], tuple(counts[i]))
    return probes


def projective_dim_points(generators, field: Field | None = None, r: int | None = None,
                          m_max: int = 3) -> PointProbe:
    """Declare the common vanishing locus positive-dimensional when its point
    count over some extension exceeds the degree-product cutoff.  Only the
    extensions of at most MAX_POINTS projective points are counted; when
    none fits, a locus cut out by some nonzero form raises BudgetError."""
    field, r, degrees, block = hilbert._as_block(generators, field, r)
    probe = batch_projective_dim_points(field, r, degrees, block, m_max)[0]
    if probe is None:
        raise BudgetError(
            f"no extension of GF({field.q}) fits the point budget for r={r}"
        )
    return probe
