"""Hilbert functions of graded ideals by rank computation, and the two
dimension detectors built on them.

The degree-t piece of the ideal generated by forms g_i is spanned by the
products m * g_i over monomials m of degree t - deg(g_i); its rank gives
h(t) = C(t+r, r) - rank for the quotient.

``dim_at_least`` answers the question every experiment asks of a sample,
"is dim V(g) >= s?", by a linear section.  With b = r - s it restricts the
forms to a seeded b-plane defined over the section field E (the smallest
GF(q^m), m >= 2, with at least SECTION_FIELD_MIN elements) and computes one
h value, in degree t = 1 + sum(d_i - 1) over the b + 1 largest degrees.  By the
Macaulay/Lazard bound, forms on P^b have no common zero over the algebraic
closure exactly when their ideal contains every degree-t monomial, that is
h(t) = 0.  Every b-plane meets a variety of dimension >= s, so an empty
section certifies dim < s.  The outcomes are:

- certified out: some section is empty;
- certified in: fewer than b + 1 forms are nonzero (dimension theorem), or
  s = 0 and a section is nonempty (the "plane" is then all of P^r in new
  coordinates);
- probable in: the sections on all SECTION_TRIES planes are nonempty.  A
  finite locus of D points passes one random plane with probability about
  D / |E|, so a false positive has probability about (D / |E|)^SECTION_TRIES.

``projective_dim_hilbert`` gives the exact dimension from a window of h
values in the full space: it infers the degree of the eventual Hilbert
polynomial from finite differences and widens the window until that degree
is stable.  The window start is a heuristic, not a regularity bound, and the
matrices are large; it serves as the independent reference that the
experiments cross-check the section test against, not as a per-sample test.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import BudgetError, InvariantError, ParameterError
from .fields import Field
from .linalg import matrix_rank
from .polynomials import MultiPoly, monomial_index, monomials, n_monomials

MAX_MATRIX_ENTRIES = 4_000_000
MAX_WINDOW_STEPS = 48
# Over planes of a 64-element field a false "dim >= s" needs four unlucky
# draws of odds about D/64 each; a larger field would cost more table memory
# and build time in every run.
SECTION_TRIES = 4
SECTION_FIELD_MIN = 64
PLANE_STREAM = 2**32  # plane k is drawn from the Philox key [seed, PLANE_STREAM + k]
MAX_PLANE_DRAWS = 64


def _live_generators(generators) -> list[MultiPoly]:
    return [g for g in generators if not g.is_zero]


def _ring_of(generators, field, r):
    gens = list(generators)
    if gens:
        field = gens[0].field
        r = gens[0].r
        for g in gens:
            if g.field is not field or g.r != r:
                raise ParameterError("generators live over different rings")
    if field is None or r is None:
        raise ParameterError("field and r are required when no generators are given")
    return field, r


class GradedIdealPiece:
    """The degree-t graded piece of the ideal spanned by the generators."""

    def __init__(self, generators, t: int, field: Field | None = None, r: int | None = None,
                 max_entries: int = MAX_MATRIX_ENTRIES):
        self.field, self.r = _ring_of(generators, field, r)
        self.t = t
        self.generators = _live_generators(generators)
        ncols = n_monomials(self.r, t)
        nrows = sum(
            n_monomials(self.r, t - g.d) for g in self.generators if g.d <= t
        )
        if nrows * ncols > max_entries:
            raise BudgetError(
                f"degree-{t} piece needs a {nrows}x{ncols} matrix, over the budget"
            )
        self.ncols = ncols
        self.matrix = self._build(nrows, ncols)
        self._rank: int | None = None

    def _build(self, nrows: int, ncols: int) -> np.ndarray:
        index = monomial_index(self.r, self.t)
        matrix = np.zeros((nrows, ncols), dtype=np.uint16)
        row = 0
        for g in self.generators:
            if g.d > self.t:
                continue
            support = list(g.support())
            for m in monomials(self.r, self.t - g.d):
                for exp, code in support:
                    col = index[tuple(a + b for a, b in zip(m, exp))]
                    # multiplying by a monomial leaves the coefficient alone
                    matrix[row, col] = code
                row += 1
        return matrix

    def rank(self) -> int:
        if self._rank is None:
            self._rank = matrix_rank(self.field, self.matrix)
        return self._rank


def hilbert_function(generators, t: int, field: Field | None = None, r: int | None = None,
                     max_entries: int = MAX_MATRIX_ENTRIES) -> int:
    """Dimension of the degree-t graded piece of the quotient ring."""
    if t < 0:
        raise ParameterError(f"need t >= 0, got {t}")
    piece = GradedIdealPiece(generators, t, field=field, r=r, max_entries=max_entries)
    return n_monomials(piece.r, t) - piece.rank()


def _tail_degree(values) -> int | None:
    """Degree of the polynomial interpolating the window, or None when the
    differences do not vanish within the window (not yet polynomial)."""
    cur = list(values)
    level = 0
    while True:
        if all(v == 0 for v in cur):
            return level - 1
        if len(cur) < 2:
            return None
        cur = [b - a for a, b in zip(cur, cur[1:])]
        level += 1


def projective_dim_hilbert(generators, field: Field | None = None, r: int | None = None,
                           max_steps: int = MAX_WINDOW_STEPS,
                           max_entries: int = MAX_MATRIX_ENTRIES) -> int:
    """Projective dimension of the common vanishing locus, in {-1, 0, ..., r}.

    -1 encodes the empty scheme.  The window starts at
    t0 = sum(deg g_i - 1) + 1 and widens until the inferred Hilbert
    polynomial degree agrees across r + 2 consecutive window ends.
    """
    field, r = _ring_of(generators, field, r)
    gens = _live_generators(generators)
    if not gens:
        return r
    t0 = sum(g.d - 1 for g in gens) + 1
    window = r + 2

    values: list[int] = []
    estimates: list[int | None] = []
    for step in range(max_steps):
        t = t0 + step
        values.append(hilbert_function(gens, t, max_entries=max_entries))
        if len(values) >= window:
            est = _tail_degree(values[-window:])
            if est is not None and est > r:
                est = None  # projective dimension cannot exceed r: keep widening
            estimates.append(est)
            tail = estimates[-window:]
            if (
                len(tail) == window
                and tail[0] is not None
                and all(e == tail[0] for e in tail)
            ):
                return tail[0]
    raise BudgetError(
        f"Hilbert dimension did not stabilize within {max_steps} steps "
        f"(generators of degrees {[g.d for g in gens]})"
    )


def section_field(field: Field) -> tuple[Field, np.ndarray]:
    """The field the section planes live in, with the embedding table of the
    base field: the smallest GF(q^m), m >= 2, with at least SECTION_FIELD_MIN
    elements.  Built on first use and cached by ``Field.extension``."""
    m = 2
    while field.q**m < SECTION_FIELD_MIN:
        m += 1
    return field.extension(m)


def _section_plane(field: Field, r: int, b: int, seed: int, k: int) -> np.ndarray:
    """Plane k: the first full-rank (r+1) x (b+1) matrix of field codes drawn
    from its own Philox stream; its columns span a b-plane of P^r."""
    rng = np.random.Generator(np.random.Philox(key=[seed, PLANE_STREAM + k]))
    for _ in range(MAX_PLANE_DRAWS):
        plane = rng.integers(0, field.q, size=(r + 1, b + 1), dtype=np.uint16)
        if matrix_rank(field, plane) == b + 1:
            return plane
    raise InvariantError(  # pragma: no cover - probability below 1e-9
        f"no full-rank {r + 1}x{b + 1} plane over {field} in {MAX_PLANE_DRAWS} draws"
    )


@lru_cache(maxsize=256)
def restriction_map(field: Field, r: int, b: int, seed: int, k: int, d: int) -> np.ndarray:
    """Restriction of degree-d forms on P^r to plane k, as a linear map.

    Row i holds the coefficients, as a degree-d form on P^b, of the i-th
    degree-d monomial composed with the plane's parameterization, so a
    form's restriction is its coefficient row times this matrix.
    """
    plane = _section_plane(field, r, b, seed, k)
    coords = [MultiPoly(field, b, 1, plane[i]) for i in range(r + 1)]
    one = MultiPoly(field, b, 0, np.array([field.one], dtype=np.uint16))
    images: dict[tuple[int, ...], MultiPoly] = {}

    def image(exp: tuple[int, ...]) -> MultiPoly:
        if sum(exp) == 0:
            return one
        if exp not in images:
            i = max(j for j, e in enumerate(exp) if e > 0)
            prev = tuple(e - 1 if j == i else e for j, e in enumerate(exp))
            images[exp] = image(prev) * coords[i]
        return images[exp]

    rmap = np.stack([image(exp).coeffs for exp in monomials(r, d)])
    rmap.flags.writeable = False
    return rmap


def prepare_sections(field: Field, r: int, s: int, degrees, seed: int = 0):
    """Build the section field and the restriction maps that ``dim_at_least``
    uses on forms of these degrees, so worker threads only read the caches."""
    if not 0 <= s <= r:
        return
    ext, _ = section_field(field)
    for d in sorted(set(degrees)):
        for k in range(SECTION_TRIES):
            restriction_map(ext, r, r - s, seed, k, d)


def dim_at_least(generators, s: int, field: Field | None = None, r: int | None = None,
                 seed: int = 0) -> bool:
    """Whether the common vanishing locus has projective dimension >= s.

    False is certified by an empty linear section.  True is certified when
    fewer than r - s + 1 forms are nonzero or when s = 0, and probable
    otherwise (see the module docstring).  The planes depend only on the
    field, r, s and the seed.
    """
    field, r = _ring_of(generators, field, r)
    if s < 0:
        raise ParameterError(f"need s >= 0, got {s}")
    if s > r:
        return False
    gens = _live_generators(generators)
    b = r - s
    if len(gens) <= b:
        return True
    t = sum(sorted((g.d - 1 for g in gens), reverse=True)[: b + 1]) + 1
    ext, emb = section_field(field)
    by_degree: dict[int, list[np.ndarray]] = {}
    for g in gens:
        by_degree.setdefault(g.d, []).append(emb[g.coeffs])
    for k in range(SECTION_TRIES):
        section = []
        for d, rows in by_degree.items():
            # coefficient rows times the restriction map, in table arithmetic
            prods = ext.MUL[np.stack(rows)[:, :, None],
                            restriction_map(ext, r, b, seed, k, d)[None, :, :]]
            restricted = prods[:, 0]
            for j in range(1, prods.shape[1]):
                restricted = ext.ADD[restricted, prods[:, j]]
            section.extend(MultiPoly(ext, b, d, row) for row in restricted)
        if hilbert_function(section, t, field=ext, r=b) == 0:
            return False
    return True
