"""Dense homogeneous polynomials over the table fields.

A polynomial of degree d in the r+1 variables X_0..X_r is a coefficient
vector indexed by the graded-lex monomial order with X_0 > X_1 > ... > X_r;
within a fixed total degree that is plain lex, descending in the exponent of
X_0 first.  This order is fixed for all serialization.

``partial_rows`` differentiates a whole array of such vectors by one cached
gather on its last axis; ``MultiPoly.partial`` is that gather on one form.
Every product of forms goes through the cached table ``scatter_index``: in
``macaulay_stack``, in ``MultiPoly.__mul__`` and in ``substitute``, which pulls
forms back along the section planes of ``hilbert`` and the points of ``points``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..combinatorics import binomial
from ..errors import ParameterError
from .fields import Field, gf
from .linalg import rows_times


@lru_cache(maxsize=None)
def monomials(r: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of the degree-d monomials in r+1 variables, graded-lex."""
    if r < 0 or d < 0:
        raise ParameterError(f"need r >= 0 and d >= 0, got r={r}, d={d}")

    def gen(nvars, total):
        if nvars == 1:
            yield (total,)
            return
        for e0 in range(total, -1, -1):
            for rest in gen(nvars - 1, total - e0):
                yield (e0,) + rest

    return tuple(gen(r + 1, d))


@lru_cache(maxsize=None)
def monomial_index(r: int, d: int) -> dict:
    return {exp: i for i, exp in enumerate(monomials(r, d))}


def n_monomials(r: int, d: int) -> int:
    return binomial(d + r, r)


@lru_cache(maxsize=None)
def _partial_map(field: Field, r: int, d: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """For each degree-(d - 1) monomial m, the column of m * X_i among the
    degree-d monomials and the code of m_i + 1.  Read-only shared cache."""
    if not 0 <= i <= r:
        raise ParameterError(f"variable index {i} out of range for r={r}")
    if d < 1:
        raise ParameterError("cannot differentiate a constant form")
    scalar = np.array([field.from_int(m[i] + 1) for m in monomials(r, d - 1)], dtype=np.uint16)
    scalar.flags.writeable = False
    return scatter_index(r, 1, d)[:, i], scalar


@lru_cache(maxsize=256)
def scatter_index(r: int, d: int, t: int) -> np.ndarray:
    """Entry (i, j) is the column of m_i * e_j among the degree-t monomials,
    for the i-th degree-(t - d) monomial m_i and the j-th degree-d monomial
    e_j.  Read-only, because it is a shared cache entry."""
    index = monomial_index(r, t)
    cols = np.array(
        [[index[tuple(a + b for a, b in zip(m, e))] for e in monomials(r, d)]
         for m in monomials(r, t - d)],
        dtype=np.intp,
    )
    cols.flags.writeable = False
    return cols


def macaulay_stack(nbatch: int, r: int, t: int, degrees, coeffs) -> np.ndarray:
    """The (nbatch, rows, cols) degree-t Macaulay matrices of a batch of
    generator tuples; coeffs[j] is the (nbatch, n_monomials(r, degrees[j]))
    coefficient stack of the j-th generator.

    The rows of each matrix are the products m * g_j over the
    degree-(t - d_j) monomials m, generator by generator (a generator of
    degree above t gives none), and the columns are the degree-t monomials.
    Multiplying by a monomial leaves the coefficients alone, so each
    generator's block is one scatter through ``scatter_index``.
    """
    parts = [(scatter_index(r, d, t), c) for d, c in zip(degrees, coeffs) if d <= t]
    nrows = sum(cols.shape[0] for cols, _ in parts)
    out = np.zeros((nbatch, nrows, n_monomials(r, t)), dtype=np.uint16)
    row = 0
    for cols, c in parts:
        rows = np.arange(row, row + cols.shape[0])[:, None]
        out[:, rows, cols] = c[:, None, :]
        row += cols.shape[0]
    return out


def substitute(field: Field, r: int, d: int, planes: np.ndarray) -> np.ndarray:
    """The (N, C(r + d, r), C(b + d, b)) pullback maps of degree-d forms on
    P^r along an (N, r + 1, b + 1) stack of matrices of field codes: row i
    of map n holds the coefficients, as a degree-d form on P^b, of the i-th
    degree-d monomial at X = planes[n] Y.  A form's pullback is its
    coefficient row times the map."""
    planes = np.array(planes, dtype=np.uint16)
    if d < 0 or planes.ndim != 3 or planes.shape[1] != r + 1:
        raise ParameterError(f"need d >= 0 and planes of {r + 1} rows, got {d}, {planes.shape}")
    nplanes, _, width = planes.shape
    if d == 0:
        return np.full((nplanes, 1, 1), field.one, dtype=np.uint16)
    # planes on the last axis, so the gathers copy whole rows; X_i maps to row i
    linear = maps = planes.transpose(1, 2, 0)
    for t in range(2, d + 1):
        # the image of m = m_source * X_var is that of m_source times X_var(P Y)
        _, first = np.unique(scatter_index(r, 1, t), return_index=True)
        source, var = np.divmod(first, r + 1)
        prev, cols = maps[source], scatter_index(width - 1, 1, t)
        maps = np.zeros((len(source), n_monomials(width - 1, t), nplanes), dtype=np.uint16)
        # m -> m * Y_0 keeps the order, so column 0 of cols is a leading slice
        maps[:, :cols.shape[0]] = field.MUL[prev, linear[var, :1]]
        for j in range(1, width):
            maps[:, cols[:, j]] = field.ADD[maps[:, cols[:, j]],
                                            field.MUL[prev, linear[var, j:j + 1]]]
    return maps.transpose(2, 0, 1)


def partial_rows(field: Field, r: int, d: int, i: int, rows: np.ndarray) -> np.ndarray:
    """dF/dX_i of every degree-d form F whose coefficients lie on the last
    axis of rows: the coefficient of m in dF/dX_i is (m_i + 1) times the
    coefficient of m * X_i in F."""
    source, scalar = _partial_map(field, r, d, i)
    return field.MUL[rows[..., source], scalar]


class MultiPoly:
    """Homogeneous form: a dense coefficient vector of field codes."""

    __slots__ = ("field", "r", "d", "coeffs")

    def __init__(self, field: Field, r: int, d: int, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.uint16)
        if coeffs.shape != (n_monomials(r, d),):
            raise ParameterError(
                f"coefficient vector must have length {n_monomials(r, d)} "
                f"for r={r}, d={d}, got {coeffs.shape}"
            )
        if coeffs.size and int(coeffs.max()) >= field.q:
            raise ParameterError("coefficient code out of range")
        self.field = field
        self.r = r
        self.d = d
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, r: int, d: int) -> "MultiPoly":
        return cls(field, r, d, np.zeros(n_monomials(r, d), dtype=np.uint16))

    @classmethod
    def from_terms(cls, field: Field, r: int, d: int, terms: dict) -> "MultiPoly":
        coeffs = np.zeros(n_monomials(r, d), dtype=np.uint16)
        index = monomial_index(r, d)
        for exp, code in terms.items():
            coeffs[index[tuple(exp)]] = code
        return cls(field, r, d, coeffs)

    @classmethod
    def variable(cls, field: Field, r: int, i: int) -> "MultiPoly":
        if not 0 <= i <= r:
            raise ParameterError(f"variable index {i} out of range for r={r}")
        exp = tuple(1 if j == i else 0 for j in range(r + 1))
        return cls.from_terms(field, r, 1, {exp: field.one})

    @classmethod
    def random(cls, field: Field, r: int, d: int, rng: np.random.Generator) -> "MultiPoly":
        return cls(field, r, d, rng.integers(0, field.q, size=n_monomials(r, d), dtype=np.uint16))

    # -- basic structure ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def support(self):
        """Yield (exponent tuple, coefficient code) over the nonzero terms."""
        mons = monomials(self.r, self.d)
        for i in np.flatnonzero(self.coeffs):
            yield mons[i], int(self.coeffs[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.field is other.field
            and self.r == other.r
            and self.d == other.d
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((id(self.field), self.r, self.d, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        terms = [f"{c}*X^{exp}" for exp, c in self.support()]
        body = " + ".join(terms) if terms else "0"
        return f"MultiPoly({self.field}, r={self.r}, d={self.d}: {body})"

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        if self.field is not other.field or self.r != other.r:
            raise ParameterError("polynomials live over different rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        if self.d != other.d:
            raise ParameterError(f"cannot add degrees {self.d} and {other.d}")
        return MultiPoly(self.field, self.r, self.d, self.field.ADD[self.coeffs, other.coeffs])

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        # the products m * other over the monomials m of degree self.d
        rows = macaulay_stack(1, self.r, self.d + other.d, [other.d], [other.coeffs[None]])[0]
        return MultiPoly(self.field, self.r, self.d + other.d,
                         rows_times(self.field, self.coeffs[None], rows)[0])

    def scale(self, code: int) -> "MultiPoly":
        return MultiPoly(self.field, self.r, self.d, self.field.MUL[self.coeffs, code])

    def square(self) -> "MultiPoly":
        return self * self

    def partial(self, i: int) -> "MultiPoly":
        """Formal partial derivative in X_i; terms with exponent divisible by
        the characteristic drop out."""
        return MultiPoly(self.field, self.r, self.d - 1,
                         partial_rows(self.field, self.r, self.d, i, self.coeffs))


def poly_to_line(poly: MultiPoly) -> str:
    """Exchange format: 'p e r d : c_0 c_1 ...' with graded-lex coefficients
    (residues for prime fields, log-index codes for extensions)."""
    f = poly.field
    body = " ".join(str(int(c)) for c in poly.coeffs)
    return f"{f.p} {f.e} {poly.r} {poly.d} : {body}"


def poly_from_line(line: str) -> MultiPoly:
    head, _, body = line.partition(":")
    parts = head.split()
    if len(parts) != 4:
        raise ParameterError(f"malformed polynomial line: {line!r}")
    p, e, r, d = (int(x) for x in parts)
    field = gf(p, e)
    coeffs = [int(x) for x in body.split()]
    return MultiPoly(field, r, d, coeffs)
