"""Table-driven arithmetic for small finite fields GF(p^e).

Elements are integer codes.  For prime fields the code is the residue; for
extension fields the code is the log-index form: 0 encodes zero and k encodes
g^(k-1) for the chosen multiplicative generator g.  That encoding is also the
wire format for serialized polynomial coefficients, so it must never change.

Construction goes through the polynomial representation F_p[x]/(f): an
element, its rep, is an integer whose base-p digits are the coefficients of
x^0, x^1, ...  Every choice is the first candidate in an integer order, which
makes every table reproducible, and is made on digit rows:

- the defining polynomial f is the first monic degree-n polynomial, in the
  base-p value of its low coefficients, that is no product g * h of monic
  factors with 1 <= deg g <= n/2; the products are digit convolutions,
  keyed by ``_row_keys``;
- the generator is the first rep c whose cycle 1 -> c -> c^2 -> ... in the
  table a -> c * a has length q - 1.  That cycle is the antilog table of an
  extension field; a prime field keeps residue codes;
- the embedding of GF(p^e) in its degree-m extension sends x to the first
  extension code where f, its coefficients lifted, vanishes, and a base code
  to its rep's digits evaluated there.

Arithmetic is table lookup: ``ADD``, ``MUL``, ``NEG`` and ``INV`` are numpy
arrays indexed by codes.

This module is also the one owner of the base-q digit rows of coefficient
vectors: ``_digits`` and its inverse ``_row_keys``, every vector
(``_all_coeff_rows``), and the scaling classes (``_class_rows``), zero and
one vector per line, whose last nonzero coefficient is the code 1.  That code
is ``Field.one`` in every field.  The class rows are the points of projective
space (``points.projective_points``), the exhaustive walk's forms and the
plane's square factors (``experiments``); the field tables take their
base-p digits from ``_digits``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import BudgetError, ParameterError

SUPPORTED_PRIMES = (2, 3, 5, 7)
SUPPORTED_EXTENSIONS = (1, 2, 3)
MAX_TABLE_Q = 1024


def _digits(values: np.ndarray, q: int, n: int) -> np.ndarray:
    """The n base-q digits of each value, least significant first."""
    out = np.empty((len(values), n), dtype=np.uint16)
    for j in range(n):
        values, out[:, j] = np.divmod(values, q)
    return out


def _row_keys(q: int, rows: np.ndarray) -> np.ndarray:
    """The uint64 base-q value of each row, the inverse of ``_digits``."""
    return rows.astype(np.uint64) @ np.uint64(q) ** np.arange(rows.shape[1], dtype=np.uint64)


def _all_coeff_rows(q: int, n: int) -> np.ndarray:
    """All q^n coefficient vectors, little-endian in the row index."""
    return _digits(np.arange(q**n, dtype=np.int64), q, n)


def _n_classes(q: int, n: int) -> int:
    """Scaling classes of vectors of n coefficients: zero and the lines."""
    return 1 + (q**n - 1) // (q - 1)


def _class_rows(q: int, n: int, x: np.ndarray) -> np.ndarray:
    """The coefficient row of each scaling class x of vectors of n
    coefficients.  Class 0 is zero; class x = 1 + (q^j - 1)/(q - 1) + t with
    0 <= t < q^j is the vector of base-q value q^j + t, whose top nonzero
    coefficient is the code 1, that is field.one.  Over GF(2) class x is the
    vector of value x."""
    starts = 1 + (q ** np.arange(n, dtype=np.int64) - 1) // (q - 1)
    j = np.maximum(np.searchsorted(starts, x, side="right") - 1, 0)
    return _digits(q**j + x - starts[j], q, n)


def _find_irreducible(p: int, n: int) -> list[int]:
    """First monic irreducible of degree n over F_p, as its coefficients of
    x^0 ... x^n: the first, in the base-p value of its n low coefficients,
    that no product g * h of monic g, h with 1 <= deg g <= n/2 equals.  The
    digit rows of the monic degree-m polynomials are those of p^m ... 2p^m - 1."""
    reducible = np.zeros(p**n, dtype=bool)
    for m in range(1, n // 2 + 1):
        g = _digits(p**m + np.arange(p**m), p, m + 1)
        h = _digits(p ** (n - m) + np.arange(p ** (n - m)), p, n - m + 1)
        product = np.zeros((len(g), len(h), n + 1), dtype=np.int64)
        for i in range(m + 1):
            product[:, :, i:i + n - m + 1] += g[:, None, i, None] * h
        reducible[_row_keys(p, product.reshape(-1, n + 1)[:, :n] % p)] = True
    return _digits(np.argmin(reducible)[None], p, n)[0].tolist() + [1]


class Field:
    """Precomputed ADD/MUL/NEG/INV tables for GF(p^e), indexed by codes."""

    def __init__(self, p: int, n: int):
        q = p**n
        if q > MAX_TABLE_Q and n > 1:
            raise BudgetError(f"GF({p}^{n}) exceeds the table budget (q={q} > {MAX_TABLE_Q})")
        self.p = p
        self.e = n
        self.q = q
        self.modulus = _find_irreducible(p, n)

        # the generator: the first rep c whose cycle 1 -> c -> c^2 -> ... in
        # the table a -> c * a has length q - 1.  The digit rows of x^j * a,
        # j < n, are built once for every rep a: times x shifts a row up one
        # digit and subtracts the top digit times f's low coefficients.  The
        # table of c sums them with c's digits as weights, mod p
        reps = _all_coeff_rows(p, n).astype(np.int64)
        low = np.array(self.modulus[:-1])
        powers = [reps]
        for _ in range(n - 1):
            top = powers[-1][:, -1:]
            powers.append((np.hstack([0 * top, powers[-1][:, :-1]]) - top * low) % p)
        stacked = np.stack(powers).reshape(n, q * n)
        for gen in range(1, q):
            times_gen = _row_keys(p, (reps[gen] @ stacked).reshape(q, n) % p).tolist()
            cycle = [1]
            while times_gen[cycle[-1]] != 1:
                cycle.append(times_gen[cycle[-1]])
            if len(cycle) == q - 1:
                break
        self.generator_rep = gen

        # code <-> polynomial representation: the residue itself over a prime
        # field, else code k for gen^(k-1), so the cycle is the antilog table
        code_from_rep = np.arange(q, dtype=np.int64)
        if n > 1:
            code_from_rep[cycle] = np.arange(1, q)
        self._code_from_rep = code_from_rep.astype(np.uint16)
        rep_from_code = np.zeros(q, dtype=np.int64)
        rep_from_code[code_from_rep] = np.arange(q)
        self._rep_from_code = rep_from_code

        self._build_tables()
        self._ext_cache: dict[int, tuple[Field, np.ndarray]] = {}

    def _build_tables(self):
        p, n, q = self.p, self.e, self.q
        if n == 1:
            i = np.arange(q, dtype=np.int64)
            self.ADD = ((i[:, None] + i[None, :]) % p).astype(np.uint16)
            self.MUL = ((i[:, None] * i[None, :]) % p).astype(np.uint16)
            self.NEG = ((-i) % p).astype(np.uint16)
            inv = np.zeros(q, dtype=np.uint16)
            for a in range(1, q):
                inv[a] = pow(a, p - 2, p)
            self.INV = inv
        else:
            # add and negate digitwise in the polynomial representation: the
            # sum of reps a and b is a + b less p^(j + 1) for each digit j
            # where they carry, found one digit at a time in one reused
            # uint16 buffer, so no (q, q, n) or int64 (q, q) array is held
            digits = _digits(self._rep_from_code, p, n)
            rep = self._rep_from_code.astype(np.uint16)
            add_rep, carry = rep[:, None] + rep[None, :], np.empty((q, q), dtype=np.uint16)
            for j, column in enumerate(digits.T.copy()):
                np.add(column[:, None], column[None, :], out=carry)
                np.greater_equal(carry, p, out=carry)
                carry *= p ** (j + 1)
                add_rep -= carry
            del carry
            self.ADD = self._code_from_rep[add_rep]
            self.NEG = self._code_from_rep[_row_keys(p, (p - digits) % p)]

            # code k >= 1 has log k - 1, and logs add mod q - 1
            logs = np.arange(q - 1, dtype=np.uint16)
            self.MUL = np.zeros((q, q), dtype=np.uint16)
            product = self.MUL[1:, 1:]
            np.add(logs[:, None], logs[None, :], out=product)
            np.subtract(product, q - 1, out=product, where=product >= q - 1)
            product += 1
            inv = ((-np.arange(-1, q - 1)) % (q - 1)) + 1
            inv[0] = 0
            self.INV = inv.astype(np.uint16)
        self.one = int(self._code_from_rep[1])

    # -- scalar operations on codes -------------------------------------------

    def from_int(self, m: int) -> int:
        return int(self._code_from_rep[m % self.p])

    def element_order(self, code: int) -> int:
        if code == 0:
            raise ParameterError("zero has no multiplicative order")
        order, x = 1, code
        while x != self.one:
            x = int(self.MUL[x, code])
            order += 1
        return order

    @property
    def generator_code(self) -> int:
        return int(self._code_from_rep[self.generator_rep])

    # -- extensions -----------------------------------------------------------

    def extension(self, m: int) -> tuple["Field", np.ndarray]:
        """The degree-m extension together with the embedding table
        EMB[base code] -> extension code."""
        if m < 1:
            raise ParameterError(f"need m >= 1, got {m}")
        if m == 1:
            return self, np.arange(self.q, dtype=np.uint16)
        if m not in self._ext_cache:
            ext = _build_field(self.p, self.e * m)
            self._ext_cache[m] = (ext, self._embed_into(ext))
        return self._ext_cache[m]

    def _embed_into(self, ext: "Field") -> np.ndarray:
        # the root: the first ext code where the modulus, its coefficients
        # lifted to ext, vanishes, by Horner over every ext code at once.  A
        # base code maps to its rep's digits, by Horner at the root
        lift, x = ext._code_from_rep[:self.p], np.arange(ext.q)
        value = np.zeros(ext.q, dtype=np.uint16)
        for c in reversed(self.modulus):
            value = ext.ADD[ext.MUL[value, x], lift[c]]
        root = np.flatnonzero(value == 0)[0]
        emb = np.zeros(self.q, dtype=np.uint16)
        for digits in _digits(self._rep_from_code, self.p, self.e).T[::-1]:
            emb = ext.ADD[ext.MUL[emb, root], lift[digits]]
        return emb

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def _build_field(p: int, n: int) -> Field:
    return Field(p, n)


def gf(p: int, e: int = 1) -> Field:
    """The supported experiment base fields: p in {2,3,5,7}, e in {1,2,3}."""
    if p not in SUPPORTED_PRIMES or e not in SUPPORTED_EXTENSIONS:
        raise ParameterError(
            f"unsupported field GF({p}^{e}); p must be in {SUPPORTED_PRIMES} "
            f"and e in {SUPPORTED_EXTENSIONS}"
        )
    return _build_field(p, e)


def parse_field(spec: str) -> Field:
    """Parse '2', '9', '2^3', or '3,2' into a supported field."""
    try:
        parts = [int(x) for x in spec.replace("^", ",").split(",")]
    except ValueError:
        parts = []
    if len(parts) == 2:
        return gf(*parts)
    if len(parts) == 1:
        for p in SUPPORTED_PRIMES:
            for e in SUPPORTED_EXTENSIONS:
                if p**e == parts[0]:
                    return gf(p, e)
        raise ParameterError(f"{parts[0]} is not a supported prime power")
    raise ParameterError(f"bad field {spec!r}; expected q, p^e or p,e")
