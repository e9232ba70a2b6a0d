"""Table-driven arithmetic for small finite fields GF(p^e).

Elements are integer codes.  For prime fields the code is the residue; for
extension fields the code is the log-index form: 0 encodes zero and k encodes
g^(k-1) for the chosen multiplicative generator g.  That encoding is also the
wire format for serialized polynomial coefficients, so it must never change.

Construction goes through the polynomial representation F_p[x]/(f): an
element is an integer whose base-p digits are the coefficients of x^0, x^1,
...  The defining irreducible f and the generator are both chosen as the
first candidate in that integer order, which makes every table reproducible.

Arithmetic is table lookup: ``ADD``, ``MUL``, ``NEG`` and ``INV`` are numpy
arrays indexed by codes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import BudgetError, ParameterError

SUPPORTED_PRIMES = (2, 3, 5, 7)
SUPPORTED_EXTENSIONS = (1, 2, 3)
MAX_TABLE_Q = 1024


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, f, p):
    # f monic
    a = list(a)
    nf = len(f) - 1
    while len(a) - 1 >= nf and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - nf
            for j, fj in enumerate(f):
                a[shift + j] = (a[shift + j] - lead * fj) % p
        a.pop()
    return _poly_trim(a)


def _rep_to_list(rep: int, p: int) -> list[int]:
    out = []
    while rep:
        rep, d = divmod(rep, p)
        out.append(d)
    return out


def _list_to_rep(lst, p: int) -> int:
    rep = 0
    for d in reversed(lst):
        rep = rep * p + d
    return rep


def _find_irreducible(p: int, n: int) -> list[int]:
    """First monic irreducible of degree n over F_p, as a coefficient list."""
    divisors = []
    for m in range(1, n // 2 + 1):
        for c in range(p**m):
            divisors.append(_rep_to_list(c, p) + [0] * (m - len(_rep_to_list(c, p))) + [1])
    for c in range(p**n):
        f = _rep_to_list(c, p)
        f = f + [0] * (n - len(f)) + [1]
        if all(_poly_mod(f, g, p) for g in divisors):
            return f
    raise ParameterError(f"no irreducible of degree {n} over F_{p}")  # pragma: no cover


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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

        def mulmod(a_rep, b_rep):
            prod = _poly_mul(_rep_to_list(a_rep, p), _rep_to_list(b_rep, p), p)
            return _list_to_rep(_poly_mod(prod, self.modulus, p), p)

        # generator: first element of full multiplicative order
        factors = _prime_factors(q - 1) if q > 2 else []

        def powmod(a_rep, m):
            result, base = 1, a_rep
            while m:
                if m & 1:
                    result = mulmod(result, base)
                base = mulmod(base, base)
                m >>= 1
            return result

        gen = None
        for cand in range(1, q):
            if all(powmod(cand, (q - 1) // f) != 1 for f in factors):
                gen = cand
                break
        self.generator_rep = gen

        # code <-> polynomial representation: the residue itself over a prime
        # field, else code k for gen^(k-1)
        if n == 1:
            code_from_rep = np.arange(q, dtype=np.int64)
        else:
            code_from_rep = np.zeros(q, dtype=np.int64)
            x = 1
            for i in range(q - 1):
                code_from_rep[x] = i + 1
                x = mulmod(x, gen)
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
            reps = self._rep_from_code
            digits = np.zeros((q, n), dtype=np.int64)
            tmp = reps.copy()
            for j in range(n):
                digits[:, j] = tmp % p
                tmp //= p
            add_rep = np.zeros((q, q), dtype=np.int64)
            neg_rep = np.zeros(q, dtype=np.int64)
            scale = 1
            for j in range(n):
                add_rep += ((digits[:, None, j] + digits[None, :, j]) % p) * scale
                neg_rep += ((-digits[:, j]) % p) * scale
                scale *= p
            self.ADD = self._code_from_rep[add_rep]
            self.NEG = self._code_from_rep[neg_rep]

            k = np.arange(q, dtype=np.int64)
            logs = k - 1  # valid for k >= 1
            mul = ((logs[:, None] + logs[None, :]) % (q - 1)) + 1
            mul[0, :] = 0
            mul[:, 0] = 0
            self.MUL = mul.astype(np.uint16)
            inv = ((-logs) % (q - 1)) + 1
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
        # root of the defining polynomial, first in code order: fixes the
        # embedding deterministically
        root = None
        for x in range(ext.q):
            acc = ext.from_int(self.modulus[-1])
            for c in reversed(self.modulus[:-1]):
                acc = int(ext.ADD[ext.MUL[acc, x], ext.from_int(c)])
            if acc == 0:
                root = x
                break
        if root is None:  # pragma: no cover - impossible for a true extension
            raise ParameterError(f"no root of the degree-{self.e} modulus in GF({ext.q})")
        emb = np.zeros(self.q, dtype=np.uint16)
        for code in range(self.q):
            rep = int(self._rep_from_code[code])
            coeffs = _rep_to_list(rep, self.p)
            acc = 0
            for c in reversed(coeffs):
                acc = int(ext.ADD[ext.MUL[acc, root], ext.from_int(c)])
            emb[code] = acc
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
