"""Exact integer combinatorics: binomials, the minimal-degree Hilbert lower
bound, and a checked extended-integer type.

All values are exact integers kept inside a checked signed 128-bit range;
anything larger raises BudgetOverflowError, both a BudgetError and an
OverflowError, instead of silently growing (arbitrary precision is never
needed at in-scope parameter sizes and the check catches runaway parameters
early).  Its message gives the value's bit length, not its digits.
"""

from __future__ import annotations

import math
from functools import lru_cache, total_ordering

from .errors import BudgetOverflowError, ParameterError

I128_MAX = 2**127 - 1
I128_MIN = -(2**127)


def _checked(value: int) -> int:
    if not (I128_MIN <= value <= I128_MAX):
        raise BudgetOverflowError(f"a {value.bit_length()}-bit value is outside the checked "
                                  "128-bit range")
    return value


@total_ordering
class ExtInt:
    """A checked integer extended with +infinity.

    +infinity is the codimension of an empty locus (the minimum over an empty
    index set).  Addition saturates at infinity; finite overflow raises.
    Subtracting infinity from anything is an error.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | None):
        # None encodes +infinity
        if value is not None:
            value = _checked(int(value))
        object.__setattr__(self, "_value", value)

    def __setattr__(self, name, val):  # pragma: no cover - guard only
        raise AttributeError("ExtInt is immutable")

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def finite(self) -> int:
        """The finite value; raises on +infinity."""
        if self._value is None:
            raise ParameterError("value is +infinity")
        return self._value

    def __int__(self) -> int:
        return self.finite

    def __add__(self, other) -> "ExtInt":
        other = as_extint(other)
        if self.is_infinite or other.is_infinite:
            return INF
        return ExtInt(_checked(self._value + other._value))

    __radd__ = __add__

    def __sub__(self, other) -> "ExtInt":
        other = as_extint(other)
        if other.is_infinite:
            raise ParameterError("cannot subtract +infinity")
        if self.is_infinite:
            return INF
        return ExtInt(_checked(self._value - other._value))

    def __eq__(self, other) -> bool:
        try:
            other = as_extint(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self._value == other._value

    def __lt__(self, other) -> bool:
        other = as_extint(other)
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(("ExtInt", self._value))

    def __repr__(self) -> str:
        return "ExtInt(inf)" if self.is_infinite else f"ExtInt({self._value})"

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(self._value)


INF = ExtInt(None)


def as_extint(x) -> ExtInt:
    if isinstance(x, ExtInt):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a valid ExtInt")
    if isinstance(x, int):
        return ExtInt(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as ExtInt")


def ext_min(values) -> ExtInt:
    """Minimum of an iterable of ExtInt/int; +infinity for an empty iterable."""
    best = INF
    for v in values:
        v = as_extint(v)
        if v < best:
            best = v
    return best


@lru_cache(maxsize=None)
def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k > n."""
    if n < 0 or k < 0:
        raise ParameterError(f"binomial requires nonnegative arguments, got ({n}, {k})")
    if k > n:
        return 0
    return _checked(math.comb(n, k))


@lru_cache(maxsize=None)
def h_min(r: int, a: int, d: int) -> int:
    """Lower bound for the Hilbert function at degree d of a nondegenerate
    a-dimensional subvariety of an ambient projective r-space.

    Equality is attained exactly by the varieties of minimal degree (rational
    normal curves, minimal surfaces, quadric hypersurfaces, ...), which is why
    this is the sharp per-hypersurface condition count used by the stratum
    calculus.  a = 0 is allowed and gives r + 1 (points in general position).
    """
    if not 0 <= a <= r:
        raise ParameterError(f"need 0 <= a <= r, got a={a}, r={r}")
    if d < 1:
        raise ParameterError(f"need d >= 1, got d={d}")
    return _checked((r - a) * binomial(d + a - 1, d - 1) + binomial(d + a, d))
