"""Coefficient fields: arbitrary-precision rationals and prime fields F_p.

All arithmetic is exact.  The rational backend is gmpy2.mpq when available
(noticeably faster), fractions.Fraction otherwise; both print as "a/b" and
compare equal to Python ints, so the rest of the package never needs to know
which one is active.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover
    _mpq = Fraction


class RationalField:
    """The field of rational numbers."""

    name = "QQ"

    def of(self, value):
        """Coerce an int, rational, or "a/b" string into a field element."""
        if isinstance(value, float):
            raise TypeError("floating-point coefficients are not supported")
        return _mpq(value)

    def zero(self):
        return _mpq(0)

    def one(self):
        return _mpq(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FpElement:
    """An element of F_p. Supports mixed arithmetic with ints."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other.v
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElement(self.v + w, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElement(self.v - w, self.p)

    def __rsub__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElement(w - self.v, self.p)

    def __mul__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElement(self.v * w, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        if w == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.v * pow(w, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(w * pow(self.v, self.p - 2, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __eq__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return self.v == w

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.p, self.v))

    def __str__(self):
        return str(self.v)

    def __repr__(self):
        return f"FpElement({self.v}, p={self.p})"


# Miller-Rabin to the first twelve prime bases decides primality below 2^64:
# the least composite passing all twelve is 318665857834031151167461
# (Sorenson and Webster, Math. Comp. 86, 2017).  Larger moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p):
    """Deterministic Miller-Rabin primality test for p < 2^64."""
    if p >= 1 << 64:
        raise ValueError(f"modulus {p} is too large: primes must be below 2^64")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p for a prime p < 2^64."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F_{p}"

    def of(self, value):
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise ValueError("mixed prime fields")
            return value
        if isinstance(value, str):
            num, _, den = value.partition("/")
            e = FpElement(int(num), self.p)
            return e / int(den) if den else e
        if isinstance(value, int):
            return FpElement(value, self.p)
        # rationals map via num/den when den is invertible mod p
        num, den = value.numerator, value.denominator
        return FpElement(num, self.p) / int(den)

    def zero(self):
        return FpElement(0, self.p)

    def one(self):
        return FpElement(1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"
