"""The rank-4 commutative algebra Q[rm, rp] with rm^2 = t-2 and rp^2 = t+2.

Elements are written on the basis (1, rm, rp, rm*rp) for a fixed rational t.
For generic t this is a field; for special t it has zero divisors, and
inverting one raises ZeroDivisorError.  When both t-2 and t+2 are squares in Q
the algebra admits the evaluation homomorphism rm -> sqrt(t-2), rp -> sqrt(t+2)
onto Q itself (see `instantiation`).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .univariate import _exact, _fraction, _join_terms


class ZeroDivisorError(ArithmeticError):
    """Raised when inverting an element with vanishing norm."""


def _sqrt_fraction(q: Fraction):
    """Exact non-negative square root of a rational, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def instantiation(t):
    """(sqrt(t-2), sqrt(t+2)) as rationals when both exist, else None."""
    t = _exact(t)
    rm = _sqrt_fraction(t - 2)
    rp = _sqrt_fraction(t + 2)
    if rm is None or rp is None:
        return None
    return rm, rp


class SqrtAlgebraElem:
    __slots__ = ("t", "a", "b", "c", "d")

    def __init__(self, t, a=0, b=0, c=0, d=0):
        self.t, self.a, self.b, self.c, self.d = map(_fraction, (t, a, b, c, d))

    @classmethod
    def rational(cls, t, a):
        return cls(t, a)

    @classmethod
    def rm(cls, t):
        """The square root of t-2."""
        return cls(t, 0, 1)

    @classmethod
    def rp(cls, t):
        """The square root of t+2."""
        return cls(t, 0, 0, 1)

    def coords(self):
        return (self.a, self.b, self.c, self.d)

    def is_zero(self):
        return not (self.a or self.b or self.c or self.d)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self):
        return not (self.b or self.c or self.d)

    def _coerce(self, other):
        if isinstance(other, SqrtAlgebraElem):
            if other.t != self.t:
                raise ValueError("elements live over different t: %s vs %s" % (self.t, other.t))
            return other
        if isinstance(other, (int, Fraction)):
            return SqrtAlgebraElem(self.t, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtAlgebraElem(self.t, self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtAlgebraElem(self.t, self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return SqrtAlgebraElem(self.t, -self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.t - 2
        p = self.t + 2
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return SqrtAlgebraElem(
            self.t,
            a1 * a2 + m * b1 * b2 + p * c1 * c2 + m * p * d1 * d2,
            a1 * b2 + b1 * a2 + p * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + m * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def conj_rm(self):
        """The automorphism rm -> -rm."""
        return SqrtAlgebraElem(self.t, self.a, -self.b, self.c, -self.d)

    def conj_rp(self):
        """The automorphism rp -> -rp."""
        return SqrtAlgebraElem(self.t, self.a, self.b, -self.c, -self.d)

    def norm(self) -> Fraction:
        """Product of the element with its three conjugates; lands in Q."""
        w = self.conj_rm() * (self.conj_rp() * self.conj_rm().conj_rp())
        norm = self * w
        if not norm.is_rational():  # norm is a product over all four sign choices
            raise ArithmeticError("norm failed to land in Q")
        return norm.a

    def is_unit(self) -> bool:
        return self.norm() != 0

    def inverse(self):
        """Multiplicative inverse via the norm over Q; ZeroDivisorError when norm is 0."""
        w = self.conj_rm() * (self.conj_rp() * self.conj_rm().conj_rp())
        n = self.norm()
        if n == 0:
            raise ZeroDivisorError("element has zero norm; not invertible (t = %s)" % self.t)
        return SqrtAlgebraElem(self.t, w.a / n, w.b / n, w.c / n, w.d / n)

    def evaluate(self, rm_value, rp_value):
        """Image under rm -> rm_value, rp -> rp_value (caller picks valid roots)."""
        rm_value, rp_value = _exact(rm_value), _exact(rp_value)
        return self.a + self.b * rm_value + self.c * rp_value + self.d * rm_value * rp_value

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.a == other
        if not isinstance(other, SqrtAlgebraElem):
            return NotImplemented
        return (self.t == other.t and self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    __hash__ = None

    def __str__(self):
        return _join_terms(zip(self.coords(), ("", "rm", "rp", "rm*rp")))

    def __repr__(self):
        return "SqrtAlgebraElem(t=%s: %s)" % (self.t, self)
