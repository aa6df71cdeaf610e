"""Exact base-field arithmetic: the rationals, or a prime field F_p.

In characteristic 0 a scalar is an ``int`` when it is integral and a
``Fraction`` otherwise, so the common coefficients (0, 1, -1) never
build a ``Fraction``; in characteristic p it is an int in ``range(p)``.
A ``Field`` instance mediates all arithmetic and returns scalars in
this form, so that every computation in the toolkit stays exact.  An
integral ``Fraction`` equals and hashes as its int, so the two forms
agree wherever scalars are compared or hashed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldError
from .records import FrozenRecord


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field(FrozenRecord):
    """The rationals (``char == 0``) or the prime field F_char."""

    _fields = ("char",)

    def __init__(self, char: int = 0):
        if char != 0 and not _is_prime(char):
            raise FieldError("field characteristic must be 0 or a prime, got %r" % (char,))
        object.__setattr__(self, "char", char)

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def scalar(self, num, den=1):
        """Coerce an integer (pair) or Fraction into a field scalar."""
        if not (isinstance(num, (int, Fraction)) and isinstance(den, int)):
            raise FieldError("a scalar is an int or a Fraction over an int, "
                             "not %r / %r" % (num, den))
        if self.char == 0:
            if den == 1 and type(num) is int:
                return num
            return _rational(Fraction(num, den))
        if isinstance(num, Fraction):
            num, den = num.numerator, num.denominator * den
        num = int(num)
        den = int(den)
        if den % self.char == 0:
            raise FieldError("denominator %d is not invertible mod %d" % (den, self.char))
        return (num * pow(den, -1, self.char)) % self.char

    # the hot operations test for an int result inline before the
    # general ``_rational``, since on most inputs every scalar is an int

    def add(self, a, b):
        if self.char:
            return (a + b) % self.char
        r = a + b
        return r if type(r) is int else _rational(r)

    def sub(self, a, b):
        if self.char:
            return (a - b) % self.char
        r = a - b
        return r if type(r) is int else _rational(r)

    def neg(self, a):
        if self.char:
            return (-a) % self.char
        r = -a
        return r if type(r) is int else _rational(r)

    def mul(self, a, b):
        if self.char:
            return (a * b) % self.char
        r = a * b
        return r if type(r) is int else _rational(r)

    def inv(self, a):
        if self.is_zero(a):
            raise FieldError("division by zero")
        if self.char:
            return pow(a, -1, self.char)
        # never ``1 / a`` on an int, which is a float
        return _rational(Fraction(1, a) if type(a) is int else 1 / a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        """a to the integer power e (a nonzero when e < 0)."""
        if e < 0:
            a, e = self.inv(a), -e
        return _rational(a ** e) if self.char == 0 else pow(a, e, self.char)

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, text: str):
        """Parse ``"3"``, ``"-2"`` or ``"a/b"`` into a scalar."""
        text = text.strip()
        if "/" in text:
            num_s, den_s = text.split("/", 1)
            try:
                return self.scalar(int(num_s), int(den_s))
            except ValueError:
                raise FieldError("bad scalar literal %r" % text) from None
        try:
            return self.scalar(int(text))
        except ValueError:
            raise FieldError("bad scalar literal %r" % text) from None

    def format(self, a) -> str:
        if self.char == 0 and a.denominator != 1:
            return "%d/%d" % (a.numerator, a.denominator)
        return str(int(a))

    def nonzero_elements(self, limit=64):
        """Iterate the nonzero elements of F_p (all of them for small p).

        Over the rationals this is meaningless and raises.
        """
        if self.char == 0:
            raise FieldError("the rationals have infinitely many nonzero elements")
        for a in range(1, min(self.char, limit + 1)):
            yield a

    def nth_root(self, a, n: int):
        """An exact n-th root of ``a`` in the field, or None."""
        if n == 0:
            return self.one if a == self.one else None
        if n < 0:
            r = self.nth_root(a, -n)
            return None if r is None or self.is_zero(r) else self.inv(r)
        if self.char != 0:
            for x in range(1, self.char):
                if pow(x, n, self.char) == a:
                    return x
            return None
        if a == 0:
            return 0
        sign = 1
        if a < 0:
            if n % 2 == 0:
                return None
            sign = -1
            a = -a
        num = _int_nth_root(a.numerator, n)
        den = _int_nth_root(a.denominator, n)
        if num is None or den is None:
            return None
        return _rational(Fraction(sign * num, den))


def _rational(q):
    """The canonical scalar of a rational q: its int when integral."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


def _int_nth_root(m: int, n: int):
    """Exact integer n-th root of m >= 0, or None."""
    if m in (0, 1):
        return m
    lo, hi = 1, 1
    while hi ** n < m:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** n < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** n == m else None


RATIONALS = Field(0)
