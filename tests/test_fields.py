"""Field arithmetic over Q against plain ``Fraction`` arithmetic.

A rational scalar is an ``int`` when it is integral and a ``Fraction``
otherwise, whatever form the operands came in.
"""

import random
from fractions import Fraction

import pytest

from bqkit.errors import FieldError
from bqkit.fields import RATIONALS, Field


def canonical(value):
    """True if value is in the one scalar form of characteristic 0."""
    if type(value) is int:
        return True
    return type(value) is Fraction and value.denominator != 1


def random_operand(rng):
    """An int, a proper Fraction or an integral Fraction, at random."""
    num = rng.randint(-12, 12)
    kind = rng.randrange(3)
    if kind == 0:
        return num
    if kind == 1:
        return Fraction(num, rng.randint(1, 9))
    return Fraction(num)  # integral, in the non-canonical form


def test_operations_match_fraction_arithmetic():
    rng = random.Random(11)
    fld = RATIONALS
    for _ in range(2000):
        a, b = random_operand(rng), random_operand(rng)
        fa, fb = Fraction(a), Fraction(b)
        e = rng.randint(-3, 3)
        results = [(fld.add(a, b), fa + fb), (fld.sub(a, b), fa - fb),
                   (fld.neg(a), -fa), (fld.mul(a, b), fa * fb),
                   (fld.scalar(a), fa)]
        if fb:
            results += [(fld.inv(b), 1 / fb), (fld.div(a, b), fa / fb),
                        (fld.scalar(a, int(b) or 1), fa / (int(b) or 1)),
                        (fld.pow(b, e), fb ** e)]
        if e >= 0:
            results.append((fld.pow(a, e), fa ** e))
        for got, want in results:
            assert got == want
            assert canonical(got), (a, b, e, got)


def test_zero_and_one_are_ints():
    assert type(RATIONALS.zero) is int and RATIONALS.zero == 0
    assert type(RATIONALS.one) is int and RATIONALS.one == 1
    assert RATIONALS.is_zero(Fraction(0)) and RATIONALS.is_zero(0)


def test_inverse_of_an_int_is_a_fraction_not_a_float():
    half = RATIONALS.inv(2)
    assert half == Fraction(1, 2)
    assert type(half) is Fraction
    assert type(RATIONALS.inv(-1)) is int and RATIONALS.inv(-1) == -1
    assert type(RATIONALS.div(3, 4)) is Fraction
    assert type(RATIONALS.inv(Fraction(1, 3))) is int
    with pytest.raises(FieldError):
        RATIONALS.inv(0)


@pytest.mark.parametrize("char", [0, 5])
@pytest.mark.parametrize("num, den", [
    ("3", 1), (None, 1), (1.5, 1), (3, "2"), (3, None), (3, 2.0),
], ids=["str", "none", "float", "str-den", "none-den", "float-den"])
def test_scalar_rejects_what_is_not_rational(char, num, den):
    with pytest.raises(FieldError):
        Field(char).scalar(num, den)


def test_integral_results_are_ints():
    assert type(RATIONALS.mul(Fraction(2, 3), Fraction(3, 2))) is int
    assert type(RATIONALS.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(RATIONALS.scalar(6, 3)) is int
    assert type(RATIONALS.scalar(Fraction(4, 2))) is int
    assert type(RATIONALS.parse("-8/4")) is int
    assert type(RATIONALS.parse("3/5")) is Fraction


@pytest.mark.parametrize("a, n, root", [
    (Fraction(8, 27), 3, Fraction(2, 3)),
    (4, 2, 2),
    (Fraction(4), 2, 2),
    (-8, 3, -2),
    (-4, 2, None),
    (2, 2, None),
    (Fraction(1, 4), -2, 2),
    (9, -2, Fraction(1, 3)),
    (1, 0, 1),
    (5, 0, None),
    (0, 5, 0),
])
def test_nth_root(a, n, root):
    got = RATIONALS.nth_root(a, n)
    assert got == root
    assert got is None or canonical(got)


def test_nth_root_inverts_pow():
    rng = random.Random(3)
    for _ in range(300):
        r = random_operand(rng)
        n = rng.randint(1, 4)
        got = RATIONALS.nth_root(RATIONALS.pow(r, n), n)
        assert got == (abs(r) if n % 2 == 0 else r)
        assert canonical(got)


@pytest.mark.parametrize("value, text", [
    (Fraction(3, 5), "3/5"), (Fraction(-7, 4), "-7/4"), (2, "2"),
    (Fraction(2), "2"), (-1, "-1"), (0, "0"), (Fraction(0), "0"),
])
def test_format(value, text):
    assert RATIONALS.format(value) == text


def test_prime_field_is_unchanged():
    f5 = Field(5)
    assert (f5.zero, f5.one) == (0, 1)
    assert f5.scalar(1, 2) == 3
    assert f5.inv(2) == 3
    assert f5.add(4, 3) == 2
    assert f5.neg(1) == 4
    assert f5.pow(2, -1) == 3
    assert f5.nth_root(4, 2) in (2, 3)
