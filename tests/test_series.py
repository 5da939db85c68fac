"""Truncated power-series algebra."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygen.errors import (DomainError, RangeError, SingularityError,
                            UsageError)
from polygen.exact import CPoly, MultiPoly, W, X, Y
from polygen.series import (constant, cos_sin, default_order, exp,
                            from_t_poly, invert, pow_int)


def test_geometric_inverse():
    geo = invert(from_t_poly({0: 1, 1: -1}, 6, "ogf"))
    assert [geo.coefficient(n) for n in range(7)] == [MultiPoly.const(1)] * 7


def test_exp_of_t():
    e = exp(from_t_poly({1: 1}, 6, "egf"))
    # EGF coefficient n is n! / n! = 1
    for n in range(7):
        assert e.coefficient(n) == 1
        assert e.raw(n) == Fraction(1, math.factorial(n))


def test_exp_requires_zero_constant():
    with pytest.raises(DomainError):
        exp(from_t_poly({0: 1, 1: 1}, 4, "egf"))


def test_exp_homomorphism_on_polys():
    f = from_t_poly({1: X}, 5, "egf")
    g = from_t_poly({2: Y}, 5, "egf")
    assert exp(f + g) == exp(f) * exp(g)


def test_cos_sin_values():
    c, s = cos_sin(from_t_poly({1: Y}, 5, "egf"))
    assert c.coefficient(0) == 1
    assert c.coefficient(1) == 0
    assert c.coefficient(2) == Y * Y * -1
    assert s.coefficient(1) == Y
    assert s.coefficient(3) == Y ** 3 * -1
    with pytest.raises(DomainError):
        cos_sin(from_t_poly({0: 1}, 4, "egf"))


def test_cos_sin_pythagoras():
    c, s = cos_sin(from_t_poly({1: X, 3: Y}, 8, "egf"))
    assert c * c + s * s == constant(1, 8, "egf")


def test_cos_sin_refuses_complex_coefficients():
    # cos(f) and sin(f) are the parts of exp(i*f) only for a real f
    with pytest.raises(UsageError):
        cos_sin(from_t_poly({1: W}, 4, "egf"))


def test_exp_of_complex_series_is_complex_at_every_index():
    e = exp(from_t_poly({1: W, 2: X}, 5, "egf"))
    assert all(type(e.raw(n)) is CPoly for n in range(6))
    assert e.raw(0) == 1 and e.raw(1) == W
    assert e.coefficient(2) == W * W + X * 2


def test_invert_and_pow_of_complex_series_are_complex_at_every_index():
    f = from_t_poly({0: 1, 1: W}, 3, "egf")
    inv = invert(f)
    for g in (inv, pow_int(f, 2), pow_int(f, 0), pow_int(f, -1)):
        assert [type(c) for c in g.coeffs] == [CPoly] * 4
    assert inv * f == constant(1, 3, "egf")
    assert pow_int(f, 2) == f * f and pow_int(f, -1) == inv
    assert pow_int(f, 0).raw(0) == 1 and pow_int(f, 0).raw(3) == 0
    real = from_t_poly({0: 1, 1: X}, 3, "egf")
    for g in (invert(real), pow_int(real, 2), pow_int(real, 0)):
        assert [type(c) for c in g.coeffs] == [MultiPoly] * 4


def test_invert_errors():
    with pytest.raises(SingularityError):
        invert(from_t_poly({1: 1}, 4, "ogf"))
    with pytest.raises(SingularityError):
        invert(from_t_poly({0: X}, 4, "ogf"))


def test_invert_two_sided():
    f = from_t_poly({0: 2, 1: X, 2: -1}, 6, "ogf")
    one = constant(1, 6, "ogf")
    assert f * invert(f) == one
    assert invert(f) * f == one


def test_pow_int():
    f = from_t_poly({0: 1, 1: 1}, 5, "ogf")
    cube = pow_int(f, 3)
    assert [cube.raw(n) for n in range(5)] == [1, 3, 3, 1, 0]
    assert pow_int(f, 0) == constant(1, 5, "ogf")
    assert pow_int(f, -1) == invert(f)
    assert pow_int(f, -2) == invert(f) * invert(f)
    with pytest.raises(SingularityError):
        pow_int(from_t_poly({1: 1}, 4, "ogf"), -1)


def test_convention_discipline():
    f = from_t_poly({1: X}, 4, "egf")
    g = from_t_poly({1: X}, 4, "ogf")
    with pytest.raises(UsageError):
        f + g
    with pytest.raises(UsageError):
        f * g
    with pytest.raises(UsageError):
        f + from_t_poly({1: X}, 5, "egf")
    assert f.with_convention("ogf") == g
    assert f.with_convention("egf") is f


def test_coefficient_scaling_and_range():
    # from_t_poly stores raw t^n coefficients; the egf accessor scales by n!
    f = from_t_poly({3: X}, 4, "egf")
    assert f.raw(3) == X
    assert f.coefficient(3) == X * 6
    with pytest.raises(RangeError):
        f.coefficient(5)
    with pytest.raises(RangeError):
        f.raw(-1)


def test_series_hashable_and_eq():
    f = from_t_poly({1: X}, 4, "egf")
    g = from_t_poly({1: X}, 4, "egf")
    assert f == g and hash(f) == hash(g)
    assert f != from_t_poly({1: Y}, 4, "egf")


def test_default_order(monkeypatch):
    monkeypatch.delenv("POLYGEN_ORDER", raising=False)
    assert default_order() == 16
    monkeypatch.setenv("POLYGEN_ORDER", "5")
    assert default_order() == 5
    monkeypatch.setenv("POLYGEN_ORDER", "junk")
    with pytest.raises(UsageError):
        default_order()


def test_bad_convention():
    with pytest.raises(UsageError):
        from_t_poly({0: 1}, 3, "taylor")


# ----------------------------------------------------------------------
# properties

_scalars = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def series_list(draw, order=6, unit=False, zero_const=False):
    coeffs = [draw(_scalars) for _ in range(order + 1)]
    if unit:
        coeffs[0] = draw(_scalars.filter(bool))
    if zero_const:
        coeffs[0] = Fraction(0)
    return from_t_poly(dict(enumerate(coeffs)), order, "egf")


@given(series_list(), series_list(), series_list())
@settings(max_examples=50, deadline=None)
def test_mul_commutative_associative(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(series_list(unit=True))
@settings(max_examples=50, deadline=None)
def test_invert_round_trip(f):
    assert f * invert(f) == constant(1, f.order, "egf")


@given(series_list(zero_const=True), series_list(zero_const=True))
@settings(max_examples=30, deadline=None)
def test_exp_addition_law(f, g):
    assert exp(f + g) == exp(f) * exp(g)


@given(series_list(zero_const=True), series_list(zero_const=True))
@settings(max_examples=30, deadline=None)
def test_sine_addition_law(f, g):
    cf_, sf = cos_sin(f)
    cg, sg = cos_sin(g)
    c_sum, s_sum = cos_sin(f + g)
    assert s_sum == sf * cg + cf_ * sg
    assert c_sum == cf_ * cg - sf * sg


@given(series_list(unit=True), st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_pow_int_addition_law(f, a, b):
    assert pow_int(f, a) * pow_int(f, b) == pow_int(f, a + b)
