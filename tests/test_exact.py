"""Ring behavior of the sparse polynomial core."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygen.errors import UsageError
from polygen.exact import (VARS, CPoly, MultiPoly, S, U, W, W_BAR, X, Y,
                           binom, falling)


def test_canonical_strings():
    assert str(X * X - Y * Y + U[1] * 2) == "x^2 - y^2 + 2*u2"
    assert str(X * Fraction(1, 2)) == "1/2*x"
    assert str(MultiPoly.zero()) == "0"
    assert str(MultiPoly.const(-3)) == "-3"
    assert str(X - 1) == "x - 1"
    assert str(-X) == "-x"
    assert str(X ** 3 * Fraction(-2, 3)) == "-2/3*x^3"


def test_cpoly_string():
    assert str(CPoly(X * X - Y * Y, X * Y * 2)) == "(x^2 - y^2) + i*(2*x*y)"
    assert str(CPoly.real(X)) == "x"
    assert str(CPoly.zero()) == "0"


def test_alphabet():
    assert VARS == ("x", "y", "s", "a", "b", "lambda", "alpha",
                    "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8")
    with pytest.raises(UsageError):
        MultiPoly.variable("t")


def test_arith_basics():
    assert (X + Y) ** 2 == X * X + X * Y * 2 + Y * Y
    assert (X - Y) * (X + Y) == X * X - Y * Y
    assert X * 0 == MultiPoly.zero()
    assert (X + 1) - (X + 1) == 0
    assert 2 - X == MultiPoly.const(2) - X
    assert X ** 0 == 1


def test_float_rejection():
    with pytest.raises(UsageError):
        MultiPoly.const(0.5)
    with pytest.raises(UsageError):
        MultiPoly.monomial({"x": 1}, 0.5)
    with pytest.raises(UsageError):
        X.eval({"x": 0.5})
    with pytest.raises(UsageError):
        X.substitute("x", 0.25)


def test_bool_rejection():
    for make in (lambda: MultiPoly.const(True),
                 lambda: MultiPoly.monomial({"x": 1}, False),
                 lambda: X * True, lambda: X + True, lambda: CPoly.real(True)):
        with pytest.raises(UsageError):
            make()
    # like a float, a bool compares unequal instead of raising
    assert MultiPoly.const(1) != True  # noqa: E712
    assert CPoly.real(X) != False  # noqa: E712


def test_s_reduction():
    assert (S * S).reduce_s() == MultiPoly.const(1, True) - (
        X * X).reduce_s()
    # odd powers keep one s
    assert (S ** 3).reduce_s() == (S - S * X * X).reduce_s()
    # substitute then reduce: the first-kind Chebyshev bridge at n = 2
    assert (X * X - Y * Y).substitute("y", S).reduce_s() == (
        X * X * 2 - 1).reduce_s()


def test_reduced_flag_discipline():
    reduced = (S * S).reduce_s()
    with pytest.raises(UsageError):
        reduced + S
    with pytest.raises(UsageError):
        reduced * S
    assert reduced.forget_s_reduction().reduced_s is False
    # constants compare by value whatever their flag; others by flag too
    two = MultiPoly.const(2)
    assert MultiPoly.const(2, True) == two and len({2, two}) == 1
    assert len({MultiPoly.const(2, True), two}) == 1
    assert MultiPoly.zero(True) == MultiPoly.zero()
    assert X.reduce_s() != X and S.reduce_s() != S
    with pytest.raises(UsageError):
        MultiPoly.const(2, True) + two
    with pytest.raises(UsageError):
        reduced.partial("x")
    with pytest.raises(UsageError):
        reduced.partial("s")
    # y stays differentiable in the reduced ring
    assert (Y * Y).reduce_s().partial("y") == (Y * 2).reduce_s()


def test_s_cofactor():
    assert (S * X).s_cofactor() == X
    assert (S * (X + Y * 3)).s_cofactor() == X + Y * 3
    with pytest.raises(UsageError):
        (S + X).s_cofactor()
    with pytest.raises(UsageError):
        (S * S * X).s_cofactor()


def test_partial():
    assert (X * X * Y).partial("x") == X * Y * 2
    assert (X * X * Y).partial("y") == X * X
    assert MultiPoly.const(5).partial("x") == 0
    with pytest.raises(UsageError):
        X.partial("t")


def test_substitute_and_eval():
    p = X * X + Y
    assert p.substitute("x", X + 1) == X * X + X * 2 + Y + 1
    assert p.eval({"x": Fraction(1, 2), "y": 2}) == Fraction(9, 4)
    with pytest.raises(UsageError):
        p.eval({"x": 1})  # y missing
    assert p.substitute("y", 0) == X * X


def test_eval_ignores_extra_assignments():
    assert X.eval({"x": 2, "y": 7}) == 2


def test_cpoly_ops():
    assert W * W_BAR == CPoly.real(X * X + Y * Y)
    assert W.conj() == W_BAR
    assert W * W == CPoly(X * X - Y * Y, X * Y * 2)
    assert CPoly.real(X) + Y * CPoly(MultiPoly.zero(), MultiPoly.const(1)) \
        == W
    assert W.substitute("y", 0) == CPoly.real(X)
    assert (W + W.conj()) == CPoly.real(X * 2)
    assert CPoly.real(X).is_real() and not W.is_real()


def test_json_round_trip():
    p = X * X - Y * Y + U[1] * 2
    data = p.to_json_dict()
    assert data["vars"] == ["x", "y", "u2"]
    assert MultiPoly.from_json_dict(data) == p
    reduced = (S * X).reduce_s()
    assert MultiPoly.from_json_dict(reduced.to_json_dict()) == reduced
    c = CPoly(X, Y * -1)
    assert CPoly.from_json_dict(c.to_json_dict()) == c


def test_binom_falling():
    assert [binom(4, k) for k in range(5)] == [1, 4, 6, 4, 1]
    assert binom(4, 5) == 0 and binom(4, -1) == 0
    assert falling(5, 2) == 20
    assert falling(2, 3) == 0
    assert falling(7, 0) == 1


# ----------------------------------------------------------------------
# properties

_coefs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_names = st.sampled_from(["x", "y", "s", "u1", "u2"])
_exps = st.dictionaries(_names, st.integers(min_value=0, max_value=3),
                        max_size=3)


@st.composite
def polys(draw):
    p = MultiPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        p = p + MultiPoly.monomial(draw(_exps), draw(_coefs))
    return p


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + MultiPoly.zero() == p
    assert p * MultiPoly.const(1) == p


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_reduction_is_ring_homomorphism(p, q):
    assert (p * q).reduce_s() == p.reduce_s() * q.reduce_s()
    assert (p + q).reduce_s() == p.reduce_s() + q.reduce_s()


@given(polys())
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(p):
    assert p.partial("x").partial("y") == p.partial("y").partial("x")


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_string_is_injective(p, q):
    if str(p) == str(q):
        assert p == q


@given(polys())
@settings(max_examples=60, deadline=None)
def test_json_round_trip_property(p):
    assert MultiPoly.from_json_dict(p.to_json_dict()) == p
    assert MultiPoly.from_json(p.to_json()) == p


_points = st.fixed_dictionaries({name: _coefs
                                 for name in ("x", "y", "s", "u1", "u2")})
_scalars = st.one_of(st.just(Fraction(0)), _coefs)


@given(polys(), _names, _scalars, _points, st.booleans())
@settings(max_examples=80, deadline=None)
def test_scalar_substitute_matches_eval(p, var, c, point, reduced):
    if reduced:
        p = p.reduce_s()
    got = p.substitute(var, c)
    assert got.reduced_s is reduced
    assert got == p.substitute(var, MultiPoly.const(c, reduced))
    assert got.eval(point) == p.eval({**point, var: c})


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_cpoly_times_real_poly(p, q, r):
    z = CPoly(p, q)
    assert z * r == z * CPoly.real(r)
    assert r * z == CPoly.real(r) * z


@given(polys(), st.one_of(st.just(Fraction(1)), _scalars), st.booleans())
@settings(max_examples=80, deadline=None)
def test_multiply_by_constant(p, c, reduced):
    # one returns the polynomial itself, and a constant polynomial on
    # either side scales like its value
    if reduced:
        p = p.reduce_s()
    assert p * 1 is p and 1 * p is p
    const, x = MultiPoly.const(c, reduced), MultiPoly.variable("x", reduced)
    product = p * c
    assert p * const == product == const * p
    assert product == p * (x + c) - p * x  # through the general product
    assert product.reduced_s is reduced
    with pytest.raises(UsageError):
        p * MultiPoly.const(c, not reduced)
    with pytest.raises(UsageError):
        MultiPoly.const(c, not reduced) * p


@given(polys(), polys(), _names, _scalars, st.booleans())
@settings(max_examples=60, deadline=None)
def test_no_zero_coefficient_stored(p, q, var, c, reduced):
    if reduced:
        p, q = p.reduce_s(), q.reduce_s()
    for result in (p + q, p - q, p + -p, p * q, p * (q - q),
                   p.substitute(var, c), p - p.substitute(var, 0)):
        coefs = [t["coef"] for t in result.to_json_dict()["terms"]]
        assert "0" not in coefs


@st.composite
def _two_forms(draw):
    """Two representations of one value: MultiPoly, CPoly.real, and for a
    constant also both s-reduction flags, its Fraction and, when
    integral, its int."""
    p = draw(st.one_of(polys(), _coefs.map(MultiPoly.const)))
    if draw(st.booleans()):
        p = p.reduce_s()
    forms = [p, CPoly.real(p)]
    c = p.const_value()
    if c is not None:
        flipped = MultiPoly.const(c, not p.reduced_s)
        forms += [c, flipped, CPoly.real(flipped)]
        if c.denominator == 1:
            forms.append(int(c))
    return [draw(st.sampled_from(forms)) for _ in range(2)]


@given(_two_forms(), _two_forms())
@settings(max_examples=80, deadline=None)
def test_equal_values_hash_equal(first, second):
    values = first + second
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert len({first[0], first[1]}) == 1


def test_cpoly_times_poly_checks_reduced_flag():
    reduced = CPoly(X, Y).reduce_s()
    for z, p in ((reduced, S), (W, (S * S).reduce_s())):
        with pytest.raises(UsageError):
            z * p
        with pytest.raises(UsageError):
            p * z
