"""MultiPoly and two closed-form families against SymPy, an independent
implementation of exact polynomial arithmetic over QQ.

SymPy is only a test oracle: the module is skipped where it is not
installed, and polygen does not import it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygen import closedform
from polygen.exact import VARS, CPoly, MultiPoly, _unpack

sympy = pytest.importorskip("sympy")
QQ = sympy.QQ

GENS = tuple(sympy.Symbol(name) for name in VARS)
X = GENS[0]


def to_sympy(p: MultiPoly):
    """The same polynomial as a sympy Poly over QQ in every variable."""
    terms = {_unpack(key): QQ(c.numerator, c.denominator)
             for key, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *GENS, domain=QQ)


def as_poly(expr):
    return sympy.Poly(expr, *GENS, domain=QQ)


_coefs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
_names = st.sampled_from(["x", "y", "s", "u1"])


@st.composite
def polys(draw):
    p = MultiPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        exps = draw(st.dictionaries(_names, st.integers(0, 3), max_size=3))
        p = p + MultiPoly.monomial(exps, draw(_coefs))
    return p


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_add_and_mul_match_sympy(p, q):
    assert to_sympy(p + q) == to_sympy(p) + to_sympy(q)
    assert to_sympy(p - q) == to_sympy(p) - to_sympy(q)
    assert to_sympy(p * q) == to_sympy(p) * to_sympy(q)


def complex_expr(z):
    """re + I*im of a CPoly, or the expression of a MultiPoly; a CPoly
    is a MultiPoly, so it is tested first."""
    if isinstance(z, CPoly):
        return complex_expr(z.re) + sympy.I * complex_expr(z.im)
    return to_sympy(z).as_expr()


@given(polys(), polys(), polys(), polys())
@settings(max_examples=40, deadline=None)
def test_complex_products_match_sympy(p, q, r, s):
    # SymPy applies I**2 = -1 itself; polygen only in exact._normal
    z, w = CPoly(p, q), CPoly(r, s)
    for got, left, right in ((z * w, z, w), (r * z, r, z), (z * r, z, r)):
        assert isinstance(got, CPoly)
        assert sympy.expand(complex_expr(got)
                            - complex_expr(left) * complex_expr(right)) == 0


@given(polys(), polys(), _names, _coefs)
@settings(max_examples=40, deadline=None)
def test_substitute_matches_sympy(p, q, var, c):
    gen = GENS[VARS.index(var)]
    expr = to_sympy(p).as_expr()
    assert to_sympy(p.substitute(var, q)) == as_poly(
        expr.subs(gen, to_sympy(q).as_expr()))
    assert to_sympy(p.substitute(var, c)) == as_poly(
        expr.subs(gen, sympy.Rational(c.numerator, c.denominator)))


@pytest.mark.parametrize("n", range(0, 25))
def test_chebyshev_matches_sympy(n):
    # polygen's second kind is shifted by one: chebyshev("U", n) = U_{n-1}
    assert to_sympy(closedform.chebyshev("T", n)) == as_poly(
        sympy.chebyshevt_poly(n, X))
    if n >= 1:
        assert to_sympy(closedform.chebyshev("U", n)) == as_poly(
            sympy.chebyshevu_poly(n - 1, X))


@pytest.mark.parametrize("n", range(0, 21))
def test_bernoulli_and_euler_polynomials_match_sympy(n):
    # polynomials, not numbers: sympy.bernoulli(1) is +1/2, while the
    # polynomial B_1(x) = x - 1/2 agrees on both sides
    assert to_sympy(closedform.apostol("B", n, 1, Fraction(1))) == as_poly(
        sympy.bernoulli(n, X))
    assert to_sympy(closedform.apostol("E", n, 1, Fraction(1))) == as_poly(
        sympy.euler(n, X))
