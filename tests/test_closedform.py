"""Closed-form constructors against frozen values and the series
oracle."""

from fractions import Fraction

import pytest

from polygen import closedform as cf
from polygen import genfun as gf
from polygen.errors import RangeError, SingularityError, UsageError
from polygen.exact import CPoly, MultiPoly, U, X, Y, binom

HALF = Fraction(1, 2)


def test_cs_poly_values():
    assert cf.cs_poly("C", 0) == 1
    assert cf.cs_poly("S", 0) == 0
    assert cf.cs_poly("C", 1) == X
    assert cf.cs_poly("S", 1) == Y
    assert cf.cs_poly("C", 2) == X * X - Y * Y
    assert cf.cs_poly("S", 3) == X * X * Y * 3 - Y ** 3
    with pytest.raises(UsageError):
        cf.cs_poly("T", 1)
    with pytest.raises(RangeError):
        cf.cs_poly("C", -1)


def test_chebyshev_values():
    assert [str(cf.chebyshev("T", n)) for n in range(5)] == \
        ["1", "x", "2*x^2 - 1", "4*x^3 - 3*x", "8*x^4 - 8*x^2 + 1"]
    # index shift: chebyshev("U", n) is the degree-(n-1) value
    assert [str(cf.chebyshev("U", n)) for n in range(1, 5)] == \
        ["1", "2*x", "4*x^2 - 1", "8*x^3 - 4*x"]
    with pytest.raises(RangeError):
        cf.chebyshev("U", 0)


def test_dickson_values():
    alpha = Fraction(3)
    assert cf.dickson("D", 0, alpha) == 2
    assert cf.dickson("D", 1, alpha) == X
    assert cf.dickson("D", 2, alpha) == X * X - 6
    assert cf.dickson("E", 0, alpha) == 1
    assert cf.dickson("E", 2, alpha) == X * X - 3
    # at alpha = 1 the first kind is the doubled-argument first-kind
    # Chebyshev value: D_n(2x, 1) = 2 T_n(x)
    for n in range(8):
        assert cf.dickson("D", n, 1).substitute("x", X * 2) == \
            cf.chebyshev("T", n) * 2


def test_gould_hopper_values():
    assert cf.gould_hopper(2, 2) == X * X + Y * 2
    assert cf.gould_hopper(3, 3) == X ** 3 + Y * 6
    assert cf.gould_hopper(0, 5) == 1
    with pytest.raises(RangeError):
        cf.gould_hopper(2, 1)


def test_hermite_gen_values():
    assert cf.hermite_gen(5, 1) == U[0] ** 5
    assert cf.hermite_gen(2, 2) == U[0] ** 2 + U[1] * 2
    assert cf.hermite_gen(3, 3) == U[0] ** 3 + U[0] * U[1] * 6 + U[2] * 6
    with pytest.raises(RangeError):
        cf.hermite_gen(2, 0)
    with pytest.raises(RangeError):
        cf.hermite_gen(2, 9)


def test_kpoly_values():
    xp = X + U[0]
    assert cf.kpoly("k1", 2, 2) == xp * xp + U[1] * 2 - Y * Y
    assert cf.kpoly("k2", 2, 2) == Y * xp * 2
    assert cf.kpoly("K", 1, 3) == CPoly(xp, Y)
    with pytest.raises(UsageError):
        cf.kpoly("k3", 1, 2)


def test_npoly():
    assert cf.npoly(0) == CPoly.real(MultiPoly.const(1))
    assert cf.npoly(2) == CPoly(X * X - Y * Y, X * Y * 2)
    assert cf.npoly(2, True) == CPoly(X * X - Y * Y, X * Y * -2)
    # conjugate route vs direct conjugation
    for n in range(7):
        assert cf.npoly(n, True) == cf.npoly(n).conj()


def test_cs_r():
    # r = 1 plays the x role with u1
    for n in range(6):
        assert cf.cs_r("C", n, 1) == cf.cs_poly("C", n).substitute("x", U[0])
        assert cf.cs_r("S", n, 1) == cf.cs_poly("S", n).substitute("x", U[0])


def test_apostol_polynomials():
    assert cf.apostol("B", 0, 1, 1) == 1
    assert cf.apostol("B", 1, 1, 1) == X - HALF
    assert cf.apostol("B", 2, 1, 1) == X * X - X + Fraction(1, 6)
    assert cf.apostol("E", 1, 1, 1) == X - HALF
    # lam = 2, k = 1 at x = 0: 0, 1, -4
    assert cf.apostol("B", 0, 1, 2).eval({"x": 0}) == 0
    assert cf.apostol("B", 1, 1, 2).eval({"x": 0}) == 1
    assert cf.apostol("B", 2, 1, 2).eval({"x": 0}) == -4
    # inverse order at lam = 1: B_n^(-1)(0) = 1/(n+1)
    for n in range(8):
        assert cf.apostol("B", n, -1, 1).eval({"x": 0}) == Fraction(1, n + 1)


def test_apostol_singularities():
    with pytest.raises(SingularityError):
        cf.apostol("E", 2, 1, -1)
    with pytest.raises(SingularityError):
        cf.apostol("B", 2, -1, 2)
    with pytest.raises(UsageError):
        cf.apostol("Q", 2, 1, 1)


def test_number_sequences():
    assert [cf.bernoulli_number(n) for n in range(5)] == \
        [1, -HALF, Fraction(1, 6), 0, Fraction(-1, 30)]
    # coefficients of 2/(e^t + 1), not the integer secant numbers
    assert [cf.euler_number(n) for n in range(6)] == \
        [1, -HALF, 0, Fraction(1, 4), 0, -HALF]
    assert cf.stirling2(3, 2) == 3
    assert cf.stirling2(4, 2) == 7
    assert cf.stirling2(0, 0) == 1
    with pytest.raises(RangeError):
        cf.stirling2(2, 3)


def test_parametric_apostol():
    assert cf.parametric_apostol("EC", 1, 1, 1) == X - HALF
    assert cf.parametric_apostol("BC", 0, 1, 1) == 1
    # even/odd y-parity split
    for n in range(6):
        c = cf.parametric_apostol("BC", n, 2, HALF)
        s = cf.parametric_apostol("BS", n, 2, HALF)
        assert c.substitute("y", Y * -1) == c
        assert s.substitute("y", Y * -1) == s * -1
    with pytest.raises(UsageError):
        cf.parametric_apostol("XC", 1, 1, 1)


def test_hpoly_frak_h_spot_values():
    # n = 0 collapses to the kernel constant
    assert cf.frak_h(1, 0, 1, 2, "bernoulli", 1, 0) == 2
    assert cf.hpoly("h", 0, 1, 2, "bernoulli", 1, 0) == \
        CPoly.real(MultiPoly.const(1))
    with pytest.raises(UsageError):
        cf.hpoly("hx", 0, 1, 2, "bernoulli", 1, 0)
    with pytest.raises(UsageError):
        cf.frak_h(3, 0, 1, 2, "bernoulli", 1, 0)


@pytest.mark.parametrize("fkind", ["bernoulli", "euler"])
def test_kernel_power_numbers_match_series(fkind):
    # closed numbers of (b + f(t,a))^z against the R1 series, and the
    # same singular cases on both routes; |z| reaches the cap, a = 0
    # gives the kernels -t and 2, so b = 0 and b = -2 leave no constant
    for z in (*range(-3, 4), -100, -7, 7, 100):
        for a in (1, 2, -HALF, -1, 0):
            for b in (0, 1, HALF, 2, -1, -2):
                try:
                    ser = gf.build(gf.R1(z, fkind, Fraction(a), Fraction(b)),
                                   10)
                except SingularityError:
                    with pytest.raises(SingularityError):
                        cf.kernel_power_numbers(z, fkind, a, b, 10)
                    continue
                nums = cf.kernel_power_numbers(z, fkind, a, b, 10)
                assert list(nums) == [ser.coefficient(m) for m in range(11)], \
                    (z, a, b)
    with pytest.raises(UsageError):
        cf.kernel_power_numbers(1, "cauchy", 1, 1, 3)
    with pytest.raises(RangeError):
        cf.kernel_power_numbers(1, fkind, 1, 1, -1)


def test_kernel_families_do_not_read_the_series(monkeypatch, capsys):
    from polygen import cli

    def clear_caches():
        for fn in vars(cf).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()

    def table():
        assert cli.main(["table", "--family", "r1", "--z", "-2", "--fkind",
                         "euler", "--a", "2", "--b", "1/2",
                         "--n", "0..5"]) == 0
        return capsys.readouterr().out

    args = (4, -2, 2, "euler", 2, HALF)
    expected = (cf.hpoly("h1", *args), cf.frak_h(2, *args), table())

    def no_series(*_):
        raise AssertionError("a closed form read a generating series")

    clear_caches()
    monkeypatch.setattr(gf, "build", no_series)
    assert (cf.hpoly("h1", *args), cf.frak_h(2, *args), table()) == expected


def test_ppoly():
    assert cf.ppoly("P1", 1, 1) == X + U[0]
    assert cf.ppoly("P2", 1, 1) == Y
    assert cf.ppoly("P3", 1, 1) == (X + U[0]).reduce_s()
    assert cf.ppoly("P4", 1, 1) == MultiPoly.const(1, True)
    assert cf.ppoly("P3", 0, 2) == MultiPoly.const(1, True)
    with pytest.raises(RangeError):
        cf.ppoly("P4", 0, 1)
    with pytest.raises(UsageError):
        cf.ppoly("P5", 1, 1)


def test_ppoly_vs_binomial_convolution():
    # P1/P2 are the real and imaginary parts of a binomial convolution
    # of w-powers against Hermite values; check against that sum.
    for r in (1, 2):
        for n in range(6):
            total = CPoly.zero()
            for j in range(n + 1):
                total = total + cf.npoly(n - j) * (
                    cf.hermite_gen(j, r) * binom(n, j))
            assert cf.ppoly("P1", n, r) == total.re
            assert cf.ppoly("P2", n, r) == total.im


def test_negative_n():
    for fn in (lambda: cf.cs_poly("C", -1),
               lambda: cf.chebyshev("T", -2),
               lambda: cf.dickson("D", -1, 1),
               lambda: cf.hermite_gen(-1, 2),
               lambda: cf.npoly(-1),
               lambda: cf.apostol("B", -1, 1, 1)):
        with pytest.raises(RangeError):
            fn()


def test_closed_forms_cache():
    assert cf.cs_poly("C", 5) is cf.cs_poly("C", 5)
    assert cf.kpoly("K", 4, 2) is cf.kpoly("K", 4, 2)
    # hpoly keeps no cache: within one check no value of it is read twice
    assert not hasattr(cf.hpoly, "cache_info")
    # nor _p12: a table request never reads one of its values again
    assert not hasattr(cf._p12, "cache_info")


# every Rational parameter of the public closed forms, as a call of it
_RATIONAL_PARAMS = {
    "dickson alpha": lambda v: cf.dickson("D", 2, v),
    "apostol lam": lambda v: cf.apostol("B", 2, 1, v),
    "parametric_apostol a": lambda v: cf.parametric_apostol("BC", 2, 1, v),
    "kernel_power_numbers a":
        lambda v: cf.kernel_power_numbers(1, "bernoulli", v, 1, 3),
    "kernel_power_numbers b":
        lambda v: cf.kernel_power_numbers(1, "bernoulli", 1, v, 3),
    "hpoly a": lambda v: cf.hpoly("h", 2, 1, 1, "bernoulli", v, 1),
    "hpoly b": lambda v: cf.hpoly("h", 2, 1, 1, "bernoulli", 1, v),
    "frak_h a": lambda v: cf.frak_h(1, 2, 1, 1, "bernoulli", v, 1),
    "frak_h b": lambda v: cf.frak_h(1, 2, 1, 1, "bernoulli", 1, v),
}


@pytest.mark.parametrize("param", sorted(_RATIONAL_PARAMS))
@pytest.mark.parametrize("value", [0.5, True, 0.5j, "1/2"],
                         ids=["float", "bool", "complex", "str"])
def test_closed_forms_refuse_inexact_rationals(param, value):
    call = _RATIONAL_PARAMS[param]
    # the exact value first, so that a cache keyed on 0.5 == 1/2 would hit
    call(HALF)
    with pytest.raises(UsageError) as raised:
        call(value)
    assert str(raised.value) == \
        f"expected an exact rational, got {type(value).__name__}"
    call(HALF)


_KIND = "unknown kind {!r}; expected "


@pytest.mark.parametrize("call, error, message", [
    (lambda: cf.cs_poly("T", 1), UsageError, _KIND.format("T") + "'C' or 'S'"),
    (lambda: cf.cs_r("c", 1, 1), UsageError, _KIND.format("c") + "'C' or 'S'"),
    (lambda: cf.chebyshev("C", 2), UsageError,
     _KIND.format("C") + "'T' or 'U'"),
    (lambda: cf.dickson("T", 2, 1), UsageError,
     _KIND.format("T") + "'D' or 'E'"),
    (lambda: cf.kpoly("k3", 2, 1), UsageError,
     "unknown part 'k3'; expected 'k1', 'k2' or 'K'"),
    (lambda: cf.apostol("C", 2, 1, 1), UsageError,
     _KIND.format("C") + "'B' or 'E'"),
    (lambda: cf.kernel_power_numbers(1, "Bernoulli", 1, 0, 2), UsageError,
     "unknown kernel kind 'Bernoulli'; expected 'bernoulli' or 'euler'"),
    (lambda: cf.parametric_apostol("BT", 2, 1, 1), UsageError,
     _KIND.format("BT") + "'BC', 'BS', 'EC' or 'ES'"),
    (lambda: cf.hpoly("h3", 2, 1, 1, "bernoulli", 1, 0), UsageError,
     _KIND.format("h3") + "'h', 'h1' or 'h2'"),
    (lambda: cf.hpoly("h", 2, 1, 1, "gauss", 1, 0), UsageError,
     "unknown kernel kind 'gauss'; expected 'bernoulli' or 'euler'"),
    (lambda: cf.frak_h(3, 2, 1, 1, "bernoulli", 1, 0), UsageError,
     "unknown kind 3; expected 1 or 2"),
    (lambda: cf.frak_h("1", 2, 1, 1, "bernoulli", 1, 0), UsageError,
     "unknown kind '1'; expected 1 or 2"),
    (lambda: cf.frak_h(1, 2, 1, 1, "gauss", 1, 0), UsageError,
     "unknown kernel kind 'gauss'; expected 'bernoulli' or 'euler'"),
    (lambda: cf.ppoly("P5", 2, 1), UsageError,
     _KIND.format("P5") + "'P1', 'P2', 'P3' or 'P4'"),
    # the index and order arguments are checked before the kind
    (lambda: cf.cs_poly("T", -1), RangeError,
     "degree index must be a non-negative integer, got -1"),
    (lambda: cf.chebyshev("C", -1), RangeError,
     "degree index must be a non-negative integer, got -1"),
    (lambda: cf.kpoly("k3", 2, 0), RangeError,
     "order parameter r must lie in 1..8, got 0"),
    (lambda: cf.cs_r("c", 1, 9), RangeError,
     "order parameter r must lie in 1..8, got 9"),
    (lambda: cf.hpoly("h3", -1, 1, 1, "gauss", 1, 0), RangeError,
     "degree index must be a non-negative integer, got -1"),
    (lambda: cf.frak_h(3, 2, 1, 0, "gauss", 1, 0), RangeError,
     "order parameter r must lie in 1..8, got 0"),
    (lambda: cf.kernel_power_numbers(1, "gauss", 1, 0, -1), RangeError,
     "degree index must be a non-negative integer, got -1"),
    (lambda: cf.apostol("C", 2, "1", 1), UsageError,
     "order k must be an integer, got '1'"),
    # ... and the kind before the kernel kind
    (lambda: cf.hpoly("h3", 2, 1, 1, "gauss", 1, 0), UsageError,
     _KIND.format("h3") + "'h', 'h1' or 'h2'"),
    (lambda: cf.frak_h(3, 2, 1, 1, "gauss", 1, 0), UsageError,
     "unknown kind 3; expected 1 or 2"),
    # the Dickson parameter and the Apostol kernel parameter are read
    # before the kind
    (lambda: cf.dickson("T", 2, "x"), UsageError,
     "expected an exact rational, got str"),
    (lambda: cf.parametric_apostol("BT", 2, 1, "x"), UsageError,
     "expected an exact rational, got str"),
])
def test_bad_kind_messages(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
