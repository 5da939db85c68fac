"""Series construction for every family, against frozen values and
cross-family invariants."""

import math
from fractions import Fraction

import pytest

from polygen import genfun as gf
from polygen import series
from polygen.errors import (DomainError, RangeError, SingularityError,
                            UsageError)
from polygen.exact import CPoly, MultiPoly, U, W, X, Y

HALF = Fraction(1, 2)


def test_bernoulli_kernel_numbers():
    # the classical sequence 1, -1/2, 1/6, 0, -1/30
    f = gf.kernel_f("bernoulli", Fraction(1), 6)
    expected = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
                Fraction(-1, 30)]
    assert [f.coefficient(n) for n in range(5)] == expected


def test_scaled_bernoulli_kernel():
    # a = 2: t/(2e^t - 1) starts 0, 1, -4, ... in egf coefficients
    f = gf.kernel_f("bernoulli", Fraction(2), 5)
    assert f.coefficient(0) == 0
    assert f.coefficient(1) == 1
    assert f.coefficient(2) == -4


def test_euler_kernel_numbers():
    f = gf.kernel_f("euler", Fraction(2), 4)
    assert f.coefficient(0) == Fraction(2, 3)
    assert f.coefficient(1) == Fraction(-4, 9)
    with pytest.raises(SingularityError):
        gf.kernel_f("euler", Fraction(-1), 4)


def test_build_cos_sin():
    c = gf.build(gf.CosC(), 4)
    assert c.coefficient(0) == 1
    assert c.coefficient(2) == X * X - Y * Y
    s = gf.build(gf.SinS(), 4)
    assert s.coefficient(3) == X * X * Y * 3 - Y ** 3


def test_build_chebyshev_and_dickson():
    t = gf.build(gf.ChebyshevT(), 4)
    assert [t.coefficient(n) for n in range(3)] == \
        [MultiPoly.const(1), X, X * X * 2 - 1]
    u = gf.build(gf.ChebyshevU(), 4)
    assert u.coefficient(2) == X * X * 4 - 1
    d = gf.build(gf.DicksonD(Fraction(1)), 4)
    assert [d.coefficient(n) for n in range(3)] == \
        [MultiPoly.const(2), X, X * X - 2]
    e = gf.build(gf.DicksonE(Fraction(2)), 4)
    assert e.coefficient(2) == X * X - 2


def test_build_hermite_and_gould_hopper():
    h = gf.build(gf.HermiteGen(3), 4)
    assert h.coefficient(3) == U[0] ** 3 + U[0] * U[1] * 6 + U[2] * 6
    g = gf.build(gf.GouldHopper(2), 4)
    assert g.coefficient(2) == X * X + Y * 2
    assert g.coefficient(3) == X ** 3 + X * Y * 6


def test_build_nw():
    n = gf.build(gf.Nw(), 4)
    assert n.coefficient(2) == CPoly(X * X - Y * Y, X * Y * 2)
    assert n.coefficient(0) == CPoly.real(MultiPoly.const(1))


def test_kernel_split_is_complex_decomposition():
    for r in (1, 2, 3):
        big = gf.build(gf.GKernel(r), 6)
        c1 = gf.build(gf.K1Kernel(r), 6)
        c2 = gf.build(gf.K2Kernel(r), 6)
        for n in range(7):
            val = big.coefficient(n)
            assert val.re == c1.coefficient(n)
            assert val.im == c2.coefficient(n)


def test_conjugation_symmetry():
    ser = gf.build(gf.GKernel(2), 6)
    for n in range(7):
        val = ser.coefficient(n)
        assert val.substitute("y", Y * -1) == val.conj()


def test_m_families_average():
    m1 = gf.build(gf.M1(2, "bernoulli", Fraction(1), HALF, 2), 5)
    m2 = gf.build(gf.M2(2, "bernoulli", Fraction(1), HALF, 2), 5)
    m3 = gf.build(gf.M3(2, "bernoulli", Fraction(1), HALF, 2), 5)
    for n in range(6):
        avg = (m2.coefficient(n) + m3.coefficient(n)) * HALF
        assert m1.coefficient(n) == avg


def test_m4_m5_degenerate_to_plain_trig():
    # with the x-role played by u1
    m4 = gf.build(gf.M4(1), 5)
    m5 = gf.build(gf.M5(1), 5)
    c = gf.build(gf.CosC(), 5)
    s = gf.build(gf.SinS(), 5)
    for n in range(6):
        assert m4.coefficient(n) == c.coefficient(n).substitute("x", U[0])
        assert m5.coefficient(n) == s.coefficient(n).substitute("x", U[0])


def test_apostol_singularities():
    with pytest.raises(SingularityError):
        gf.build(gf.ApostolEuler(1, Fraction(-1)), 4)
    # non-unit kernel cannot be inverted: k = -1 with lam != 1
    with pytest.raises(SingularityError):
        gf.build(gf.ApostolBernoulli(-1, Fraction(2)), 4)
    # but k = -1 at lam = 1 is fine
    ser = gf.build(gf.ApostolBernoulli(-1, Fraction(1)), 4)
    assert ser.coefficient(1) == X + HALF


def test_r1_scalar_series():
    ser = gf.build(gf.R1(1, "bernoulli", Fraction(1), Fraction(0)), 4)
    assert ser.coefficient(0) == 1
    assert ser.coefficient(1) == Fraction(-1, 2)
    assert ser.coefficient(2) == Fraction(1, 6)


def test_bform_doubling():
    bf = gf.build(gf.Bform(1, "bernoulli", Fraction(1), Fraction(0), 1), 4)
    bc = gf.build(gf.BC(1, Fraction(1)), 4)
    for n in range(5):
        assert bf.coefficient(n) == \
            bc.coefficient(n).substitute("x", X + U[0]) * 2


def test_build_r_range():
    with pytest.raises(RangeError):
        gf.build(gf.HermiteGen(0), 4)
    with pytest.raises(RangeError):
        gf.build(gf.GKernel(9), 4)
    with pytest.raises(UsageError):
        gf.build(gf.CosC(), -1)
    for not_a_descriptor in (gf.CosC, "cos-c", 3):
        with pytest.raises(UsageError):
            gf.build(not_a_descriptor, 4)


def test_build_caching_returns_identical_objects():
    assert gf.build(gf.CosC(), 8) is gf.build(gf.CosC(), 8)


def test_order_zero():
    assert gf.build(gf.CosC(), 0).coefficient(0) == 1
    assert gf.build(gf.Nw(), 0).coefficient(0) == CPoly.real(
        MultiPoly.const(1))


def test_pfq_exponential():
    e = gf.pfq((), (), 1, 1, 6)
    for n in range(7):
        assert e.coefficient(n) == Fraction(1, math.factorial(n))
    assert e.convention == "ogf"


def test_pfq_geometric():
    geo = gf.pfq((Fraction(1),), (), 1, 1, 6)
    for n in range(7):
        assert geo.coefficient(n) == 1


def test_pfq_cosine_bridge():
    # 0F1(; 1/2; -(yt)^2/4) is cos(yt) term by term
    hyp = gf.pfq((), (HALF,), Y * Y * Fraction(-1, 4), 2, 8)
    c, _ = series.cos_sin(series.from_t_poly({1: Y}, 8, "egf"))
    assert hyp == c.with_convention("ogf")


def test_pfq_errors():
    with pytest.raises(DomainError):
        gf.pfq((), (Fraction(0),), X, 1, 4)
    with pytest.raises(DomainError):
        gf.pfq((), (Fraction(-3),), X, 1, 4)
    with pytest.raises(UsageError):
        gf.pfq((Fraction(1), Fraction(1), Fraction(1)), (Fraction(1),),
               X, 1, 4)
    # half-integer lower parameters are allowed
    gf.pfq((), (Fraction(-1, 2),), X, 1, 4)
