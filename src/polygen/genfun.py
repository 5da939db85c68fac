"""Generating-function constructions for every supported family.

A family is one descriptor below plus one ``_family`` row in
:mod:`polygen.cli`.  A descriptor is a frozen dataclass: its fields
are the family's parameters in positional order and its CLI flags,
their defaults the flag defaults, and its ``_series(order)`` method
builds its series.  Classes that differ only in a cosine/sine side, a
kernel or a conjugate sign name it in a class attribute and share one
method.  :func:`build` turns a descriptor into a
:class:`~polygen.series.TruncSeries` whose coefficients are exact
polynomials.  Chebyshev and Dickson families are ordinary generating
functions; every other family is exponential.

The kernel factor f(t, a) shared by several families comes in two
built-in flavours,

* ``"bernoulli"``: f(t, a) = t / (a*e^t - 1),
* ``"euler"``:     f(t, a) = 2 / (a*e^t + 1).

The Bernoulli flavour at a = 1 is built through the removable
singularity by inverting (e^t - 1)/t; the Euler flavour at a = -1 is
a genuine pole and raises :class:`SingularityError`.

All builders are cached: descriptors are hashable, arithmetic is
exact, and series are immutable, so repeated builds across a
parameter sweep cost one construction each; builders reach nested
families through the module-level :func:`build` and its cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import series
from .errors import DomainError, RangeError, SingularityError, UsageError
from .exact import CPoly, MultiPoly, Rational, U, W, X, Y
from .series import TruncSeries

_KERNEL_NAMES = ("bernoulli", "euler")


# ----------------------------------------------------------------------
# family descriptors


@dataclass(frozen=True)
class ApostolBernoulli:
    """(t/(lam*e^t - 1))**k * e^(x*t); EGF."""
    k: int = 1
    lam: Rational = Fraction(1)
    kernel = "bernoulli"

    def _series(self, order: int) -> TruncSeries:
        kern = kernel_f(self.kernel, self.lam, order)
        return series.pow_int(kern, self.k) * _exp_xt(order)


@dataclass(frozen=True)
class ApostolEuler:
    """(2/(lam*e^t + 1))**k * e^(x*t); EGF."""
    k: int = 1
    lam: Rational = Fraction(1)
    kernel = "euler"
    _series = ApostolBernoulli._series


@dataclass(frozen=True)
class CosC:
    """e^(x*t) * cos(y*t); EGF."""
    side = 0

    def _series(self, order: int) -> TruncSeries:
        return _exp_xt(order) * _cos_sin_yt(order)[self.side]


@dataclass(frozen=True)
class SinS:
    """e^(x*t) * sin(y*t); EGF."""
    side = 1
    _series = CosC._series


@dataclass(frozen=True)
class ChebyshevT:
    """(1 - x*t) / (1 - 2*x*t + t^2); OGF."""

    def _series(self, order: int) -> TruncSeries:
        numer = series.from_t_poly({0: 1, 1: -X}, order, "ogf")
        denom = series.from_t_poly({0: 1, 1: X * -2, 2: 1}, order, "ogf")
        return numer * series.invert(denom)


@dataclass(frozen=True)
class ChebyshevU:
    """1 / (1 - 2*x*t + t^2); OGF."""

    def _series(self, order: int) -> TruncSeries:
        denom = series.from_t_poly({0: 1, 1: X * -2, 2: 1}, order, "ogf")
        return series.invert(denom)


@dataclass(frozen=True)
class DicksonD:
    """(2 - x*t) / (1 - x*t + alpha*t^2); OGF."""
    alpha: Rational = Fraction(1)

    def _series(self, order: int) -> TruncSeries:
        alpha = Fraction(self.alpha)
        numer = series.from_t_poly({0: 2, 1: -X}, order, "ogf")
        denom = series.from_t_poly({0: 1, 1: -X, 2: alpha}, order, "ogf")
        return numer * series.invert(denom)


@dataclass(frozen=True)
class DicksonE:
    """1 / (1 - x*t + alpha*t^2); OGF."""
    alpha: Rational = Fraction(1)

    def _series(self, order: int) -> TruncSeries:
        alpha = Fraction(self.alpha)
        denom = series.from_t_poly({0: 1, 1: -X, 2: alpha}, order, "ogf")
        return series.invert(denom)


@dataclass(frozen=True)
class GouldHopper:
    """e^(x*t + y*t^j) for j >= 2; EGF."""
    j: int = 2

    def _series(self, order: int) -> TruncSeries:
        if not isinstance(self.j, int) or self.j < 2:
            raise RangeError(f"Gould-Hopper exponent j must be an integer "
                             f">= 2, got {self.j!r}")
        arg = series.from_t_poly({1: X, self.j: Y}, order, "egf")
        return series.exp(arg)


@dataclass(frozen=True)
class HermiteGen:
    """e^(u1*t + u2*t^2 + ... + ur*t^r); EGF."""
    r: int = 2

    def _series(self, order: int) -> TruncSeries:
        return _exp_u(self.r, order)


@dataclass(frozen=True)
class GKernel:
    """e^(w*t + sum u_j t^j) with w = x + i*y; complex EGF."""
    r: int = 2

    def _series(self, order: int) -> TruncSeries:
        return _lift_complex(_exp_u(self.r, order, W))


@dataclass(frozen=True)
class K1Kernel:
    """e^((x+u1)*t + sum_{j>=2} u_j t^j) * cos(y*t); EGF."""
    r: int = 2
    side = 0

    def _series(self, order: int) -> TruncSeries:
        return _exp_u(self.r, order, X) * _cos_sin_yt(order)[self.side]


@dataclass(frozen=True)
class K2Kernel:
    """e^((x+u1)*t + sum_{j>=2} u_j t^j) * sin(y*t); EGF."""
    r: int = 2
    side = 1
    _series = K1Kernel._series


@dataclass(frozen=True)
class M1:
    """(b + f(t,a))**z * e^(w*t + sum u_j t^j); complex EGF."""
    z: int = 1
    fkind: str = "bernoulli"
    a: Rational = Fraction(1)
    b: Rational = Fraction(1)
    r: int = 2
    conj = 0  # 0, 1, -1: G(w), G(w) + G(conj w), G(w) - G(conj w)

    def _series(self, order: int) -> TruncSeries:
        g = build(GKernel(self.r), order)
        if self.conj:
            g = g + _conj_series(g) if self.conj > 0 else g - _conj_series(g)
        return build(R1(self.z, self.fkind, self.a, self.b), order) * g


@dataclass(frozen=True)
class M2:
    """(b + f(t,a))**z * (G(w) + G(conj w)) with G the complex kernel."""
    z: int = 1
    fkind: str = "bernoulli"
    a: Rational = Fraction(1)
    b: Rational = Fraction(1)
    r: int = 2
    conj = 1
    _series = M1._series


@dataclass(frozen=True)
class M3:
    """(b + f(t,a))**z * (G(w) - G(conj w)) with G the complex kernel."""
    z: int = 1
    fkind: str = "bernoulli"
    a: Rational = Fraction(1)
    b: Rational = Fraction(1)
    r: int = 2
    conj = -1
    _series = M1._series


@dataclass(frozen=True)
class M4:
    """e^(sum u_j t^j) * cos(y*t); EGF."""
    r: int = 2
    side = 0

    def _series(self, order: int) -> TruncSeries:
        return _exp_u(self.r, order) * _cos_sin_yt(order)[self.side]


@dataclass(frozen=True)
class M5:
    """e^(sum u_j t^j) * sin(y*t); EGF."""
    r: int = 2
    side = 1
    _series = M4._series


@dataclass(frozen=True)
class Bform:
    """2 * (b + f(t,a))**z * e^(x*t) * e^(sum u_j t^j) * cos(y*t); EGF."""
    z: int = 1
    fkind: str = "bernoulli"
    a: Rational = Fraction(1)
    b: Rational = Fraction(1)
    r: int = 2
    side = 0

    def _series(self, order: int) -> TruncSeries:
        factor = build(R1(self.z, self.fkind, self.a, self.b), order)
        kernel = (K1Kernel, K2Kernel)[self.side](self.r)
        return factor * build(kernel, order) * 2


@dataclass(frozen=True)
class B1form:
    """2 * (b + f(t,a))**z * e^(x*t) * e^(sum u_j t^j) * sin(y*t); EGF."""
    z: int = 1
    fkind: str = "bernoulli"
    a: Rational = Fraction(1)
    b: Rational = Fraction(1)
    r: int = 2
    side = 1
    _series = Bform._series


@dataclass(frozen=True)
class BC:
    """(t/(a*e^t - 1))**z * e^(x*t) * cos(y*t); EGF."""
    z: int = 1
    a: Rational = Fraction(1)
    kernel, side = "bernoulli", 0

    def _series(self, order: int) -> TruncSeries:
        kern = kernel_f(self.kernel, self.a, order)
        trig = (CosC, SinS)[self.side]()
        return series.pow_int(kern, self.z) * build(trig, order)


@dataclass(frozen=True)
class BS:
    """(t/(a*e^t - 1))**z * e^(x*t) * sin(y*t); EGF."""
    z: int = 1
    a: Rational = Fraction(1)
    kernel, side = "bernoulli", 1
    _series = BC._series


@dataclass(frozen=True)
class EC:
    """(2/(a*e^t + 1))**z * e^(x*t) * cos(y*t); EGF."""
    z: int = 1
    a: Rational = Fraction(1)
    kernel, side = "euler", 0
    _series = BC._series


@dataclass(frozen=True)
class ES:
    """(2/(a*e^t + 1))**z * e^(x*t) * sin(y*t); EGF."""
    z: int = 1
    a: Rational = Fraction(1)
    kernel, side = "euler", 1
    _series = BC._series


@dataclass(frozen=True)
class Nw:
    """e^(w*t) with w = x + i*y; complex EGF."""

    def _series(self, order: int) -> TruncSeries:
        return _lift_complex(
            series.exp(series.from_t_poly({1: W}, order, "egf")))


@dataclass(frozen=True)
class R1:
    """(b + f(t,a))**z, a scalar-coefficient EGF."""
    z: int = 1
    fkind: str = "bernoulli"
    a: Rational = Fraction(1)
    b: Rational = Fraction(1)

    def _series(self, order: int) -> TruncSeries:
        kern = kernel_f(self.fkind, self.a, order)
        base = series.constant(Fraction(self.b), order, "egf") + kern
        return series.pow_int(base, self.z)


# ----------------------------------------------------------------------
# kernels


def kernel_f(kind: str, a: Rational, order: int) -> TruncSeries:
    """The ``"bernoulli"`` or ``"euler"`` kernel series f(t, a) at the
    requested truncation order."""
    if kind == "bernoulli":
        return _bernoulli_kernel(Fraction(a), order)
    if kind == "euler":
        return _euler_kernel(Fraction(a), order)
    raise UsageError(
        f"unknown kernel kind {kind!r}; expected one of {_KERNEL_NAMES}")


@lru_cache(maxsize=None)
def _bernoulli_kernel(a: Fraction, order: int) -> TruncSeries:
    """t / (a*e^t - 1), via the removable singularity when a == 1."""
    if a == 1:
        # (e^t - 1)/t has coefficients 1/(n+1)! and unit constant term.
        body = TruncSeries(
            [Fraction(1, math.factorial(n + 1)) for n in range(order + 1)],
            order, "egf")
        return series.invert(body)
    denom = TruncSeries(
        [a - 1] + [a * Fraction(1, math.factorial(n))
                   for n in range(1, order + 1)],
        order, "egf")
    return series.from_t_poly({1: 1}, order, "egf") * series.invert(denom)


@lru_cache(maxsize=None)
def _euler_kernel(a: Fraction, order: int) -> TruncSeries:
    """2 / (a*e^t + 1); a = -1 kills the constant term, a true pole."""
    if a == -1:
        raise SingularityError("kernel 2/(a*e^t + 1) is singular at a = -1")
    denom = TruncSeries(
        [a + 1] + [a * Fraction(1, math.factorial(n))
                   for n in range(1, order + 1)],
        order, "egf")
    return series.invert(denom) * 2


# ----------------------------------------------------------------------
# shared cached atoms


@lru_cache(maxsize=None)
def _exp_xt(order: int) -> TruncSeries:
    return series.exp(series.from_t_poly({1: X}, order, "egf"))


@lru_cache(maxsize=None)
def _cos_sin_yt(order: int) -> tuple[TruncSeries, TruncSeries]:
    return series.cos_sin(series.from_t_poly({1: Y}, order, "egf"))


def _check_r(r: int) -> None:
    if not isinstance(r, int) or not 1 <= r <= 8:
        raise RangeError(f"order parameter r must lie in 1..8, got {r!r}")


@lru_cache(maxsize=None)
def _exp_u(r: int, order: int, shift: object = 0) -> TruncSeries:
    """e^((shift+u1)*t + u2*t^2 + ... + ur*t^r)."""
    _check_r(r)
    powers = {j: U[j - 1] for j in range(1, r + 1)}
    powers[1] = shift + U[0]
    return series.exp(series.from_t_poly(powers, order, "egf"))


def _conj_series(f: TruncSeries) -> TruncSeries:
    return f.map_coeffs(lambda c: c.conj() if isinstance(c, CPoly) else c)


def _lift_complex(f: TruncSeries) -> TruncSeries:
    """Force every coefficient to CPoly.

    exp seeds its recurrence with a rational 1, so coefficients that
    happen to stay real (the constant term, at least) would otherwise
    come out as plain polynomials and surprise attribute access.
    """
    def lift(c: object) -> CPoly:
        if isinstance(c, CPoly):
            return c
        if isinstance(c, MultiPoly):
            return CPoly.real(c)
        return CPoly.real(MultiPoly.const(c))
    return f.map_coeffs(lift)


# ----------------------------------------------------------------------
# the dispatcher


@lru_cache(maxsize=None)
def build(family: object, order: int) -> TruncSeries:
    """The truncated generating series of ``family`` up to t**order."""
    if not isinstance(order, int) or order < 0:
        raise UsageError(f"truncation order must be a non-negative integer, "
                         f"got {order!r}")
    builder = getattr(type(family), "_series", None)
    if builder is None:
        raise UsageError(f"unknown family descriptor {family!r}")
    return builder(family, order)


# ----------------------------------------------------------------------
# generalized hypergeometric series


def pfq(uppers: tuple, lowers: tuple, arg_scale: object, arg_power: int,
        order: int) -> TruncSeries:
    """The truncated series pFq(uppers; lowers; arg_scale * t**arg_power).

    Reported with the ogf convention: raw t-coefficients, no factorial
    scaling.  Requires p <= q + 1 and no lower parameter at a
    non-positive integer (where the Pochhammer factor would vanish in
    a denominator).
    """
    ups = tuple(Fraction(u) for u in uppers)
    lows = tuple(Fraction(v) for v in lowers)
    if len(ups) > len(lows) + 1:
        raise UsageError(
            f"pFq needs p <= q + 1, got p = {len(ups)}, q = {len(lows)}")
    for v in lows:
        if v.denominator == 1 and v <= 0:
            raise DomainError(
                f"lower parameter {v} is a non-positive integer")
    if not isinstance(arg_power, int) or arg_power < 1:
        raise UsageError("argument power must be a positive integer")
    if order < 0:
        raise UsageError("truncation order must be non-negative")

    if isinstance(arg_scale, (int, Fraction)):
        scale: object = MultiPoly.const(arg_scale)
    elif isinstance(arg_scale, (MultiPoly, CPoly)):
        scale = arg_scale
    else:
        raise UsageError("argument scale must be an exact polynomial or "
                         "rational")

    zero = MultiPoly.zero()
    coeffs: list[object] = [zero] * (order + 1)
    term: object = MultiPoly.const(1)
    coeffs[0] = term
    m = 0
    while (m + 1) * arg_power <= order:
        ratio = Fraction(1)
        for u in ups:
            ratio *= (u + m)
        for v in lows:
            ratio /= (v + m)
        ratio /= (m + 1)
        term = term * scale * ratio
        m += 1
        coeffs[m * arg_power] = term
    return TruncSeries(coeffs, order, "ogf")
