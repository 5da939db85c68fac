"""Generating-function constructions for every supported family.

A family is one descriptor below plus one ``_family`` row in
:mod:`polygen.cli`.  A descriptor is a :class:`Record`, a small frozen
value class: its annotated fields are the family's parameters in
positional order and its CLI flags, their defaults the flag defaults,
and its ``_series(order)`` method builds its series.  A class names
its cosine/sine side, kernel or conjugate sign in a class attribute; a
family that differs only there subclasses it, keeping its fields and
method, and overrides that.  :func:`generate` turns a descriptor into
a :class:`~polygen.series.TruncSeries` whose coefficients are exact
polynomials.  Chebyshev and Dickson families are ordinary generating
functions; every other family is exponential.

The kernel factor f(t, a) shared by several families comes in two
built-in flavours,

* ``"bernoulli"``: f(t, a) = t / (a*e^t - 1),
* ``"euler"``:     f(t, a) = 2 / (a*e^t + 1).

The Bernoulli flavour at a = 1 is built through the removable
singularity by inverting (e^t - 1)/t; the Euler flavour at a = -1 is
a genuine pole and raises :class:`SingularityError`.

:func:`generate` keeps nothing it builds.  :func:`build` is the one
cache, over the parts a descriptor composes: descriptors are
hashable, arithmetic is exact, and series are immutable, so a part
that a parameter sweep reads at every grid point costs one
construction; builders reach their parts through the module-level
:func:`build` and its cache.  The catalog empties it after every
check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import series
from .errors import (EULER_POLE, DomainError, RangeError, SingularityError,
                     UsageError)
from .exact import CPoly, MultiPoly, Rational, U, W, X, Y, check_r
from .series import TruncSeries


# ----------------------------------------------------------------------
# the record base

_REQUIRED = object()


class Record:
    """A frozen value with named fields, like a frozen dataclass.

    A subclass's annotated class attributes are its fields, after those
    it inherits; an assigned value is the field's default, and a field
    without one is required.  A field annotated ``Rational`` refuses
    anything but an int or a ``Fraction`` (a float, a bool, a complex,
    a str) with :class:`UsageError`.  Instances compare equal only to
    instances of the same class with equal values, and hash by those
    values.
    """

    _fields: tuple[tuple[str, object], ...] = ()
    #: the fields annotated ``Rational``
    _rationals: tuple[str, ...] = ()

    def __init_subclass__(cls):
        own = vars(cls).get("__annotations__", {})
        cls._fields += tuple((name, vars(cls).get(name, _REQUIRED))
                             for name in own)
        cls._rationals += tuple(name for name, kind in own.items()
                                if kind == "Rational")

    def __init__(self, *args, **kwargs):
        kind = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{kind} takes at most {len(self._fields)} "
                            f"values, got {len(args)}")
        values = list(args)
        for name, default in self._fields[len(args):]:
            value = kwargs.pop(name, default)
            if value is _REQUIRED:
                raise TypeError(f"{kind} needs a value for {name!r}")
            values.append(value)
        if kwargs:
            raise TypeError(f"{kind} got an unknown or repeated field "
                            f"{next(iter(kwargs))!r}")
        fields = dict(zip((name for name, _ in self._fields), values))
        for name in self._rationals:
            value = fields[name]
            if isinstance(value, bool) or not isinstance(
                    value, (int, Fraction)):
                raise UsageError(f"{kind} field {name!r} must be an exact "
                                 f"rational, got {type(value).__name__}")
        vars(self).update(fields, _values=tuple(values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for (name, _), value
                          in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes):
        """A copy with the given fields changed."""
        names = [name for name, _ in self._fields]
        return type(self)(**{**dict(zip(names, self._values)), **changes})


# ----------------------------------------------------------------------
# family descriptors


class ApostolBernoulli(Record):
    """(t/(lam*e^t - 1))**k * e^(x*t); EGF."""
    k: int = 1
    lam: Rational = Fraction(1)
    kernel = "bernoulli"

    def _series(self, order: int) -> TruncSeries:
        kern = kernel_f(self.kernel, self.lam, order)
        return series.pow_int(kern, self.k) * _exp_xt(order)


class ApostolEuler(ApostolBernoulli):
    """(2/(lam*e^t + 1))**k * e^(x*t); EGF."""
    kernel = "euler"


class CosC(Record):
    """e^(x*t) * cos(y*t); EGF."""
    side = 0

    def _series(self, order: int) -> TruncSeries:
        return _exp_xt(order) * _cos_sin_yt(order)[self.side]


class SinS(CosC):
    """e^(x*t) * sin(y*t); EGF."""
    side = 1


class ChebyshevT(Record):
    """(1 - x*t) / (1 - 2*x*t + t^2); OGF."""

    def _series(self, order: int) -> TruncSeries:
        numer = series.from_t_poly({0: 1, 1: -X}, order, "ogf")
        denom = series.from_t_poly({0: 1, 1: X * -2, 2: 1}, order, "ogf")
        return numer * series.invert(denom)


class ChebyshevU(Record):
    """1 / (1 - 2*x*t + t^2); OGF."""

    def _series(self, order: int) -> TruncSeries:
        denom = series.from_t_poly({0: 1, 1: X * -2, 2: 1}, order, "ogf")
        return series.invert(denom)


class DicksonD(Record):
    """(2 - x*t) / (1 - x*t + alpha*t^2); OGF."""
    alpha: Rational = Fraction(1)

    def _series(self, order: int) -> TruncSeries:
        alpha = Fraction(self.alpha)
        numer = series.from_t_poly({0: 2, 1: -X}, order, "ogf")
        denom = series.from_t_poly({0: 1, 1: -X, 2: alpha}, order, "ogf")
        return numer * series.invert(denom)


class DicksonE(Record):
    """1 / (1 - x*t + alpha*t^2); OGF."""
    alpha: Rational = Fraction(1)

    def _series(self, order: int) -> TruncSeries:
        alpha = Fraction(self.alpha)
        denom = series.from_t_poly({0: 1, 1: -X, 2: alpha}, order, "ogf")
        return series.invert(denom)


class GouldHopper(Record):
    """e^(x*t + y*t^j) for j >= 2; EGF."""
    j: int = 2

    def _series(self, order: int) -> TruncSeries:
        if not isinstance(self.j, int) or self.j < 2:
            raise RangeError(f"Gould-Hopper exponent j must be an integer "
                             f">= 2, got {self.j!r}")
        arg = series.from_t_poly({1: X, self.j: Y}, order, "egf")
        return series.exp(arg)


class HermiteGen(Record):
    """e^(u1*t + u2*t^2 + ... + ur*t^r); EGF."""
    r: int = 2

    def _series(self, order: int) -> TruncSeries:
        return _exp_u(self.r, order)


class GKernel(Record):
    """e^(w*t + sum u_j t^j) with w = x + i*y; complex EGF."""
    r: int = 2
    conj = 0  # 0, 1, -1: G(w), G(w) + G(conj w), G(w) - G(conj w)

    def _series(self, order: int) -> TruncSeries:
        g = _exp_u(self.r, order, W)
        if self.conj > 0:
            return g + g.map_coeffs(lambda c: c.conj())
        if self.conj < 0:
            return g - g.map_coeffs(lambda c: c.conj())
        return g


class _GConjSum(GKernel):
    """G(w) + G(conj w): the kernel part of M2, built once per r."""
    conj = 1


class _GConjDiff(GKernel):
    """G(w) - G(conj w): the kernel part of M3, built once per r."""
    conj = -1


class K1Kernel(Record):
    """e^((x+u1)*t + sum_{j>=2} u_j t^j) * cos(y*t); EGF."""
    r: int = 2
    side = 0

    def _series(self, order: int) -> TruncSeries:
        return _exp_u(self.r, order, X) * _cos_sin_yt(order)[self.side]


class K2Kernel(K1Kernel):
    """e^((x+u1)*t + sum_{j>=2} u_j t^j) * sin(y*t); EGF."""
    side = 1


class M1(Record):
    """(b + f(t,a))**z * e^(w*t + sum u_j t^j); complex EGF."""
    z: int = 1
    fkind: str = "bernoulli"
    a: Rational = Fraction(1)
    b: Rational = Fraction(1)
    r: int = 2
    kernel = GKernel

    def _series(self, order: int) -> TruncSeries:
        kernel = build(self.kernel(self.r), order)
        return build(R1(self.z, self.fkind, self.a, self.b), order) * kernel


class M2(M1):
    """(b + f(t,a))**z * (G(w) + G(conj w)) with G the complex kernel."""
    kernel = _GConjSum


class M3(M1):
    """(b + f(t,a))**z * (G(w) - G(conj w)) with G the complex kernel."""
    kernel = _GConjDiff


class M4(Record):
    """e^(sum u_j t^j) * cos(y*t); EGF."""
    r: int = 2
    side = 0

    def _series(self, order: int) -> TruncSeries:
        return _exp_u(self.r, order) * _cos_sin_yt(order)[self.side]


class M5(M4):
    """e^(sum u_j t^j) * sin(y*t); EGF."""
    side = 1


class Bform(Record):
    """2 * (b + f(t,a))**z * e^(x*t) * e^(sum u_j t^j) * cos(y*t); EGF."""
    z: int = 1
    fkind: str = "bernoulli"
    a: Rational = Fraction(1)
    b: Rational = Fraction(1)
    r: int = 2
    side = 0

    def _series(self, order: int) -> TruncSeries:
        kernel = build((K1Kernel, K2Kernel)[self.side](self.r), order)
        factor = build(R1(self.z, self.fkind, self.a, self.b), order)
        return factor * kernel * 2


class B1form(Bform):
    """2 * (b + f(t,a))**z * e^(x*t) * e^(sum u_j t^j) * sin(y*t); EGF."""
    side = 1


class BC(Record):
    """(t/(a*e^t - 1))**z * e^(x*t) * cos(y*t); EGF."""
    z: int = 1
    a: Rational = Fraction(1)
    kernel, side = "bernoulli", 0

    def _series(self, order: int) -> TruncSeries:
        kern = kernel_f(self.kernel, self.a, order)
        trig = (CosC, SinS)[self.side]()
        return series.pow_int(kern, self.z) * build(trig, order)


class BS(BC):
    """(t/(a*e^t - 1))**z * e^(x*t) * sin(y*t); EGF."""
    side = 1


class EC(BC):
    """(2/(a*e^t + 1))**z * e^(x*t) * cos(y*t); EGF."""
    kernel = "euler"


class ES(BC):
    """(2/(a*e^t + 1))**z * e^(x*t) * sin(y*t); EGF."""
    kernel, side = "euler", 1


class Nw(Record):
    """e^(w*t) with w = x + i*y; complex EGF."""

    def _series(self, order: int) -> TruncSeries:
        # a complex zero constant term keeps order 0 complex too
        return series.exp(
            series.from_t_poly({0: CPoly.zero(), 1: W}, order, "egf"))


class R1(Record):
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
    if kind not in _KERNELS:
        raise UsageError(f"unknown kernel kind {kind!r}; "
                         f"expected one of {tuple(_KERNELS)}")
    return _KERNELS[kind](Fraction(a), order)


def _bernoulli_kernel(a: Fraction, order: int) -> TruncSeries:
    """t / (a*e^t - 1), via the removable singularity when a == 1."""
    if a == 1:
        # (e^t - 1)/t has coefficients 1/(n+1)! and unit constant term.
        return series.invert(TruncSeries(
            [Fraction(1, math.factorial(n + 1)) for n in range(order + 1)],
            order, "egf"))
    return (series.from_t_poly({1: 1}, order, "egf")
            * series.invert(_a_exp_t_plus(a, -1, order)))


def _euler_kernel(a: Fraction, order: int) -> TruncSeries:
    """2 / (a*e^t + 1); a = -1 kills the constant term, a true pole."""
    if a == -1:
        raise SingularityError(EULER_POLE)
    return series.invert(_a_exp_t_plus(a, 1, order)) * 2


def _a_exp_t_plus(a: Fraction, c: int, order: int) -> TruncSeries:
    """a*e^t + c."""
    return TruncSeries([a + c] + [a * Fraction(1, math.factorial(n))
                                  for n in range(1, order + 1)],
                       order, "egf")


_KERNELS = {"bernoulli": _bernoulli_kernel, "euler": _euler_kernel}


# ----------------------------------------------------------------------
# series atoms, built afresh for each build that reads them


def _exp_xt(order: int) -> TruncSeries:
    return series.exp(series.from_t_poly({1: X}, order, "egf"))


def _cos_sin_yt(order: int) -> tuple[TruncSeries, TruncSeries]:
    return series.cos_sin(series.from_t_poly({1: Y}, order, "egf"))


def _exp_u(r: int, order: int, shift: object = 0) -> TruncSeries:
    """e^((shift+u1)*t + u2*t^2 + ... + ur*t^r)."""
    check_r(r)
    # 0*shift is a zero of the shift's type: complex at order 0 too
    powers = {0: 0 * shift, 1: shift + U[0]}
    powers.update((j, U[j - 1]) for j in range(2, r + 1))
    return series.exp(series.from_t_poly(powers, order, "egf"))


# ----------------------------------------------------------------------
# the dispatcher


def generate(family: object, order: int) -> TruncSeries:
    """The truncated generating series of ``family`` up to t**order.

    Not cached: for a caller that reads the series once, such as a
    ``series`` request or a catalog check.  The parts the series is
    composed of come through :func:`build`.
    """
    if not isinstance(order, int) or order < 0:
        raise UsageError(f"truncation order must be a non-negative integer, "
                         f"got {order!r}")
    builder = getattr(type(family), "_series", None)
    if builder is None:
        raise UsageError(f"unknown family descriptor {family!r}")
    return builder(family, order)


@lru_cache(maxsize=None)
def build(family: object, order: int) -> TruncSeries:
    """:func:`generate`, cached, for the parts a descriptor composes
    (``R1`` and the kernels of the M and B families), which a parameter
    sweep reads at every grid point.  :func:`polygen.identities.run_check`
    empties the cache after every check (through :data:`forget`), since
    later checks seldom read what an earlier one built.
    """
    return generate(family, order)


#: Empty :func:`build`'s cache; bound here, since a tracer may replace
#: the module-level name with a plain wrapper.
forget = build.cache_clear


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

    if isinstance(arg_scale, bool) or not isinstance(
            arg_scale, (int, Fraction, MultiPoly)):
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
        term = term * arg_scale * ratio
        m += 1
        coeffs[m * arg_power] = term
    return TruncSeries(coeffs, order, "ogf")
