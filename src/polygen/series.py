"""Truncated formal power series in t with exact polynomial coefficients.

A :class:`TruncSeries` stores the raw coefficients c_0 .. c_N of

    f(t) = c_0 + c_1*t + ... + c_N*t^N  (+ O(t^(N+1)))

together with a convention tag.  The tag never changes the stored
data; it only controls what :meth:`TruncSeries.coefficient` reports:

* ``"egf"``  -- coefficient(n) returns n! * c_n,
* ``"ogf"``  -- coefficient(n) returns c_n.

Coefficients are :class:`~polygen.exact.MultiPoly` or
:class:`~polygen.exact.CPoly` values (plain rationals are lifted to
constant polynomials).  Series of different truncation orders or
conventions never mix silently: arithmetic between them is refused.

The exponential and the inverse share one coefficient recurrence,
g_m = sum_{k=1..m} w(k, m)*f_k*g_{m-k}, that follows from a first-order
differential equation (Brent and Kung, "Fast algorithms for manipulating
formal power series", J. ACM 25(4), 1978), so each costs O(N^2)
coefficient multiplications and stays exact.  The cosine/sine pair of a
real series f is the real and imaginary part of exp(i*f), and integer
powers are repeated squaring.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Mapping, Sequence

from .errors import (ZERO_CONSTANT_TERM, DomainError, RangeError,
                     SingularityError, UsageError)
from .exact import CPoly, MultiPoly, dot, json_chunks

CONVENTIONS = ("egf", "ogf")

#: Largest truncation order (POLYGEN_ORDER, ``series --order``) and
#: largest table index (``table``/``expand --n``) the program accepts
#: from outside; past it exact arithmetic runs for minutes or more.
ORDER_LIMIT = 100

#: Most digits the numerator and the denominator of a rational flag
#: (``--a``, ``--b``, ``--alpha``, ``--lambda``) may each have; at the
#: caps, ``table --family r1 --z -100 --n 100..100`` runs about 10 s.
DIGIT_LIMIT = 20


def default_order() -> int:
    """Truncation order used when none is given.

    Reads the POLYGEN_ORDER environment variable (default 16) at call
    time, so one process can serve several configurations.
    """
    raw = os.environ.get("POLYGEN_ORDER", "16")
    try:
        order = int(raw)
    except ValueError as exc:
        raise UsageError(
            f"POLYGEN_ORDER must be an integer, got {raw!r}") from exc
    if order < 0:
        raise UsageError("POLYGEN_ORDER must be non-negative")
    if order > ORDER_LIMIT:
        raise RangeError(f"POLYGEN_ORDER must be at most {ORDER_LIMIT}, "
                         f"got {order}")
    return order


def _lift(value: object) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return MultiPoly.const(value)
    raise UsageError(
        f"series coefficients must be exact polynomials or rationals, "
        f"got {type(value).__name__}")


class TruncSeries:
    """Immutable truncated power series; see the module docstring."""

    __slots__ = ("order", "convention", "coeffs")

    def __init__(self, coeffs: Sequence[object], order: int,
                 convention: str = "egf"):
        if convention not in CONVENTIONS:
            raise UsageError(f"unknown series convention {convention!r}")
        if order < 0:
            raise UsageError("series order must be non-negative")
        lifted = [_lift(c) for c in coeffs]
        if len(lifted) != order + 1:
            raise UsageError(
                f"expected {order + 1} coefficients for order {order}, "
                f"got {len(lifted)}")
        self.coeffs = tuple(lifted)
        self.order = order
        self.convention = convention

    # ------------------------------------------------------------------
    # accessors

    def raw(self, n: int) -> MultiPoly:
        """The plain t^n coefficient c_n, ignoring the convention tag."""
        self._check_index(n)
        return self.coeffs[n]

    def coefficient(self, n: int) -> MultiPoly:
        """The convention-scaled coefficient: n!*c_n for egf, c_n for ogf."""
        self._check_index(n)
        if self.convention == "egf":
            return self.coeffs[n] * math.factorial(n)
        return self.coeffs[n]

    def _check_index(self, n: int) -> None:
        if not 0 <= n <= self.order:
            raise RangeError(
                f"coefficient index {n} outside truncation order {self.order}")

    def with_convention(self, convention: str) -> "TruncSeries":
        """The same raw data re-tagged; reporting semantics change only."""
        if convention == self.convention:
            return self
        return TruncSeries(self.coeffs, self.order, convention)

    def map_coeffs(self, fn: Callable[[MultiPoly], object]) -> "TruncSeries":
        """A new series with ``fn`` applied to every raw coefficient."""
        return TruncSeries([fn(c) for c in self.coeffs], self.order,
                           self.convention)

    # ------------------------------------------------------------------
    # arithmetic

    def _check_compatible(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise UsageError(
                f"series order mismatch: {self.order} vs {other.order}")
        if self.convention != other.convention:
            raise UsageError(
                f"series convention mismatch: {self.convention} vs "
                f"{other.convention}")

    def __add__(self, other: object) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_compatible(other)
        return TruncSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            self.order, self.convention)

    def __sub__(self, other: object) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_compatible(other)
        return TruncSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
            self.order, self.convention)

    def __neg__(self) -> "TruncSeries":
        return self.map_coeffs(lambda c: -c)

    def __mul__(self, other: object) -> "TruncSeries":
        if isinstance(other, (int, Fraction, MultiPoly)):
            factor = other
            return self.map_coeffs(lambda c: c * factor)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_compatible(other)
        a, b = self.coeffs, other.coeffs
        return TruncSeries(
            [dot((a[i], b[k - i], 1) for i in range(k + 1))
             for k in range(self.order + 1)], self.order, self.convention)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.order == other.order
                and self.convention == other.convention
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def __hash__(self) -> int:
        return hash((self.order, self.convention, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return (f"TruncSeries[{self.convention}, order {self.order}]"
                f"({head}{tail})")

    # ------------------------------------------------------------------
    # serialization

    def json_fields(self) -> dict:
        """The JSON object of the series for :func:`exact.json_chunks`;
        each coefficient is scaled only when the writer reaches it."""
        return {"order": self.order, "convention": self.convention,
                "coeffs": map(self.coefficient, range(self.order + 1))}

    def to_json_dict(self) -> dict:
        import json
        return json.loads("".join(json_chunks(self.json_fields())))


# ----------------------------------------------------------------------
# constructors


def constant(value: object, order: int,
             convention: str = "egf") -> TruncSeries:
    """The constant series value + 0*t + ..."""
    coeffs: list[object] = [_lift(value)]
    coeffs.extend([0 * coeffs[0]] * order)  # zeros of the value's kind
    return TruncSeries(coeffs, order, convention)


def from_t_poly(powers: Mapping[int, object], order: int,
                convention: str = "egf") -> TruncSeries:
    """A polynomial in t as a series: {power: coefficient}."""
    coeffs: list[object] = [MultiPoly.zero()] * (order + 1)
    for power, value in powers.items():
        if power < 0:
            raise UsageError("negative powers of t are not representable")
        if power <= order:
            coeffs[power] = coeffs[power] + _lift(value)
    return TruncSeries(coeffs, order, convention)


# ----------------------------------------------------------------------
# compositional operations


def _seed(f: TruncSeries, value: object = 1) -> MultiPoly:
    """The constant ``value`` as the seed of a series computed from f.

    It is a CPoly when any coefficient of f is one, and each result
    coefficient carries a seed factor, so a series computed from a
    complex f is complex at every index, the constant term included.
    """
    one = MultiPoly.const(value)
    if any(isinstance(c, CPoly) for c in f.coeffs):
        return CPoly.real(one)
    return one


def _solve(f: TruncSeries, g0: MultiPoly,
           weight: Callable[[int, int], Fraction]) -> TruncSeries:
    """The series g with g_0 = g0 and, for m >= 1,
    g_m = sum_{k=1..m} weight(k, m)*f_k*g_{m-k}."""
    g = [g0]
    for m in range(1, f.order + 1):
        g.append(dot((f.coeffs[k], g[m - k], weight(k, m))
                     for k in range(1, m + 1)))
    return TruncSeries(g, f.order, f.convention)


def exp(f: TruncSeries) -> TruncSeries:
    """exp(f) for a series with zero constant term.

    g' = f'*g gives m*g_m = sum_{k=1..m} k*f_k*g_{m-k}, so no factorials
    or divisions besides 1/m appear.
    """
    if not f.raw(0).is_zero():
        raise DomainError("series exponential needs a zero constant term")
    return _solve(f, _seed(f), Fraction)


def cos_sin(f: TruncSeries) -> tuple[TruncSeries, TruncSeries]:
    """The pair (cos(f), sin(f)) for a series with real coefficients and
    zero constant term: the real and imaginary parts of exp(i*f)."""
    if any(isinstance(c, CPoly) for c in f.coeffs):
        raise UsageError("series cosine/sine need real coefficients")
    if not f.raw(0).is_zero():
        raise DomainError("series cosine/sine need a zero constant term")
    e = exp(f.map_coeffs(lambda c: CPoly(MultiPoly.zero(c.reduced_s), c)))
    return e.map_coeffs(attrgetter("re")), e.map_coeffs(attrgetter("im"))


def invert(f: TruncSeries) -> TruncSeries:
    """The multiplicative inverse 1/f.

    The constant term must be a nonzero plain rational; anything else
    (zero, or a genuinely polynomial constant term) is a singularity.
    """
    value = f.raw(0).const_value()
    if value is None:
        raise SingularityError(
            "cannot invert a series whose constant term is not a rational")
    if value == 0:
        raise SingularityError(ZERO_CONSTANT_TERM)
    inv0 = 1 / value
    return _solve(f, _seed(f, inv0), lambda k, m: -inv0)


def pow_int(f: TruncSeries, z: int) -> TruncSeries:
    """f**z for integer z; negative z inverts first (unit required)."""
    if not isinstance(z, int):
        raise UsageError("series powers must be integers")
    if z < 0:
        return pow_int(invert(f), -z)
    result = constant(_seed(f), f.order, f.convention)
    base = f
    while z:
        if z & 1:
            result = result * base
        z >>= 1
        if z:
            base = base * base
    return result
