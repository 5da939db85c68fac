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

Compositional operations (exponential, the cosine/sine pair, inversion,
integer powers) are computed by coefficient recurrences derived from
first-order differential equations, so each costs O(N^2) coefficient
multiplications and stays exact.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

from .errors import DomainError, RangeError, SingularityError, UsageError
from .exact import CPoly, MultiPoly

Coef = Union[MultiPoly, CPoly]

CONVENTIONS = ("egf", "ogf")

#: Largest truncation order (POLYGEN_ORDER, ``series --order``) and
#: largest table index (``table``/``expand --n``) the program accepts
#: from outside; past it exact arithmetic runs for minutes or more.
ORDER_LIMIT = 100


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


def _lift(value: object) -> Coef:
    if isinstance(value, (MultiPoly, CPoly)):
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

    def raw(self, n: int) -> Coef:
        """The plain t^n coefficient c_n, ignoring the convention tag."""
        self._check_index(n)
        return self.coeffs[n]

    def coefficient(self, n: int) -> Coef:
        """The convention-scaled coefficient: n!*c_n for egf, c_n for ogf."""
        self._check_index(n)
        if self.convention == "egf":
            return self.coeffs[n] * Fraction(math.factorial(n))
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

    def map_coeffs(self, fn: Callable[[Coef], object]) -> "TruncSeries":
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
        if isinstance(other, (int, Fraction, MultiPoly, CPoly)):
            factor = other
            return self.map_coeffs(lambda c: c * factor)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_compatible(other)
        n = self.order
        out: list[object] = []
        for k in range(n + 1):
            acc = None
            for i in range(k + 1):
                term = self.coeffs[i] * other.coeffs[k - i]
                acc = term if acc is None else acc + term
            out.append(acc)
        return TruncSeries(out, n, self.convention)

    def __rmul__(self, other: object) -> "TruncSeries":
        if isinstance(other, (int, Fraction, MultiPoly, CPoly)):
            return self.__mul__(other)
        return NotImplemented

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

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "convention": self.convention,
            "coeffs": [_coef_json(self.coefficient(n))
                       for n in range(self.order + 1)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @staticmethod
    def from_json_dict(data: Mapping) -> "TruncSeries":
        try:
            order = int(data["order"])
            convention = data["convention"]
            coeffs = data["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed series JSON: {exc}") from exc
        raw = []
        for n, entry in enumerate(coeffs):
            value = _coef_from_json(entry)
            if convention == "egf":
                value = value * Fraction(1, math.factorial(n))
            raw.append(value)
        return TruncSeries(raw, order, convention)

    @staticmethod
    def from_json(text: str) -> "TruncSeries":
        return TruncSeries.from_json_dict(json.loads(text))


def _coef_json(value: Coef) -> dict:
    # scalar coefficients (kernel series and their powers) serialize
    # as constant polynomials so the JSON shape stays uniform
    if isinstance(value, (int, Fraction)):
        value = MultiPoly.const(value)
    return value.to_json_dict()


def _coef_from_json(entry: Mapping) -> Coef:
    if "re" in entry:
        return CPoly.from_json_dict(entry)
    return MultiPoly.from_json_dict(entry)


# ----------------------------------------------------------------------
# constructors


def constant(value: object, order: int,
             convention: str = "egf") -> TruncSeries:
    """The constant series value + 0*t + ..."""
    coeffs: list[object] = [_lift(value)]
    zero = MultiPoly.zero()
    coeffs.extend([zero] * order)
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


def exp(f: TruncSeries) -> TruncSeries:
    """exp(f) for a series with zero constant term.

    Uses the recurrence n*g_n = sum_{k=1..n} k*f_k*g_{n-k} that follows
    from g' = f'*g, so no factorials or divisions besides 1/n appear.
    """
    c0 = f.raw(0)
    if not c0.is_zero():
        raise DomainError("series exponential needs a zero constant term")
    n = f.order
    g: list[Coef] = [MultiPoly.const(1)]
    for m in range(1, n + 1):
        acc = None
        for k in range(1, m + 1):
            term = f.coeffs[k] * g[m - k] * Fraction(k)
            acc = term if acc is None else acc + term
        g.append(acc * Fraction(1, m))
    return TruncSeries(g, n, f.convention)


def cos_sin(f: TruncSeries) -> tuple[TruncSeries, TruncSeries]:
    """The pair (cos(f), sin(f)) for a series with zero constant term.

    The coupled recurrences n*c_n = -sum k*f_k*s_{n-k} and
    n*s_n = sum k*f_k*c_{n-k} mirror c' = -f'*s, s' = f'*c.
    """
    c0 = f.raw(0)
    if not c0.is_zero():
        raise DomainError("series cosine/sine need a zero constant term")
    n = f.order
    cos: list[Coef] = [MultiPoly.const(1)]
    sin: list[Coef] = [MultiPoly.zero()]
    for m in range(1, n + 1):
        acc_c = None
        acc_s = None
        for k in range(1, m + 1):
            weight = f.coeffs[k] * Fraction(k)
            tc = weight * sin[m - k]
            ts = weight * cos[m - k]
            acc_c = tc if acc_c is None else acc_c + tc
            acc_s = ts if acc_s is None else acc_s + ts
        cos.append(acc_c * Fraction(-1, m))
        sin.append(acc_s * Fraction(1, m))
    return (TruncSeries(cos, n, f.convention),
            TruncSeries(sin, n, f.convention))


def invert(f: TruncSeries) -> TruncSeries:
    """The multiplicative inverse 1/f.

    The constant term must be a nonzero plain rational; anything else
    (zero, or a genuinely polynomial constant term) is a singularity.
    """
    c0 = f.raw(0)
    value = _unit_value(c0)
    if value is None or value == 0:
        raise SingularityError(
            "cannot invert a series whose constant term is not a "
            "nonzero rational")
    n = f.order
    inv0 = Fraction(1, 1) / value
    g: list[Coef] = [MultiPoly.const(inv0)]
    for m in range(1, n + 1):
        acc = None
        for k in range(1, m + 1):
            term = f.coeffs[k] * g[m - k]
            acc = term if acc is None else acc + term
        g.append(acc * -inv0)
    return TruncSeries(g, n, f.convention)


def _unit_value(c0: Coef) -> Fraction | None:
    if isinstance(c0, CPoly):
        if not c0.is_real():
            return None
        c0 = c0.re
    return c0.const_value()


def pow_int(f: TruncSeries, z: int) -> TruncSeries:
    """f**z for integer z; negative z inverts first (unit required)."""
    if not isinstance(z, int):
        raise UsageError("series powers must be integers")
    if z < 0:
        return pow_int(invert(f), -z)
    result = constant(1, f.order, f.convention)
    base = f
    while z:
        if z & 1:
            result = result * base
        z >>= 1
        if z:
            base = base * base
    return result
