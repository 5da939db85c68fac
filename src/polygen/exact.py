"""Exact sparse polynomial arithmetic over the rationals.

Polynomials live in a single fixed, ordered alphabet

    x < y < s < a < b < lambda < alpha < u1 < u2 < ... < u8

with ``fractions.Fraction`` coefficients throughout; floats are
rejected at every entry point.  A polynomial is a mapping from packed
exponent vectors to nonzero coefficients, so adding two packed keys
multiplies the underlying monomials.

The symbol ``s`` plays a special role: it is an adjoined square root
satisfying ``s**2 == 1 - x**2``.  A polynomial carrying the
``reduced_s`` flag is kept in the quotient ring where every
``s``-exponent is at most one; arithmetic re-applies the rewrite after
each operation.  Reduced and unreduced polynomials must not be mixed
in one operation, and in the reduced ring partial derivatives with
respect to ``x`` or ``s`` are refused (the representation cannot
express them).

:class:`CPoly` packages a real and an imaginary :class:`MultiPoly` as
one Gaussian-rational value, giving exact arithmetic for expressions
in ``w = x + i*y``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Mapping, Union

from .errors import UsageError

Rational = Fraction

#: The closed variable alphabet, in canonical order.
VARS: tuple[str, ...] = (
    "x", "y", "s", "a", "b", "lambda", "alpha",
    "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8",
)

_VIDX: dict[str, int] = {name: i for i, name in enumerate(VARS)}

# Exponents are packed into one int, 16 bits per variable, so that
# integer addition of keys is monomial multiplication.  Total degrees
# stay tiny (tens), so 16 bits can never overflow.
_BITS = 16
_MASK = (1 << _BITS) - 1

Scalar = Union[int, Fraction]


def _coerce(value: object) -> Fraction:
    """Coerce an exact scalar to Fraction, rejecting floats and bools."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise UsageError(f"expected an exact rational, got {type(value).__name__}")


def _unpack(key: int) -> tuple[int, ...]:
    out = []
    while key:
        out.append(key & _MASK)
        key >>= _BITS
    out.extend([0] * (len(VARS) - len(out)))
    return tuple(out)


def _exp_of(key: int, index: int) -> int:
    return (key >> (_BITS * index)) & _MASK


_S_IDX = _VIDX["s"]
_X_IDX = _VIDX["x"]


def _term_order(item: tuple[int, Fraction]) -> tuple[int, tuple[int, ...]]:
    exps = _unpack(item[0])
    return (sum(exps), exps)


class MultiPoly:
    """Sparse exact polynomial over the fixed alphabet.

    Instances are immutable by convention: no method mutates ``terms``
    after construction, which makes polynomials safe to share and to
    use as cache keys.
    """

    __slots__ = ("terms", "reduced_s", "_hash")

    def __init__(self, terms: Mapping[int, Fraction] | None = None,
                 reduced_s: bool = False):
        cleaned: dict[int, Fraction] = {}
        if terms:
            for key, coef in terms.items():
                c = _coerce(coef)
                if c:
                    cleaned[key] = c
        if reduced_s:
            cleaned = _reduce_terms(cleaned)
        self.terms = cleaned
        self.reduced_s = reduced_s
        self._hash: int | None = None

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(reduced_s: bool = False) -> "MultiPoly":
        return MultiPoly({}, reduced_s)

    @staticmethod
    def const(value: Scalar, reduced_s: bool = False) -> "MultiPoly":
        return MultiPoly({0: _coerce(value)}, reduced_s)

    @staticmethod
    def variable(name: str, reduced_s: bool = False) -> "MultiPoly":
        if name not in _VIDX:
            raise UsageError(f"unknown variable {name!r}")
        return MultiPoly({_pack_one(name, 1): Fraction(1)}, reduced_s)

    @staticmethod
    def monomial(exps: Mapping[str, int], coef: Scalar = 1,
                 reduced_s: bool = False) -> "MultiPoly":
        key = 0
        for name, e in exps.items():
            if name not in _VIDX:
                raise UsageError(f"unknown variable {name!r}")
            if e < 0:
                raise UsageError("negative exponents are not representable")
            key |= e << (_BITS * _VIDX[name])
        return MultiPoly({key: _coerce(coef)}, reduced_s)

    # ------------------------------------------------------------------
    # ring structure

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.reduced_s != other.reduced_s:
            raise UsageError(
                "cannot mix s-reduced and unreduced polynomials; "
                "call reduce_s() on one side first")

    def __add__(self, other: object) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.reduced_s)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for key, coef in other.terms.items():
            _accumulate(out, key, coef)
        return _raw(out, self.reduced_s)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _raw({k: -c for k, c in self.terms.items()}, self.reduced_s)

    def __sub__(self, other: object) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.reduced_s)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other: object) -> "MultiPoly":
        return self.__neg__().__add__(other)

    def __mul__(self, other: object) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self._scaled(_coerce(other))
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        # a constant factor on either side only scales the other one
        if (c := other.const_value()) is not None:
            return self._scaled(c)
        if (c := self.const_value()) is not None:
            return other._scaled(c)
        out: dict[int, Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _accumulate(out, k1 + k2, c1 * c2)
        if self.reduced_s:
            out = _reduce_terms(out)
        return _raw(out, self.reduced_s)

    def _scaled(self, c: Fraction) -> "MultiPoly":
        if c == 1:
            return self
        if not c:
            return MultiPoly.zero(self.reduced_s)
        return _raw({k: v * c for k, v in self.terms.items()},
                    self.reduced_s)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise UsageError("polynomial powers must be non-negative integers")
        result = MultiPoly.const(1, self.reduced_s)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.reduced_s)
        if isinstance(other, CPoly):
            return other.__eq__(self)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        # a constant equals its value whatever its flag, as its hash does
        return self.terms == other.terms and (
            self.reduced_s == other.reduced_s
            or self.const_value() is not None)

    def __hash__(self) -> int:
        # A constant equals its scalar value, so it must hash as that value.
        if self._hash is None:
            const = self.const_value()
            if const is not None:
                self._hash = hash(const)
            else:
                items = tuple(sorted(self.terms.items()))
                self._hash = hash((items, self.reduced_s))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ------------------------------------------------------------------
    # queries

    def is_zero(self) -> bool:
        return not self.terms

    def const_value(self) -> Fraction | None:
        """The value of a constant polynomial, or None if non-constant."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        return None

    def support(self) -> tuple[str, ...]:
        """Variables that actually occur, in canonical alphabet order."""
        used = set()
        for key in self.terms:
            exps = _unpack(key)
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return tuple(VARS[i] for i in sorted(used))

    # ------------------------------------------------------------------
    # calculus and substitution

    def partial(self, var: str) -> "MultiPoly":
        """Formal partial derivative with respect to ``var``.

        In the s-reduced ring, derivatives in ``x`` or ``s`` are
        refused: the rewrite s^2 -> 1 - x^2 makes s depend on x, so
        the formal coefficient-wise derivative would be wrong.
        """
        if var not in _VIDX:
            raise UsageError(f"unknown variable {var!r}")
        if self.reduced_s and var in ("x", "s"):
            raise UsageError(
                "partial derivatives in x or s are not defined in the "
                "s-reduced ring")
        idx = _VIDX[var]
        out: dict[int, Fraction] = {}
        for key, coef in self.terms.items():
            e = _exp_of(key, idx)
            if e:
                out[key - (1 << (_BITS * idx))] = coef * e
        return _raw(out, self.reduced_s)

    def substitute(self, var: str,
                   replacement: "MultiPoly | Scalar") -> "MultiPoly":
        """Substitute a polynomial (or scalar) for one variable."""
        if var not in _VIDX:
            raise UsageError(f"unknown variable {var!r}")
        idx = _VIDX[var]
        step = 1 << (_BITS * idx)
        if isinstance(replacement, (int, Fraction)):
            # A scalar maps each term to coef*c^e at a lower key.  It can
            # never raise an s-exponent, so an s-reduced result stays
            # reduced and needs no rewrite.
            c = _coerce(replacement)
            out: dict[int, Fraction] = {}
            for key, coef in self.terms.items():
                e = _exp_of(key, idx)
                if e:
                    if not c:
                        continue
                    coef = coef * c ** e
                _accumulate(out, key - e * step, coef)
            return _raw(out, self.reduced_s)
        if not isinstance(replacement, MultiPoly):
            raise UsageError("replacement must be a polynomial or rational")
        self._check_compatible(replacement)
        powers: dict[int, MultiPoly] = {0: MultiPoly.const(1, self.reduced_s)}

        def rep_power(e: int) -> MultiPoly:
            if e not in powers:
                powers[e] = rep_power(e - 1) * replacement
            return powers[e]

        result = MultiPoly.zero(self.reduced_s)
        for key, coef in self.terms.items():
            e = _exp_of(key, idx)
            rest = _raw({key - e * step: coef}, self.reduced_s)
            result = result + rest * rep_power(e)
        return result

    def eval(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at an exact rational point.

        Every variable occurring in the polynomial must be assigned;
        a missing assignment is a usage error.
        """
        values: dict[int, Fraction] = {}
        for name, val in assignment.items():
            if name not in _VIDX:
                raise UsageError(f"unknown variable {name!r}")
            values[_VIDX[name]] = _coerce(val)
        total = Fraction(0)
        for key, coef in self.terms.items():
            term = coef
            exps = _unpack(key)
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i not in values:
                    raise UsageError(
                        f"no value assigned to variable {VARS[i]!r}")
                term *= values[i] ** e
            total += term
        return total

    # ------------------------------------------------------------------
    # the adjoined square root

    def reduce_s(self) -> "MultiPoly":
        """Image in the quotient ring with s^2 rewritten to 1 - x^2."""
        if self.reduced_s:
            return self
        return MultiPoly(self.terms, reduced_s=True)

    def forget_s_reduction(self) -> "MultiPoly":
        """Same terms, viewed again as an unreduced polynomial."""
        if not self.reduced_s:
            return self
        return _raw(dict(self.terms), False)

    def s_cofactor(self) -> "MultiPoly":
        """The exact quotient q with self = s*q.

        Every term must carry s-exponent exactly one (which is what an
        odd function of s looks like after reduction); otherwise the
        polynomial is not an s-multiple and this is a usage error.
        """
        step = 1 << (_BITS * _S_IDX)
        out: dict[int, Fraction] = {}
        for key, coef in self.terms.items():
            if _exp_of(key, _S_IDX) != 1:
                raise UsageError("polynomial is not an exact s-multiple")
            out[key - step] = coef
        return _raw(out, self.reduced_s)

    # ------------------------------------------------------------------
    # rendering and serialization

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical order: graded, then lexicographic, descending."""
        items = sorted(self.terms.items(), key=_term_order, reverse=True)
        return [(_unpack(k), c) for k, c in items]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, coef in self.sorted_terms():
            body = _term_string(exps, coef)
            if not parts:
                parts.append(body if coef > 0 else "-" + body)
            else:
                parts.append((" + " if coef > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        flag = ", s-reduced" if self.reduced_s else ""
        return f"MultiPoly({self}{flag})"

    def to_json_dict(self) -> dict:
        support = self.support()
        idx = [_VIDX[name] for name in support]
        terms = []
        for exps, coef in self.sorted_terms():
            terms.append({
                "exp": [exps[i] for i in idx],
                "coef": str(coef),
            })
        data = {"vars": list(support), "terms": terms}
        if self.reduced_s:
            data["reduced_s"] = True
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @staticmethod
    def from_json_dict(data: Mapping) -> "MultiPoly":
        try:
            names = list(data["vars"])
            raw_terms = data["terms"]
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed polynomial JSON: {exc}") from exc
        terms: dict[int, Fraction] = {}
        for term in raw_terms:
            exps = term["exp"]
            if len(exps) != len(names):
                raise UsageError("exponent vector length mismatch")
            key = 0
            for name, e in zip(names, exps):
                if name not in _VIDX:
                    raise UsageError(f"unknown variable {name!r}")
                key |= int(e) << (_BITS * _VIDX[name])
            coef = Fraction(term["coef"])
            if coef:
                terms[key] = terms.get(key, Fraction(0)) + coef
        return MultiPoly(terms, bool(data.get("reduced_s", False)))

    @staticmethod
    def from_json(text: str) -> "MultiPoly":
        return MultiPoly.from_json_dict(json.loads(text))


def _pack_one(name: str, e: int) -> int:
    return e << (_BITS * _VIDX[name])


def _raw(terms: dict[int, Fraction], reduced_s: bool) -> MultiPoly:
    """Internal fast constructor for terms already normalized."""
    p = MultiPoly.__new__(MultiPoly)
    p.terms = terms
    p.reduced_s = reduced_s
    p._hash = None
    return p


def _accumulate(out: dict[int, Fraction], key: int, coef: Fraction) -> None:
    """Add a nonzero ``coef`` into ``out[key]``, dropping the key on zero.

    A new key stores ``coef`` itself; ``0 + coef`` would detour through
    ``int.__add__`` and ``Fraction.__radd__`` on every fresh monomial.
    """
    prev = out.get(key)
    if prev is None:
        out[key] = coef
        return
    tot = prev + coef
    if tot:
        out[key] = tot
    else:
        del out[key]


def _reduce_terms(terms: dict[int, Fraction]) -> dict[int, Fraction]:
    """Rewrite every s-exponent >= 2 using s^2 = 1 - x^2."""
    out: dict[int, Fraction] = {}
    s_step = 1 << (_BITS * _S_IDX)
    x_step = 1 << (_BITS * _X_IDX)
    for key, coef in terms.items():
        e_s = _exp_of(key, _S_IDX)
        if e_s < 2:
            _accumulate(out, key, coef)
            continue
        half, rem = divmod(e_s, 2)
        base = key - (e_s - rem) * s_step
        # (1 - x^2)**half expanded by the binomial theorem
        for i in range(half + 1):
            _accumulate(out, base + 2 * i * x_step,
                        coef * math.comb(half, i) * (-1) ** i)
    return out


def _term_string(exps: tuple[int, ...], coef: Fraction) -> str:
    mono = "*".join(
        VARS[i] if e == 1 else f"{VARS[i]}^{e}"
        for i, e in enumerate(exps) if e
    )
    mag = abs(coef)
    if not mono:
        return str(mag)
    if mag == 1:
        return mono
    return f"{mag}*{mono}"


# ----------------------------------------------------------------------
# Gaussian-rational polynomials


class CPoly:
    """A complex polynomial value: real and imaginary :class:`MultiPoly`.

    Both parts must agree on the s-reduction flag.  Arithmetic follows
    the usual complex rules; conjugation negates the imaginary part.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: MultiPoly, im: MultiPoly):
        if not isinstance(re, MultiPoly) or not isinstance(im, MultiPoly):
            raise UsageError("CPoly parts must be MultiPoly values")
        if re.reduced_s != im.reduced_s:
            raise UsageError("CPoly parts must share the s-reduction flag")
        self.re = re
        self.im = im

    # ------------------------------------------------------------------

    @staticmethod
    def real(p: MultiPoly | Scalar, reduced_s: bool = False) -> "CPoly":
        if isinstance(p, (int, Fraction)):
            p = MultiPoly.const(p, reduced_s)
        return CPoly(p, MultiPoly.zero(p.reduced_s))

    @staticmethod
    def zero(reduced_s: bool = False) -> "CPoly":
        return CPoly(MultiPoly.zero(reduced_s), MultiPoly.zero(reduced_s))

    @property
    def reduced_s(self) -> bool:
        return self.re.reduced_s

    def is_real(self) -> bool:
        return self.im.is_zero()

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def conj(self) -> "CPoly":
        return CPoly(self.re, -self.im)

    # ------------------------------------------------------------------

    @staticmethod
    def _lift(other: object, reduced_s: bool) -> "CPoly | None":
        if isinstance(other, CPoly):
            return other
        if isinstance(other, MultiPoly):
            return CPoly.real(other)
        if isinstance(other, (int, Fraction)):
            return CPoly.real(MultiPoly.const(other, reduced_s))
        return None

    def __add__(self, other: object) -> "CPoly":
        rhs = CPoly._lift(other, self.reduced_s)
        if rhs is None:
            return NotImplemented
        return CPoly(self.re + rhs.re, self.im + rhs.im)

    __radd__ = __add__

    def __neg__(self) -> "CPoly":
        return CPoly(-self.re, -self.im)

    def __sub__(self, other: object) -> "CPoly":
        rhs = CPoly._lift(other, self.reduced_s)
        if rhs is None:
            return NotImplemented
        return CPoly(self.re - rhs.re, self.im - rhs.im)

    def __rsub__(self, other: object) -> "CPoly":
        return self.__neg__().__add__(other)

    def __mul__(self, other: object) -> "CPoly":
        # A real factor needs two products, not the four of a lifted one.
        if isinstance(other, (int, Fraction, MultiPoly)):
            return CPoly(self.re * other, self.im * other)
        rhs = CPoly._lift(other, self.reduced_s)
        if rhs is None:
            return NotImplemented
        return CPoly(self.re * rhs.re - self.im * rhs.im,
                     self.re * rhs.im + self.im * rhs.re)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (MultiPoly, int, Fraction)):
            other = CPoly._lift(other, self.reduced_s)
        if not isinstance(other, CPoly):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # A value with no imaginary part equals its real part.
        if self.im.is_zero():
            return hash(self.re)
        return hash((self.re, self.im))

    # ------------------------------------------------------------------

    def substitute(self, var: str, replacement: MultiPoly | Scalar) -> "CPoly":
        return CPoly(self.re.substitute(var, replacement),
                     self.im.substitute(var, replacement))

    def reduce_s(self) -> "CPoly":
        return CPoly(self.re.reduce_s(), self.im.reduce_s())

    def __str__(self) -> str:
        if self.im.is_zero():
            return str(self.re)
        return f"({self.re}) + i*({self.im})"

    def __repr__(self) -> str:
        return f"CPoly({self})"

    def to_json_dict(self) -> dict:
        return {"re": self.re.to_json_dict(), "im": self.im.to_json_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @staticmethod
    def from_json_dict(data: Mapping) -> "CPoly":
        try:
            return CPoly(MultiPoly.from_json_dict(data["re"]),
                         MultiPoly.from_json_dict(data["im"]))
        except KeyError as exc:
            raise UsageError(
                f"malformed complex polynomial JSON: {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "CPoly":
        return CPoly.from_json_dict(json.loads(text))


# ----------------------------------------------------------------------
# Ready-made symbols

X = MultiPoly.variable("x")
Y = MultiPoly.variable("y")
S = MultiPoly.variable("s")
U = tuple(MultiPoly.variable(f"u{i}") for i in range(1, 9))
ONE = MultiPoly.const(1)

#: w = x + i*y and its conjugate.
W = CPoly(X, Y)
W_BAR = CPoly(X, -Y)


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the usual zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def falling(n: int, z: int) -> int:
    """Falling factorial n*(n-1)*...*(n-z+1); zero when z > n."""
    if z < 0:
        raise UsageError("falling factorial needs a non-negative length")
    out = 1
    for i in range(z):
        out *= (n - i)
    return out
