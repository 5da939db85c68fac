"""Exact sparse polynomial arithmetic over the rationals.

Polynomials live in a single fixed, ordered alphabet

    x < y < s < a < b < lambda < alpha < u1 < u2 < ... < u8

with rational coefficients; floats are rejected at every entry point.
A polynomial is stored as integer numerators over one common
denominator, the layout of FLINT's ``fmpq_poly``: a mapping from packed
exponent vectors to nonzero ``int`` numerators, and one ``int``
denominator ``den > 0``, always in lowest terms
(``gcd(den, *numerators) == 1``; zero is ``({}, 1)``).  Every operation
works on ints and ends with one ``math.gcd`` normalisation, so equal
polynomials have equal representations.  A whole sum of products is one
operation, :func:`dot`: every product goes into one int dict over the
lcm of all denominators, normalised once at the end.  It is also the one
place where complex values are multiplied: a polynomial product with a
:class:`CPoly` factor is a one-term ``dot`` sum.  Adding two packed keys
multiplies the underlying monomials.  ``MultiPoly.terms`` gives the
coefficients as ``Fraction`` values, for reading only.

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
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Mapping, Union

from .errors import RangeError, UsageError

Rational = Fraction

#: The closed variable alphabet, in canonical order.
VARS: tuple[str, ...] = (
    "x", "y", "s", "a", "b", "lambda", "alpha",
    "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8",
)

_VIDX: dict[str, int] = {name: i for i, name in enumerate(VARS)}

# Exponents are packed into one int, 16 bits per variable, so that
# integer addition of keys is monomial multiplication.  The top bit of
# each field is a guard: exponents go up to _MAX_EXP, so the sum of two
# never carries into the next field, and a result whose keys set a
# guard bit is refused instead of being read as another monomial.
_BITS = 16
_MASK = (1 << _BITS) - 1
_MAX_EXP = (1 << (_BITS - 1)) - 1
_GUARD = sum(1 << (_BITS * i + _BITS - 1) for i in range(len(VARS)))

Scalar = Union[int, Fraction]


def _ratio(value: object) -> tuple[int, int]:
    """An exact scalar as (numerator, denominator > 0), in lowest terms;
    floats and bools are rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
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
#: The bits of the s field worth 2 or more: set in the OR of the keys
#: exactly when some term needs the rewrite s^2 -> 1 - x^2.
_S_HIGH = (_MASK ^ 1) << (_BITS * _S_IDX)


_MIXED = ("cannot mix s-reduced and unreduced polynomials; "
          "call reduce_s() on one side first")


def _const_num(num: dict[int, int]) -> int | None:
    """The numerator of a constant polynomial, or None if non-constant."""
    if not num:
        return 0
    if len(num) == 1:
        return num.get(0)
    return None


class MultiPoly:
    """Sparse exact polynomial over the fixed alphabet.

    ``num`` maps packed keys to nonzero int numerators over the one
    denominator ``den``; see the module docstring.  Instances are
    immutable by convention: no method mutates ``num`` after
    construction, which makes polynomials safe to share and to use as
    cache keys.
    """

    __slots__ = ("num", "den", "reduced_s")

    def __init__(self, terms: Mapping[int, Scalar] | None = None,
                 reduced_s: bool = False):
        pairs = [(key, _ratio(coef)) for key, coef in (terms or {}).items()]
        den = math.lcm(*(q for _, (_, q) in pairs))
        made = _normal({key: p * (den // q) for key, (p, q) in pairs if p},
                       den, reduced_s, True)
        self.num = made.num
        self.den = made.den
        self.reduced_s = reduced_s

    @property
    def terms(self) -> dict[int, Fraction]:
        """The coefficients as ``{key: Fraction}``, built on each read."""
        den = self.den
        return {key: Fraction(v, den) for key, v in self.num.items()}

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(reduced_s: bool = False) -> "MultiPoly":
        return _raw({}, 1, reduced_s)

    @staticmethod
    def const(value: Scalar, reduced_s: bool = False) -> "MultiPoly":
        p, q = _ratio(value)
        return _raw({0: p} if p else {}, q, reduced_s)

    @staticmethod
    def variable(name: str, reduced_s: bool = False) -> "MultiPoly":
        if name not in _VIDX:
            raise UsageError(f"unknown variable {name!r}")
        return _raw({_pack_one(name, 1): 1}, 1, reduced_s)

    @staticmethod
    def monomial(exps: Mapping[str, int], coef: Scalar = 1,
                 reduced_s: bool = False) -> "MultiPoly":
        key = 0
        for name, e in exps.items():
            if name not in _VIDX:
                raise UsageError(f"unknown variable {name!r}")
            if e < 0:
                raise UsageError("negative exponents are not representable")
            if e > _MAX_EXP:
                raise RangeError(
                    f"exponents above {_MAX_EXP} are not representable")
            key |= e << (_BITS * _VIDX[name])
        p, q = _ratio(coef)
        return _normal({key: p}, q, reduced_s, reduced_s)

    # ------------------------------------------------------------------
    # ring structure

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.reduced_s != other.reduced_s:
            raise UsageError(_MIXED)

    def __add__(self, other: object) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.const(other, self.reduced_s)
        self._check_compatible(other)
        a, da, b, db = self.num, self.den, other.num, other.den
        if not b:
            return self
        if not a:
            return other
        if len(b) > len(a):
            a, da, b, db = b, db, a, da
        # both over lcm(da, db); a side whose den is already that keeps
        # its numerators
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        out = dict(a) if ma == 1 else {k: v * ma for k, v in a.items()}
        if mb != 1:
            b = {k: v * mb for k, v in b.items()}
        get = out.get
        for k, v in b.items():
            out[k] = get(k, 0) + v
        return _normal(out, da * ma, self.reduced_s)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _raw({k: -v for k, v in self.num.items()}, self.den,
                    self.reduced_s)

    def __sub__(self, other: object) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.const(other, self.reduced_s)
        return self.__add__(other.__neg__())

    def __rsub__(self, other: object) -> "MultiPoly":
        return self.__neg__().__add__(other)

    def __mul__(self, other: object) -> "MultiPoly | CPoly":
        if isinstance(other, CPoly):
            return dot(((self, other, 1),))
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self._scaled(*_ratio(other))
        self._check_compatible(other)
        return _fold([(self, other, 1, self.den * other.den)], self.reduced_s)

    def _scaled(self, p: int, q: int) -> "MultiPoly":
        """self * p/q for ints p and q > 0."""
        if p == q:
            return self
        if not p:
            return MultiPoly.zero(self.reduced_s)
        num = self.num
        if p != 1:
            num = {k: v * p for k, v in num.items()}
        return _normal(num, self.den * q, self.reduced_s)

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
        if not isinstance(other, MultiPoly):
            if isinstance(other, CPoly):
                return other.__eq__(self)
            if isinstance(other, bool) or not isinstance(
                    other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.const(other, self.reduced_s)
        # the form is canonical; a constant equals its value whatever
        # its flag, as its hash does
        return self.den == other.den and self.num == other.num and (
            self.reduced_s == other.reduced_s
            or _const_num(self.num) is not None)

    def __hash__(self) -> int:
        # A constant equals its scalar value, so it must hash as that value.
        const = _const_num(self.num)
        if const is not None:
            return hash(Fraction(const, self.den))
        return hash((frozenset(self.num.items()), self.den, self.reduced_s))

    def __bool__(self) -> bool:
        return bool(self.num)

    # ------------------------------------------------------------------
    # queries

    def is_zero(self) -> bool:
        return not self.num

    def const_value(self) -> Fraction | None:
        """The value of a constant polynomial, or None if non-constant."""
        const = _const_num(self.num)
        return None if const is None else Fraction(const, self.den)

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
        shift = _BITS * _VIDX[var]
        step = 1 << shift
        out: dict[int, int] = {}
        for key, v in self.num.items():
            e = (key >> shift) & _MASK
            if e:
                out[key - step] = v * e
        return _normal(out, self.den, self.reduced_s)

    def substitute(self, var: str,
                   replacement: "MultiPoly | Scalar") -> "MultiPoly":
        """Substitute a polynomial (or scalar) for one variable."""
        if var not in _VIDX:
            raise UsageError(f"unknown variable {var!r}")
        shift = _BITS * _VIDX[var]
        step = 1 << shift
        top = max(((key >> shift) & _MASK for key in self.num), default=0)
        out: dict[int, int] = {}
        get = out.get
        if isinstance(replacement, (int, Fraction)):
            # A scalar p/q maps each term to v*(p/q)^e at a lower key;
            # scaling it by q^(top - e) keeps the one denominator
            # den*q^top.  It can never raise an s-exponent, so an
            # s-reduced result stays reduced and needs no rewrite.
            p, q = _ratio(replacement)
            weight = [p ** e * q ** (top - e) for e in range(top + 1)]
            for key, v in self.num.items():
                e = (key >> shift) & _MASK
                k = key - e * step
                out[k] = get(k, 0) + v * weight[e]
            return _normal(out, self.den * q ** top, self.reduced_s)
        if not isinstance(replacement, MultiPoly):
            raise UsageError("replacement must be a polynomial or rational")
        self._check_compatible(replacement)
        powers = [MultiPoly.const(1, self.reduced_s)]
        for _ in range(top):
            powers.append(powers[-1] * replacement)
        # self is sum_e c_e var^e with every c_e free of var
        coefs: list[dict[int, int]] = [{} for _ in powers]
        for key, v in self.num.items():
            e = (key >> shift) & _MASK
            coefs[e][key - e * step] = v
        return _fold([(_raw(c, 1, self.reduced_s), power, 1,
                       self.den * power.den)
                      for c, power in zip(coefs, powers) if c and power],
                     self.reduced_s)

    def eval(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at an exact rational point.

        Every variable occurring in the polynomial must be assigned;
        a missing assignment is a usage error.
        """
        values: dict[int, Fraction] = {}
        for name, val in assignment.items():
            if name not in _VIDX:
                raise UsageError(f"unknown variable {name!r}")
            values[_VIDX[name]] = Fraction(*_ratio(val))
        total: Scalar = 0
        for key, term in self.num.items():
            for i, e in enumerate(_unpack(key)):
                if not e:
                    continue
                if i not in values:
                    raise UsageError(
                        f"no value assigned to variable {VARS[i]!r}")
                term *= values[i] ** e
            total += term
        return Fraction(total) / self.den

    # ------------------------------------------------------------------
    # the adjoined square root

    def reduce_s(self) -> "MultiPoly":
        """Image in the quotient ring with s^2 rewritten to 1 - x^2."""
        if self.reduced_s:
            return self
        return _normal(self.num, self.den, True, True)

    def forget_s_reduction(self) -> "MultiPoly":
        """Same terms, viewed again as an unreduced polynomial."""
        if not self.reduced_s:
            return self
        return _raw(self.num, self.den, False)

    def s_cofactor(self) -> "MultiPoly":
        """The exact quotient q with self = s*q.

        Every term must carry s-exponent exactly one (which is what an
        odd function of s looks like after reduction); otherwise the
        polynomial is not an s-multiple and this is a usage error.
        """
        step = 1 << (_BITS * _S_IDX)
        out: dict[int, int] = {}
        for key, v in self.num.items():
            if _exp_of(key, _S_IDX) != 1:
                raise UsageError("polynomial is not an exact s-multiple")
            out[key - step] = v
        return _raw(out, self.den, self.reduced_s)

    # ------------------------------------------------------------------
    # rendering and serialization

    def __str__(self) -> str:
        if not self.num:
            return "0"
        names, rows = _canonical(self.num)
        den = self.den
        parts: list[str] = []
        for exps, v in rows:
            body = _term_string(names, exps, _fraction_text(abs(v), den))
            if not parts:
                parts.append(body if v > 0 else "-" + body)
            else:
                parts.append((" + " if v > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        flag = ", s-reduced" if self.reduced_s else ""
        return f"MultiPoly({self}{flag})"

    def to_json_dict(self) -> dict:
        return json.loads("".join(json_chunks(self)))


def _pack_one(name: str, e: int) -> int:
    return e << (_BITS * _VIDX[name])


def _raw(num: dict[int, int], den: int, reduced_s: bool) -> MultiPoly:
    """Internal fast constructor for a representation already canonical."""
    p = MultiPoly.__new__(MultiPoly)
    p.num = num
    p.den = den
    p.reduced_s = reduced_s
    return p


def _normal(num: dict[int, int], den: int, reduced_s: bool,
            raised: bool = False) -> MultiPoly:
    """The polynomial num/den in canonical form.

    ``num`` may hold zero numerators and share a factor with ``den``.
    When ``raised`` (the operation can raise exponents), the OR of the
    keys is tested once: its s bits say whether a reduced result needs
    the rewrite, and its guard bits refuse an exponent above _MAX_EXP.
    Then zeros are dropped and one gcd brings num/den to lowest terms.
    ``num`` itself is never mutated.
    """
    if raised and num:
        used = reduce(or_, num)
        if reduced_s and used & _S_HIGH:
            num = _reduce_terms(num)
            used |= reduce(or_, num, 0)
        if used & _GUARD:
            raise RangeError(
                f"exponents above {_MAX_EXP} are not representable")
    if 0 in num.values():
        num = {k: v for k, v in num.items() if v}
    if den != 1:
        if not num:
            den = 1
        else:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
    return _raw(num, den, reduced_s)


def _reduce_terms(num: dict[int, int]) -> dict[int, int]:
    """Rewrite every s-exponent >= 2 using s^2 = 1 - x^2.

    Works on the numerators alone: the binomial weights are ints, so the
    denominator stays.  The result may hold zero numerators.
    """
    out: dict[int, int] = {}
    get = out.get
    s_step = 1 << (_BITS * _S_IDX)
    x_step = 1 << (_BITS * _X_IDX)
    for key, v in num.items():
        e_s = _exp_of(key, _S_IDX)
        if e_s < 2:
            out[key] = get(key, 0) + v
            continue
        half, rem = divmod(e_s, 2)
        base = key - (e_s - rem) * s_step
        # (1 - x^2)**half expanded by the binomial theorem
        for i in range(half + 1):
            k = base + 2 * i * x_step
            out[k] = get(k, 0) + v * math.comb(half, i) * (-1) ** i
    return out


def _canonical(num: Mapping[int, int]
               ) -> tuple[tuple[str, ...], list[tuple[list[int], int]]]:
    """The variables that occur, and the terms in canonical order.

    Exponents are non-negative bit fields, so a variable occurs exactly
    when its field is nonzero in the OR of all keys.  Each key is
    unpacked once, over those variables only, into exponents aligned
    with the returned names.  The order is graded, then lexicographic,
    both descending; the absent variables, zero in every term, cannot
    change it.
    """
    used = reduce(or_, num, 0)
    shifts = [sh for sh in range(0, _BITS * len(VARS), _BITS)
              if (used >> sh) & _MASK]
    rows = [([(key >> sh) & _MASK for sh in shifts], v)
            for key, v in num.items()]
    rows.sort(key=_graded, reverse=True)
    return tuple(VARS[sh // _BITS] for sh in shifts), rows


def _graded(row: tuple[list[int], int]) -> tuple[int, list[int]]:
    return (sum(row[0]), row[0])


def _fraction_text(v: int, den: int) -> str:
    """``str(Fraction(v, den))``, with one gcd."""
    if den == 1:
        return str(v)
    g = math.gcd(v, den)
    if g == den:
        return str(v // g)
    return f"{v // g}/{den // g}"


def _term_string(names: tuple[str, ...], exps: list[int], mag: str) -> str:
    mono = "*".join(
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(names, exps) if e
    )
    if not mono:
        return mag
    if mag == "1":
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
    def real(p: "CPoly | MultiPoly | Scalar",
             reduced_s: bool = False) -> "CPoly":
        """``p`` as a CPoly: a CPoly unchanged, else ``p`` with imaginary
        part zero; ``reduced_s`` is the flag of a scalar ``p``."""
        if isinstance(p, CPoly):
            return p
        if not isinstance(p, MultiPoly):
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

    def __add__(self, other: object) -> "CPoly":
        if not isinstance(other, _EXACT):
            return NotImplemented
        rhs = CPoly.real(other, self.reduced_s)
        return CPoly(self.re + rhs.re, self.im + rhs.im)

    __radd__ = __add__

    def __neg__(self) -> "CPoly":
        return CPoly(-self.re, -self.im)

    def __sub__(self, other: object) -> "CPoly":
        if not isinstance(other, _EXACT):
            return NotImplemented
        rhs = CPoly.real(other, self.reduced_s)
        return CPoly(self.re - rhs.re, self.im - rhs.im)

    def __rsub__(self, other: object) -> "CPoly":
        return self.__neg__().__add__(other)

    def __mul__(self, other: object) -> "CPoly":
        if isinstance(other, (int, Fraction)):
            return CPoly(self.re * other, self.im * other)
        if not isinstance(other, (MultiPoly, CPoly)):
            return NotImplemented
        return dot(((self, other, 1),))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, bool) or not isinstance(other, _EXACT):
            return NotImplemented
        other = CPoly.real(other, self.reduced_s)
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
        return json.loads("".join(json_chunks(self)))


#: What a CPoly adds to, subtracts from and compares with.
_EXACT = (CPoly, MultiPoly, int, Fraction)


# ----------------------------------------------------------------------
# Sums of products


def dot(triples: Iterable[tuple], zero: object = None) -> MultiPoly | CPoly:
    """sum c*a*b over (a, b, c): a a MultiPoly or CPoly, b one too or an
    exact scalar, c an exact scalar.  A CPoly factor splits into real
    products by i*i = -1, the one place that rule is written, and every
    product goes straight into one int dict over the lcm of all
    denominators, normalised once.  The result is a CPoly when a factor
    or ``zero`` is; the empty sum is ``zero`` or 0.  As for ``+`` and
    ``*``, all polynomials and ``zero`` share one flag."""
    flags = set() if zero is None else {zero.reduced_s}
    cplx = isinstance(zero, CPoly)
    re: list = []
    im: list = []
    for a, b, c in triples:
        p, q = _ratio(c)
        flags.add(a.reduced_s)
        if isinstance(b, (MultiPoly, CPoly)):
            flags.add(b.reduced_s)
        else:
            bp, bq = _ratio(b)
            p, q, b = p * bp, q * bq, ONE
        if type(a) is MultiPoly is type(b):
            parts: tuple = ((re, a, b, p),)
        else:
            cplx = True
            a_re, a_im = (a.re, a.im) if type(a) is CPoly else (a, _ZERO)
            b_re, b_im = (b.re, b.im) if type(b) is CPoly else (b, _ZERO)
            parts = ((re, a_re, b_re, p), (re, a_im, b_im, -p),
                     (im, a_im, b_re, p), (im, a_re, b_im, p))
        for out, x, y, w in parts:
            if w and x.num and y.num:
                out.append((x, y, w, q * x.den * y.den))
    if len(flags) > 1:
        raise UsageError(_MIXED)
    real = _fold(re, bool(flags) and flags.pop())
    return CPoly(real, _fold(im, real.reduced_s)) if cplx else real


def _fold(parts: list[tuple], reduced_s: bool) -> MultiPoly:
    """sum p/q*x*y over (x, y, p, q), q the product of p's denominator
    and those of x and y.  A constant factor only scales the other one,
    whose key objects the sum keeps, and its numerators too when that
    term comes first with weight 1."""
    den = math.lcm(*(q for *_, q in parts))
    out: dict[int, int] = {}
    get = out.get
    raised = False
    for x, y, p, q in parts:
        w = p * (den // q)
        if (c := _const_num(y.num)) is not None:
            w *= c
        elif (c := _const_num(x.num)) is not None:
            w, x = w * c, y
        else:
            raised = True
            if len(x.num) > len(y.num):
                x, y = y, x
            for k1, v1 in x.num.items():
                w1 = w * v1
                for k2, v2 in y.num.items():
                    k = k1 + k2
                    out[k] = get(k, 0) + w1 * v2
            continue
        if not out and w == 1:
            out = dict(x.num)
            get = out.get
        else:
            for k, v in x.num.items():
                out[k] = get(k, 0) + w * v
    return _normal(out, den, reduced_s, raised)


# ----------------------------------------------------------------------
# JSON output


def json_chunks(value: object, pad: str = "") -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2)``, in pieces, for a
    value whose first line sits at indent ``pad``.

    A MultiPoly is written as ``{"vars": [...], "terms": [{"exp": [...],
    "coef": "p/q"}, ...]}``, with ``"reduced_s": true`` when the flag is
    set; ``exp`` lists the exponents of the ``vars`` that occur, in
    alphabet order, and the terms come in canonical order.  Each
    MultiPoly is one piece, built straight from its term dict.  A CPoly
    is ``{"re": ..., "im": ...}``.  A dict is an object; str, int, bool
    and None are scalars; any other iterable is an array whose elements
    are taken and written one at a time, so a generator of coefficients
    is never held whole.
    """
    if isinstance(value, MultiPoly):
        yield _poly_json(value, pad)
    elif isinstance(value, CPoly):
        yield from json_chunks({"re": value.re, "im": value.im}, pad)
    elif value is None or isinstance(value, (str, int)):
        yield json.dumps(value)
    else:
        is_dict = isinstance(value, dict)
        members = value.items() if is_dict else ((None, v) for v in value)
        opening, closing = "{}" if is_dict else "[]"
        inner = pad + "  "
        sep = opening
        for key, item in members:
            yield f"{sep}\n{inner}" + (
                "" if key is None else json.dumps(key) + ": ")
            yield from json_chunks(item, inner)
            sep = ","
        yield f"\n{pad}{closing}" if sep == "," else opening + closing


def _poly_json(p: MultiPoly, pad: str) -> str:
    names, rows = _canonical(p.num)
    den = p.den
    i1 = pad + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    terms = [f'{{\n{i3}"exp": {_json_array(map(str, exps), i3)},\n'
             f'{i3}"coef": "{_fraction_text(v, den)}"\n{i2}}}'
             for exps, v in rows]
    names_json = _json_array(map(json.dumps, names), i1)
    text = (f'{{\n{i1}"vars": {names_json},\n'
            f'{i1}"terms": {_json_array(terms, i1)}')
    if p.reduced_s:
        text += f',\n{i1}"reduced_s": true'
    return f"{text}\n{pad}}}"


def _json_array(texts: Iterable[str], pad: str) -> str:
    """An indented array of element texts, none of them empty."""
    inner = pad + "  "
    body = (",\n" + inner).join(texts)
    return f"[\n{inner}{body}\n{pad}]" if body else "[]"


# ----------------------------------------------------------------------
# Ready-made symbols

_ZERO = MultiPoly.zero()
X = MultiPoly.variable("x")
Y = MultiPoly.variable("y")
S = MultiPoly.variable("s")
U = tuple(MultiPoly.variable(f"u{i}") for i in range(1, 9))
ONE = MultiPoly.const(1)

#: w = x + i*y and its conjugate.
W = CPoly(X, Y)
W_BAR = CPoly(X, -Y)


def check_r(r: int) -> None:
    """Refuse an order parameter r that has no u1 .. ur in ``U``."""
    if not isinstance(r, int) or not 1 <= r <= len(U):
        raise RangeError(
            f"order parameter r must lie in 1..{len(U)}, got {r!r}")


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
