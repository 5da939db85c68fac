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
lcm of all denominators, normalised once at the end.  Adding two packed
keys multiplies the underlying monomials.  ``MultiPoly.terms`` gives the
coefficients as ``Fraction`` values, for reading only.

The symbol ``s`` plays a special role: it is an adjoined square root
satisfying ``s**2 == 1 - x**2``.  A polynomial carrying the
``reduced_s`` flag is kept in the quotient ring where every
``s``-exponent is at most one; arithmetic re-applies the rewrite after
each operation.  Reduced and unreduced polynomials must not be mixed
in one operation, and in the reduced ring partial derivatives with
respect to ``x`` or ``s`` are refused (the representation cannot
express them).

The imaginary unit is adjoined the same way, as Q(i) = Q[i]/(i**2 + 1):
a term whose key has the bit ``_I``, one field above the alphabet,
carries a factor i, and the i**2 that a product leaves is rewritten to
-1 where ``s**2`` is.  :class:`CPoly` is the :class:`MultiPoly` whose
terms may carry i, giving exact arithmetic for expressions in
``w = x + i*y``; every operation with a CPoly operand returns a CPoly.
"""

from __future__ import annotations

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
# The bit of a factor i, one field above the alphabet, and the bit of
# the i^2 that a product of two i-terms leaves.
_I = 1 << (_BITS * len(VARS))
_I2 = _I << 1

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
        if any(not 0 <= key < _I for key, _ in pairs):
            raise UsageError("term keys must be packed exponents of VARS")
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
        cls = _kind(self, other)
        a, da, b, db = self.num, self.den, other.num, other.den
        if not b:
            return self._as(cls)
        if not a:
            return other._as(cls)
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
        return _normal(out, da * ma, self.reduced_s, False, cls)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _raw({k: -v for k, v in self.num.items()}, self.den,
                    self.reduced_s, type(self))

    def __sub__(self, other: object) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.const(other, self.reduced_s)
        return self.__add__(other.__neg__())

    def __rsub__(self, other: object) -> "MultiPoly":
        return self.__neg__().__add__(other)

    def __mul__(self, other: object) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self._scaled(*_ratio(other))
        self._check_compatible(other)
        return _fold([(self, other, 1, self.den * other.den)], self.reduced_s,
                     _kind(self, other))

    def _scaled(self, p: int, q: int) -> "MultiPoly":
        """self * p/q for ints p and q > 0."""
        if p == q:
            return self
        if not p:
            return _raw({}, 1, self.reduced_s, type(self))
        if q == 1:
            # num/den is in lowest terms, so only gcd(den, p) can cancel
            g = math.gcd(self.den, p)
            p //= g
            return _raw({k: v * p for k, v in self.num.items()},
                        self.den // g, self.reduced_s, type(self))
        num = self.num
        if p != 1:
            num = {k: v * p for k, v in num.items()}
        return _normal(num, self.den * q, self.reduced_s, False, type(self))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise UsageError("polynomial powers must be non-negative integers")
        result = _raw({0: 1}, 1, self.reduced_s, type(self))
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
        return _normal(out, self.den, self.reduced_s, False, type(self))

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
            if not p:
                # only the terms free of var are left
                return _normal({k: v for k, v in self.num.items()
                                if not (k >> shift) & _MASK}, self.den,
                               self.reduced_s, False, type(self))
            weight = [p ** e * q ** (top - e) for e in range(top + 1)]
            for key, v in self.num.items():
                e = (key >> shift) & _MASK
                k = key - e * step
                out[k] = get(k, 0) + v * weight[e]
            return _normal(out, self.den * q ** top, self.reduced_s, False,
                           type(self))
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
                     self.reduced_s, _kind(self, replacement))

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
            if key & _I:
                raise UsageError("a complex polynomial has no rational "
                                 "value; evaluate its re and im parts")
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
        return _normal(self.num, self.den, True, True, type(self))

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
        return _raw(out, self.den, self.reduced_s, type(self))

    # ------------------------------------------------------------------
    # rendering and serialization

    def __str__(self) -> str:
        return _text(self)

    def __repr__(self) -> str:
        flag = ", s-reduced" if self.reduced_s else ""
        return f"MultiPoly({self}{flag})"

    def to_json_dict(self) -> dict:
        import json
        return json.loads("".join(json_chunks(self)))

    def _as(self, cls: type) -> "MultiPoly":
        """self as a value of ``cls``, sharing its terms."""
        if type(self) is cls:
            return self
        return _raw(self.num, self.den, self.reduced_s, cls)


def _kind(a: MultiPoly, b: object) -> type:
    """The type of a result with operands a and b: CPoly when one is."""
    return CPoly if isinstance(b, CPoly) else type(a)


def _pack_one(name: str, e: int) -> int:
    return e << (_BITS * _VIDX[name])


def _raw(num: dict[int, int], den: int, reduced_s: bool,
         cls: type = MultiPoly) -> MultiPoly:
    """Internal fast constructor for a representation already canonical."""
    p = object.__new__(cls)
    p.num = num
    p.den = den
    p.reduced_s = reduced_s
    return p


def _normal(num: dict[int, int], den: int, reduced_s: bool,
            raised: bool = False, cls: type = MultiPoly) -> MultiPoly:
    """The polynomial num/den, a value of ``cls``, in canonical form.

    ``num`` may hold zero numerators and share a factor with ``den``.
    When ``raised`` (the operation can raise exponents), the OR of the
    keys is tested once: its i^2 bit says whether a product left terms
    to rewrite by i^2 = -1, its s bits whether a reduced result needs
    the rewrite s^2 = 1 - x^2, and its guard bits refuse an exponent
    above _MAX_EXP.  Then zeros are dropped and one gcd brings num/den
    to lowest terms.  ``num`` is never mutated, except that i^2 terms,
    which only a product's own new dict holds, are folded into it.
    """
    if raised and num:
        used = reduce(or_, num)
        if used & _I2:
            get = num.get
            for k in [k for k in num if k & _I2]:
                num[k ^ _I2] = get(k ^ _I2, 0) - num.pop(k)
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
    return _raw(num, den, reduced_s, cls)


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


def _ordered(num: Mapping[int, int], bit: int | None = None
             ) -> tuple[list[tuple[str, int]], list[int]]:
    """The occurring variables as (name, shift) pairs, and the keys in
    canonical order, graded then lexicographic, both descending: all
    keys, or those whose i bit is ``bit``.  A key sorts on one int, its
    degree above its exponents of the occurring variables, the first
    most significant, each in a field as wide as the widest."""
    keys = list(num) if bit is None else [k for k in num if k & _I == bit]
    used = reduce(or_, keys, 0)
    shifts = [sh for sh in range(0, _BITS * len(VARS), _BITS)
              if (used >> sh) & _MASK]
    width = max([((used >> sh) & _MASK).bit_length() for sh in shifts] or [0])
    top = width * len(shifts)

    def rank(key: int) -> int:
        degree = lex = 0
        for sh in shifts:
            e = (key >> sh) & _MASK
            degree += e
            lex = lex << width | e
        return degree << top | lex

    keys.sort(key=rank, reverse=True)
    return [(VARS[sh // _BITS], sh) for sh in shifts], keys


def _fraction_text(v: int, den: int) -> str:
    """``str(Fraction(v, den))``, with one gcd."""
    if den == 1:
        return str(v)
    g = math.gcd(v, den)
    if g == den:
        return str(v // g)
    return f"{v // g}/{den // g}"


def _text(p: MultiPoly, bit: int | None = None) -> str:
    """The text of ``p``, or of its terms whose i bit is ``bit``."""
    used, keys = _ordered(p.num, bit)
    num, den = p.num, p.den
    out = []
    for key in keys:
        v = num[key]
        mag = _fraction_text(abs(v), den)
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, sh in used if (e := (key >> sh) & _MASK))
        out += (" - " if v < 0 else " + ",
                f"{mag}*{mono}" if mono and mag != "1" else mono or mag)
    if not out:
        return "0"
    out[0] = out[0].strip(" +")  # "-" or ""
    return "".join(out)


# ----------------------------------------------------------------------
# Gaussian-rational polynomials


class CPoly(MultiPoly):
    """A :class:`MultiPoly` whose terms may carry i (the key bit ``_I``),
    built from and read back as its parts ``re`` and ``im``, which share
    one s-reduction flag; all else is MultiPoly's."""

    __slots__ = ()

    def __init__(self, re: MultiPoly, im: MultiPoly):
        if type(re) is not MultiPoly or type(im) is not MultiPoly:
            raise UsageError("CPoly parts must be MultiPoly values")
        if re.reduced_s != im.reduced_s:
            raise UsageError("CPoly parts must share the s-reduction flag")
        # over lcm(re.den, im.den) the merged numerators stay in lowest
        # terms, since each part is
        self.den = math.lcm(re.den, im.den)
        mr, mi = self.den // re.den, self.den // im.den
        self.num = {k: v * mr for k, v in re.num.items()}
        self.num.update((k | _I, v * mi) for k, v in im.num.items())
        self.reduced_s = re.reduced_s

    @staticmethod
    def real(p: "MultiPoly | Scalar", reduced_s: bool = False) -> "CPoly":
        """``p`` as a CPoly: a CPoly unchanged, else ``p`` with imaginary
        part zero; ``reduced_s`` is the flag of a scalar ``p``."""
        if not isinstance(p, MultiPoly):
            p = MultiPoly.const(p, reduced_s)
        return p._as(CPoly)

    @staticmethod
    def zero(reduced_s: bool = False) -> "CPoly":
        return _raw({}, 1, reduced_s, CPoly)

    def conj(self) -> "CPoly":
        return _raw({k: -v if k & _I else v for k, v in self.num.items()},
                    self.den, self.reduced_s, CPoly)

    def _part(self, i: int) -> MultiPoly:
        """The terms whose i bit is ``i``, without it, in lowest terms."""
        if not self.num or max(self.num) < _I:  # no term carries i
            return _raw({} if i else self.num, 1 if i else self.den,
                        self.reduced_s)
        return _normal({k ^ i: v for k, v in self.num.items()
                        if k & _I == i}, self.den, self.reduced_s)

    re = property(lambda self: self._part(0), doc="The real part.")
    im = property(lambda self: self._part(_I), doc="The imaginary part.")

    def __str__(self) -> str:
        re, im = _text(self, 0), _text(self, _I)
        return re if im == "0" else f"({re}) + i*({im})"

    def __repr__(self) -> str:
        return f"CPoly({self})"


# ----------------------------------------------------------------------
# Sums of products


def dot(triples: Iterable[tuple], zero: MultiPoly | None = None
        ) -> MultiPoly:
    """sum c*a*b over (a, b, c): a a MultiPoly or CPoly, b one too or an
    exact scalar, c an exact scalar.  Every product goes straight into
    one int dict over the lcm of all denominators, normalised once.  The
    result is a CPoly when a factor or ``zero`` is; the empty sum is
    ``zero`` or 0.  As for ``+`` and ``*``, all polynomials and ``zero``
    share one flag."""
    flags = set() if zero is None else {zero.reduced_s}
    cls = MultiPoly if zero is None else type(zero)
    parts: list = []
    for a, b, c in triples:
        p, q = _ratio(c)
        flags.add(a.reduced_s)
        if isinstance(b, MultiPoly):
            flags.add(b.reduced_s)
        else:
            bp, bq = _ratio(b)
            p, q, b = p * bp, q * bq, ONE
        if type(a) is CPoly or type(b) is CPoly:
            cls = CPoly
        if p and a.num and b.num:
            parts.append((a, b, p, q * a.den * b.den))
    if len(flags) > 1:
        raise UsageError(_MIXED)
    return _fold(parts, bool(flags) and flags.pop(), cls)


def _fold(parts: list[tuple], reduced_s: bool,
          cls: type = MultiPoly) -> MultiPoly:
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
    return _normal(out, den, reduced_s, raised, cls)


# ----------------------------------------------------------------------
# JSON output


def json_chunks(value: object, pad: str = "") -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2)``, in pieces, for a
    value whose first line sits at indent ``pad``.

    A MultiPoly is written as ``{"vars": [...], "terms": [{"exp": [...],
    "coef": "p/q"}, ...]}``, with ``"reduced_s": true`` when the flag is
    set; ``exp`` lists the exponents of the ``vars`` that occur, in
    alphabet order, and the terms come in canonical order, a few hundred
    to a piece.  A CPoly is ``{"re": ..., "im": ...}``, each part read
    from its own terms.  A dict is an object; str, int, bool and None
    are scalars; any other iterable is an array whose elements are
    taken and written one at a time, so a generator of coefficients is
    never held whole.
    """
    import json  # here, so that text output never loads it
    if isinstance(value, CPoly):
        inner = pad + "  "
        yield f'{{\n{inner}"re": '
        yield from _poly_json(value, inner, 0)
        yield f',\n{inner}"im": '
        yield from _poly_json(value, inner, _I)
        yield f"\n{pad}}}"
    elif isinstance(value, MultiPoly):
        yield from _poly_json(value, pad)
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


def _poly_json(p: MultiPoly, pad: str,
               bit: int | None = None) -> Iterator[str]:
    """The JSON object of ``p``, or of its terms whose i bit is ``bit``,
    in pieces of at most 256 terms."""
    used, keys = _ordered(p.num, bit)
    num, den = p.num, p.den
    i1 = pad + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    # the alphabet's names need no escaping
    names = _json_array([f'"{name}"' for name, _ in used], i1)
    yield f'{{\n{i1}"vars": {names},\n{i1}"terms": '
    sep = f"[\n{i2}"
    for start in range(0, len(keys), 256):
        yield sep + f",\n{i2}".join(
            f'{{\n{i3}"exp": '
            f'{_json_array([str((key >> sh) & _MASK) for _, sh in used], i3)}'
            f',\n{i3}"coef": "{_fraction_text(num[key], den)}"\n{i2}}}'
            for key in keys[start:start + 256])
        sep = f",\n{i2}"
    flag = f',\n{i1}"reduced_s": true' if p.reduced_s else ""
    yield (f"\n{i1}]" if keys else "[]") + f"{flag}\n{pad}}}"


def _json_array(texts: Iterable[str], pad: str) -> str:
    """An indented array of element texts, none of them empty."""
    inner = pad + "  "
    body = (",\n" + inner).join(texts)
    return f"[\n{inner}{body}\n{pad}]" if body else "[]"


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
