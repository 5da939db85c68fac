"""Reference values computed apart from polygen.

Nothing here imports the program.  A polynomial that polygen prints is
read back from its JSON or canonical text form and evaluated exactly at
a rational point; the generating function it should come from is
expanded at the same point with this module's own truncated-series
arithmetic over the Gaussian rationals.  Coefficient n of an output
must equal n! * [t^n] of the expansion for an egf family and [t^n] for
an ogf family.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial


class GQ:
    """A Gaussian rational re + i*im."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0) -> None:
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other) -> "GQ":
        other = _gq(other)
        return GQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GQ":
        other = _gq(other)
        return GQ(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GQ":
        return GQ(-self.re, -self.im)

    def __mul__(self, other) -> "GQ":
        if isinstance(other, (int, Fraction)):
            return GQ(self.re * other, self.im * other)
        return GQ(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def inverse(self) -> "GQ":
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise ZeroDivisionError("inverse of zero")
        return GQ(self.re / norm, -self.im / norm)

    def __pow__(self, n: int) -> "GQ":
        out = GQ(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        other = _gq(other)
        return self.re == other.re and self.im == other.im

    def __repr__(self) -> str:
        return f"({self.re} + {self.im}i)"


def _gq(value) -> GQ:
    return value if isinstance(value, GQ) else GQ(value)


# ----------------------------------------------------------------------
# truncated series: lists of GQ, index = power of t


def s_mul(a: list, b: list) -> list:
    n = len(a)
    return [sum((a[i] * b[k - i] for i in range(k + 1)), GQ())
            for k in range(n)]


def s_inv(a: list) -> list:
    inv0 = a[0].inverse()
    out = [inv0]
    for k in range(1, len(a)):
        acc = sum((a[i] * out[k - i] for i in range(1, k + 1)), GQ())
        out.append(-(acc * inv0))
    return out


def s_pow(a: list, z: int) -> list:
    if z < 0:
        a, z = s_inv(a), -z
    out = [GQ(1)] + [GQ()] * (len(a) - 1)
    for _ in range(z):
        out = s_mul(out, a)
    return out


def s_exp_monomial(c, j: int, order: int) -> list:
    """exp(c * t^j), written out term by term."""
    c = _gq(c)
    out = [GQ()] * (order + 1)
    m = 0
    while j * m <= order:
        out[j * m] = c ** m * Fraction(1, factorial(m))
        m += 1
    return out


def s_exp_poly(powers: dict, order: int) -> list:
    """exp(sum c_j t^j) as a product of single-power exponentials."""
    out = [GQ(1)] + [GQ()] * order
    for j, c in powers.items():
        out = s_mul(out, s_exp_monomial(c, j, order))
    return out


def s_cos(y, order: int) -> list:
    return [GQ((-1) ** (k // 2) * Fraction(y) ** k / factorial(k))
            if k % 2 == 0 else GQ() for k in range(order + 1)]


def s_t_poly(coeffs: list, order: int) -> list:
    """A polynomial in t, from its coefficient list, as a series."""
    out = [GQ()] * (order + 1)
    for k, c in enumerate(coeffs[:order + 1]):
        out[k] = _gq(c)
    return out


def kernel(kind: str, a: Fraction, order: int) -> list:
    """t/(a e^t - 1) ("bernoulli") or 2/(a e^t + 1) ("euler")."""
    if kind == "bernoulli":
        if a == 1:
            # t/(e^t - 1) = 1 / sum t^n/(n+1)!
            return s_inv([GQ(Fraction(1, factorial(n + 1)))
                          for n in range(order + 1)])
        denom = [GQ(a - 1)] + [GQ(a / factorial(n))
                               for n in range(1, order + 2)]
        return ([GQ()] + s_inv(denom))[:order + 1]
    denom = [GQ(a + 1)] + [GQ(a / factorial(n)) for n in range(1, order + 1)]
    return [2 * c for c in s_inv(denom)]


def _u_powers(point: dict, r: int, first=0) -> dict:
    powers = {j: point[f"u{j}"] for j in range(1, r + 1)}
    powers[1] = _gq(powers[1]) + first
    return powers


RATIONAL_PARAMS = ("a", "b", "alpha", "lambda")


def generating_series(family: str, p: dict, point: dict, order: int):
    """(convention, series) of ``family`` with parameters ``p`` at ``point``.

    ``p`` holds every CLI parameter of the family, as the strings given
    on the command line; ``point`` maps variable names to Fractions.
    """
    x, y = point.get("x"), point.get("y")
    q = {k: v if k == "fkind" else
         Fraction(v) if k in RATIONAL_PARAMS else int(v)
         for k, v in p.items()}

    def exp_xt():
        return s_exp_monomial(x, 1, order)

    def cos_yt():
        return s_cos(y, order)

    def kernel_power():
        base = kernel(q["fkind"], q["a"], order)
        base[0] = base[0] + q["b"]
        return s_pow(base, q["z"])

    def complex_kernel(conj: bool):
        w = GQ(x, -y if conj else y)
        return s_exp_poly(_u_powers(point, q["r"], w), order)

    if family == "chebyshev-t":
        return "ogf", s_mul(s_t_poly([1, -x], order),
                            s_inv(s_t_poly([1, -2 * x, 1], order)))
    if family == "dickson-d":
        return "ogf", s_mul(s_t_poly([2, -x], order),
                            s_inv(s_t_poly([1, -x, q["alpha"]], order)))
    if family == "dickson-e":
        return "ogf", s_inv(s_t_poly([1, -x, q["alpha"]], order))
    if family == "apostol-bernoulli":
        return "egf", s_mul(s_pow(kernel("bernoulli", q["lambda"], order),
                                  q["k"]), exp_xt())
    if family == "apostol-euler":
        return "egf", s_mul(s_pow(kernel("euler", q["lambda"], order),
                                  q["k"]), exp_xt())
    if family == "gould-hopper":
        return "egf", s_exp_poly({1: x, q["j"]: y}, order)
    if family == "hermite-gen":
        return "egf", s_exp_poly(_u_powers(point, q["r"]), order)
    if family in ("bc", "ec"):
        kind = "bernoulli" if family == "bc" else "euler"
        factor = s_pow(kernel(kind, q["a"], order), q["z"])
        return "egf", s_mul(s_mul(factor, exp_xt()), cos_yt())
    if family == "g-kernel":
        return "egf", complex_kernel(False)
    if family in ("m2", "m3"):
        sign = 1 if family == "m2" else -1
        both = [a + b * sign for a, b in zip(complex_kernel(False),
                                             complex_kernel(True))]
        return "egf", s_mul(kernel_power(), both)
    if family == "bform":
        cos_side = s_mul(s_exp_poly(_u_powers(point, q["r"], x), order),
                         cos_yt())
        return "egf", [2 * c for c in s_mul(kernel_power(), cos_side)]
    if family == "p3":
        # P3 is the real part of the Hermite-weighted w-power with y
        # replaced by s, so at a point with s^2 = 1 - x^2 it equals the
        # real part of the coefficients of exp((x + i s) t + sum u_j t^j).
        w = GQ(x, point["s"])
        full = s_exp_poly(_u_powers(point, q["r"], w), order)
        return "egf", [GQ(c.re) for c in full]
    raise KeyError(f"no reference series for family {family!r}")


def expected_values(family: str, p: dict, point: dict, lo: int, hi: int):
    """The values rows lo..hi of ``family`` must take at ``point``."""
    convention, ser = generating_series(family, p, point, hi)
    scale = factorial if convention == "egf" else (lambda n: 1)
    return convention, [ser[n] * scale(n) for n in range(lo, hi + 1)]


# ----------------------------------------------------------------------
# reading polygen's output back


def _coef(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den) if den else 1


def eval_terms(names: list, terms: list, point: dict) -> Fraction:
    """Sum of coef * prod(point[v]^e) over (exps, (num, den)) terms.

    Each term becomes one integer over a shared power of the point's
    denominators; the sum is grouped by coefficient denominator, so a
    large output costs integer products, not one Fraction per term.
    """
    values = [Fraction(point[v]) for v in names]
    top = [max((e[i] for e, _ in terms), default=0)
           for i in range(len(names))]
    tables = []
    for v, d in zip(values, top):
        tables.append([v.numerator ** e * v.denominator ** (d - e)
                       for e in range(d + 1)])
    by_den: dict[int, int] = {}
    for exps, (num, den) in terms:
        prod = num
        for table, e in zip(tables, exps):
            prod *= table[e]
        by_den[den] = by_den.get(den, 0) + prod
    scale = 1
    for v, d in zip(values, top):
        scale *= v.denominator ** d
    return sum((Fraction(n, den) for den, n in by_den.items()),
               Fraction(0)) / scale


def eval_json_poly(data: dict, point: dict) -> Fraction:
    names = list(data["vars"])
    terms = []
    for term in data["terms"]:
        exps = term["exp"]
        if len(exps) != len(names):
            raise ValueError("exponent vector length mismatch")
        terms.append((exps, _coef(term["coef"])))
    return eval_terms(names, terms, point)


def eval_json_value(data: dict, point: dict) -> GQ:
    """A MultiPoly or CPoly JSON value at ``point``."""
    if "re" in data:
        return GQ(eval_json_poly(data["re"], point),
                  eval_json_poly(data["im"], point))
    return GQ(eval_json_poly(data, point))


_FACTOR = re.compile(r"([a-z][a-z0-9]*)(?:\^(\d+))?$")
_NUMBER = re.compile(r"\d+(?:/\d+)?$")


def parse_text_poly(text: str) -> tuple[list, list]:
    """Canonical text such as ``3/4*x^2*u1 - y + 2`` as (names, terms)."""
    tokens = text.split(" ")
    if len(tokens) % 2 == 0:
        raise ValueError(f"malformed polynomial text {text!r}")
    signed = []
    first = tokens[0]
    signed.append((-1, first[1:]) if first.startswith("-") else (1, first))
    for op, body in zip(tokens[1::2], tokens[2::2]):
        if op not in "+-" or len(op) != 1:
            raise ValueError(f"bad operator {op!r} in {text!r}")
        signed.append((1 if op == "+" else -1, body))
    names: list[str] = []
    raw = []
    for sign, body in signed:
        factors = body.split("*")
        num, den = 1, 1
        if _NUMBER.match(factors[0]):
            num, den = _coef(factors.pop(0))
        exps = {}
        for factor in factors:
            m = _FACTOR.match(factor)
            if not m:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            name = m.group(1)
            if name not in names:
                names.append(name)
            exps[name] = int(m.group(2) or 1)
        raw.append((exps, (sign * num, den)))
    terms = [([exps.get(n, 0) for n in names], coef) for exps, coef in raw]
    return names, terms


def eval_text_value(text: str, point: dict) -> GQ:
    """A value printed by polygen's text format at ``point``."""
    if text.startswith("(") and text.endswith(")") and ") + i*(" in text:
        re_text, im_text = text[1:-1].split(") + i*(")
        return GQ(eval_terms(*parse_text_poly(re_text), point),
                  eval_terms(*parse_text_poly(im_text), point))
    if text == "0":
        return GQ()
    return GQ(eval_terms(*parse_text_poly(text), point))
