"""Explicit (non-series) constructions of every polynomial family.

Each function here builds a polynomial directly from a finite sum,
recurrence, or convolution — never by extracting coefficients of the
corresponding generating function — so the two routes can be compared
against each other as independent oracles.  The scalar numbers of
the Apostol-type kernels and of the kernel power (b + f(t,a))**z
(:func:`kernel_power_numbers`) all come from one power recurrence on
egf numbers (J. C. P. Miller's), not from the kernel's series.

Conventions worth noting:

* ``chebyshev("U", n)`` returns the degree-(n-1) value U_{n-1}; the
  index matches the natural convolution formulas, and n = 0 (which
  would need U_{-1}) is a range error.
* ``dickson`` uses the classical normalization D_0 = 2, D_1 = x,
  E_0 = 1, E_1 = x with P_n = x*P_{n-1} - alpha*P_{n-2}.
* Hermite-type values H_n(u1..ur) use the recursion in r with
  H_n(u1) = u1**n at the base.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import (EULER_POLE, ZERO_CONSTANT_TERM, RangeError,
                     SingularityError, UsageError)
from .exact import (CPoly, MultiPoly, Rational, U, X, _ratio, binom,
                    check_r, dot)

_ONE = MultiPoly.const(1)
_ZERO = MultiPoly.zero()


def _exact(value: object) -> Fraction:
    """A ``Rational`` parameter as a Fraction; a float, bool, complex or
    str is refused with UsageError."""
    return Fraction(*_ratio(value))


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise RangeError(f"degree index must be a non-negative integer, "
                         f"got {n!r}")


# ----------------------------------------------------------------------
# shared sums


def _choice(kind, options: tuple, what: str = "kind") -> int:
    """The index of ``kind`` in ``options``, or a usage error naming
    them all."""
    if kind not in options:
        names = [repr(option) for option in options]
        raise UsageError(f"unknown {what} {kind!r}; expected "
                         f"{', '.join(names[:-1])} or {names[-1]}")
    return options.index(kind)


def y_parity_sum(n: int, parity: int, g) -> MultiPoly:
    """sum_j (-1)^j binom(n, 2j+p) y^(2j+p) g(n-2j-p) over the even
    (p = 0, cosine side) or odd (p = 1, sine side) powers of y."""
    return dot((MultiPoly.monomial({"y": k}), g(n - k),
                (-1) ** (k // 2) * binom(n, k))
               for k in range(parity, n + 1, 2))


def binomial_convolution(n: int, f, g, lo: int = 0,
                         zero: MultiPoly | CPoly = _ZERO):
    """sum_{j=lo..n} binom(n, j) f(j) g(n-j), with ``zero`` as the empty
    sum; a term whose weight g(n-j)*binom(n,j) vanishes is skipped."""
    return dot([(f(j), weight, binom(n, j)) for j in range(lo, n + 1)
                if (weight := g(n - j))], zero)


# ----------------------------------------------------------------------
# cosine / sine polynomials and their Chebyshev relatives


@lru_cache(maxsize=None)
def cs_poly(kind: str, n: int) -> MultiPoly:
    """The degree-n coefficient polynomial of e^(x*t)cos(y*t) ("C")
    or e^(x*t)sin(y*t) ("S"), as an explicit alternating sum."""
    _check_n(n)
    return y_parity_sum(n, _choice(kind, ("C", "S")),
                        lambda m: MultiPoly.monomial({"x": m}))


@lru_cache(maxsize=None)
def chebyshev(kind: str, n: int) -> MultiPoly:
    """First kind T_n ("T"), or second kind U_{n-1} ("U", n >= 1)."""
    _check_n(n)
    parity = _choice(kind, ("T", "U"))
    if n < parity:
        raise RangeError("chebyshev('U', n) returns U_{n-1}; needs n >= 1")
    # sum_k binom(n, 2k+p) x^(n-2k-p) (x^2-1)^k, each power from the last
    shifted = X * X - 1
    powers = [_ONE]
    for k in range(1, (n - parity) // 2 + 1):
        powers.append(powers[-1] * shifted)
    return dot((power, MultiPoly.monomial({"x": n - 2 * k - parity}),
                binom(n, 2 * k + parity)) for k, power in enumerate(powers))


def dickson(kind: str, n: int, alpha: Rational) -> MultiPoly:
    """Dickson value of the first ("D") or second ("E") kind at degree n."""
    # checked before the cache, where 0.5 would hit the entry of 1/2
    return _dickson(kind, n, _exact(alpha))


@lru_cache(maxsize=None)
def _dickson(kind: str, n: int, alpha: Fraction) -> MultiPoly:
    _check_n(n)
    prev, cur = (MultiPoly.const(2), _ONE)[_choice(kind, ("D", "E"))], X
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, X * cur - prev * alpha
    return cur


# ----------------------------------------------------------------------
# Hermite-type values


def gould_hopper(n: int, j: int) -> MultiPoly:
    """Coefficient polynomial of e^(x*t + y*t^j), j >= 2:
    n! * sum_s x^(n-j*s) y^s / ((n-j*s)! s!)."""
    _check_n(n)
    if not isinstance(j, int) or j < 2:
        raise RangeError(f"exponent j must be an integer >= 2, got {j!r}")
    return dot((MultiPoly.monomial({"x": n - j * s, "y": s}), 1,
                Fraction(math.factorial(n),
                         math.factorial(n - j * s) * math.factorial(s)))
               for s in range(n // j + 1))


@lru_cache(maxsize=None)
def hermite_gen(n: int, r: int) -> MultiPoly:
    """The n-th Hermite-type value in the variables u1..ur.

    Defined by the recursion in r
        H_n(u1..ur) = n! * sum_j ur^j H_{n-rj}(u1..u_{r-1}) / (j! (n-rj)!)
    with base H_n(u1) = u1**n.
    """
    _check_n(n)
    check_r(r)
    if r == 1:
        return MultiPoly.monomial({"u1": n})
    return dot((MultiPoly.monomial({f"u{r}": j}),
                hermite_gen(n - r * j, r - 1),
                Fraction(math.factorial(n),
                         math.factorial(j) * math.factorial(n - r * j)))
               for j in range(n // r + 1))


@lru_cache(maxsize=None)
def _hermite_shift(n: int, r: int) -> MultiPoly:
    """hermite_gen with u1 replaced by x + u1."""
    return hermite_gen(n, r).substitute("u1", X + U[0])


@lru_cache(maxsize=None)
def kpoly(part: str, n: int, r: int) -> MultiPoly | CPoly:
    """Coefficient values of the complex kernel e^(w*t + sum u_j t^j).

    "k1" gives the real part, "k2" the imaginary part (alternating
    sums over shifted Hermite values), "K" the full complex value.
    """
    _check_n(n)
    check_r(r)
    index = _choice(part, ("k1", "k2", "K"), "part")
    if index == 2:
        return CPoly(kpoly("k1", n, r), kpoly("k2", n, r))
    return y_parity_sum(n, index, lambda m: _hermite_shift(m, r))


@lru_cache(maxsize=None)
def npoly(n: int, conjugate: bool = False) -> CPoly:
    """(x + i*y)**n (or its conjugate) by direct binomial expansion."""
    _check_n(n)
    # i^k is real for even k and imaginary for odd k; (-i)^k = (-1)^k i^k
    return CPoly(*(dot((MultiPoly.monomial({"x": n - k, "y": k}), 1,
                        (-1) ** (k // 2 + p * conjugate) * binom(n, k))
                       for k in range(p, n + 1, 2)) for p in (0, 1)))


@lru_cache(maxsize=None)
def cs_r(kind: str, n: int, r: int) -> MultiPoly:
    """Coefficient values of e^(sum u_j t^j)cos(y*t) ("C") or the sine
    counterpart ("S"): alternating y-sums over Hermite-type values."""
    _check_n(n)
    check_r(r)
    return y_parity_sum(n, _choice(kind, ("C", "S")),
                        lambda m: hermite_gen(m, r))


# ----------------------------------------------------------------------
# Apostol-type values


def _egf_power(a: tuple[Fraction, ...], k: int) -> tuple[Fraction, ...]:
    """The numbers of A(t)**k for the egf numbers a of A(t), by Miller's
    power recurrence g_0 = a_0**k,
    n*a_0*g_n = sum_{j=1..n} binom(n,j)*((k+1)*j - n)*a_j*g_{n-j}."""
    count = len(a)
    if k == 0:
        return (Fraction(1),) + (Fraction(0),) * (count - 1)
    v = next((n for n, x in enumerate(a) if x), count)
    if v:
        if k < 0:
            raise SingularityError(ZERO_CONSTANT_TERM)
        # A = t^v * U with U a unit: U**k shifted back by t^(v*k)
        s = v * k
        if s >= count:
            return (Fraction(0),) * count
        unit = tuple(a[m + v] / math.perm(m + v, v)
                     for m in range(count - s))
        g = _egf_power(unit, k)
        return (Fraction(0),) * s + tuple(
            g[m] * math.perm(m + s, s) for m in range(count - s))
    out = [a[0] ** k]
    for n in range(1, count):
        acc = Fraction(0)
        for j in range(1, n + 1):
            if a[j]:
                acc += binom(n, j) * ((k + 1) * j - n) * a[j] * out[n - j]
        out.append(acc / (n * a[0]))
    return tuple(out)


@lru_cache(maxsize=None)
def _kernel_numbers(kind: str, lam: Fraction,
                    count: int) -> tuple[Fraction, ...]:
    """Order-1 numbers, indices 0..count, of t/(lam*e^t - 1) ("B") or
    2/(lam*e^t + 1) ("E"): the -1 power of the kernel's denominator."""
    if _choice(kind, ("B", "E")) == 0:
        if lam == 1:  # (e^t - 1)/t
            return _egf_power(
                tuple(Fraction(1, n + 1) for n in range(count + 1)), -1)
        # t times the inverse of lam*e^t - 1: entry n is n * inv[n-1]
        inv = _egf_power((lam - 1,) + (lam,) * (count - 1), -1)
        return (Fraction(0),) + tuple(n * inv[n - 1]
                                      for n in range(1, count + 1))
    if lam == -1:
        raise SingularityError(EULER_POLE)
    return _egf_power(((lam + 1) / 2,) + (lam / 2,) * count, -1)


def _apostol_numbers(kind: str, k: int, lam: Fraction, count: int,
                     shift: Fraction = Fraction(0)) -> tuple[Fraction, ...]:
    """Numbers of (shift + kernel)**k for the Bernoulli ("B") or Euler
    ("E") kernel, indices 0..count.  Entry n depends only on entries
    0..n, so every count is served as a prefix of one sequence built up
    to the next 2^m - 1, and a table over n builds no sequence per row."""
    return _apostol_sequence(kind, k, lam, shift,
                             (1 << count.bit_length()) - 1)[:count + 1]


@lru_cache(maxsize=None)
def _apostol_sequence(kind: str, k: int, lam: Fraction, shift: Fraction,
                      count: int) -> tuple[Fraction, ...]:
    base = _kernel_numbers(kind, lam, count)
    return _egf_power((base[0] + shift,) + base[1:], k)


def kernel_power_numbers(z: int, fkind: str, a: Rational, b: Rational,
                         count: int) -> tuple[Fraction, ...]:
    """Scalar numbers of (b + f(t,a))**z, indices 0..count, for the
    kernel f = t/(a*e^t - 1) ("bernoulli") or 2/(a*e^t + 1) ("euler");
    z < 0 is singular when b + f(0, a) = 0."""
    _check_n(count)
    kind = "BE"[_choice(fkind, ("bernoulli", "euler"), "kernel kind")]
    return _apostol_numbers(kind, z, _exact(a), count, _exact(b))


def _appell(nums: tuple[Fraction, ...], n: int) -> MultiPoly:
    """sum_j binom(n, j) nums_j x^(n-j), the degree-n x-polynomial of a
    number sequence."""
    return dot((MultiPoly.monomial({"x": n - j}), nums[j], binom(n, j))
               for j in range(n + 1) if nums[j])


def apostol(kind: str, n: int, k: int, lam: Rational) -> MultiPoly:
    """The order-k Apostol-type value at degree n, a polynomial in x.

    kind "B" uses the kernel t/(lam*e^t - 1) (negative k needs lam = 1,
    otherwise the kernel is not a unit), kind "E" uses 2/(lam*e^t + 1)
    (lam = -1 is a pole for every k).
    """
    _check_n(n)
    if not isinstance(k, int):
        raise UsageError(f"order k must be an integer, got {k!r}")
    return _appell(_apostol_numbers(kind, k, _exact(lam), n), n)


def parametric_apostol(kind: str, n: int, z: int, a: Rational) -> MultiPoly:
    """Cosine/sine-weighted Apostol-type values in x and y.

    "BC"/"BS" weight order-z Bernoulli-type values, "EC"/"ES" Euler-type
    ones, by the alternating even/odd y-sums that the cosine and sine
    factors produce.
    """
    # checked before the cache, where 0.5 would hit the entry of 1/2
    return _parametric_apostol(kind, n, z, _exact(a))


@lru_cache(maxsize=None)
def _parametric_apostol(kind: str, n: int, z: int, a: Fraction) -> MultiPoly:
    _check_n(n)
    parity = _choice(kind, ("BC", "BS", "EC", "ES")) % 2
    return y_parity_sum(n, parity, lambda m: apostol(kind[0], m, z, a))


# ----------------------------------------------------------------------
# kernel-weighted complex values


@lru_cache(maxsize=None)
def _kernel_poly(m: int, z: int, fkind: str, a: Rational,
                 b: Rational) -> MultiPoly:
    """The degree-m x-polynomial of the kernel-power numbers."""
    return _appell(kernel_power_numbers(z, fkind, a, b, m), m)


# value + conjugate is twice the real part and value - conjugate twice
# i times the imaginary part, so each term is a cached kernel part
_H_VARIANTS = {"h": lambda j, r: kpoly("K", j, r),
               "h1": lambda j, r: kpoly("k1", j, r),
               "h2": lambda j, r: CPoly(_ZERO, kpoly("k2", j, r))}


def hpoly(kind: str, n: int, z: int, r: int, fkind: str,
          a: Rational, b: Rational) -> CPoly:
    """Kernel-weighted complex kernel values.

    "h" convolves the scalar kernel numbers with the complex kernel
    values; "h1" uses value + conjugate, "h2" value - conjugate.
    """
    _check_n(n)
    check_r(r)
    _choice(kind, tuple(_H_VARIANTS))
    nums = kernel_power_numbers(z, fkind, a, b, n)
    scale = 1 if kind == "h" else 2
    return binomial_convolution(
        n, lambda j: _H_VARIANTS[kind](j, r), lambda m: nums[m] * scale,
        zero=CPoly.zero())


def frak_h(kind: int, n: int, z: int, r: int, fkind: str,
           a: Rational, b: Rational) -> MultiPoly:
    """Kernel-weighted cosine (kind 1) or sine (kind 2) convolutions:
    2 * sum_j binom(n,j) kernel_poly(n-j) * cs_r value at j."""
    _check_n(n)
    check_r(r)
    cs_kind = "CS"[_choice(kind, (1, 2))]
    a, b = _exact(a), _exact(b)  # before _kernel_poly's cache
    return binomial_convolution(
        n, lambda j: cs_r(cs_kind, j, r),
        lambda m: _kernel_poly(m, z, fkind, a, b)) * 2


# ----------------------------------------------------------------------
# real/imaginary projections and the adjoined square root


def _p12(n: int, r: int) -> CPoly:
    """sum_j binom(n,j) H_j(u1..ur) * (x+iy)**(n-j), the complex value
    whose real and imaginary parts the projections below expose."""
    return binomial_convolution(n, npoly, lambda m: hermite_gen(m, r))


def ppoly(kind: str, n: int, r: int) -> MultiPoly:
    """Projections of the complex Hermite convolution.

    "P1"/"P2": real/imaginary part.  "P3": P1 with y specialized to the
    adjoined square root s (reduced ring).  "P4": the exact cofactor q
    in P2|_{y -> s} = s*q (reduced ring; needs n >= 1).
    """
    _check_n(n)
    check_r(r)
    index = _choice(kind, ("P1", "P2", "P3", "P4"))
    if index == 3 and n < 1:
        raise RangeError("the sine-side projection needs n >= 1")
    value = _p12(n, r)
    part = value.im if index % 2 else value.re
    if index < 2:
        return part
    specialized = part.substitute("y", MultiPoly.variable("s")).reduce_s()
    return specialized if index == 2 else specialized.s_cofactor()


# ----------------------------------------------------------------------
# classical number sequences


def bernoulli_number(n: int) -> Fraction:
    """The n-th coefficient number of t/(e^t - 1)."""
    _check_n(n)
    return _apostol_numbers("B", 1, Fraction(1), n)[n]


def euler_number(n: int) -> Fraction:
    """The n-th coefficient number of 2/(e^t + 1)."""
    _check_n(n)
    return _apostol_numbers("E", 1, Fraction(1), n)[n]


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling set number: partitions of n labeled items into k blocks."""
    _check_n(n)
    if not isinstance(k, int) or k < 0 or k > n:
        raise RangeError(f"need 0 <= k <= n, got k = {k!r} with n = {n}")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    if k == n:
        return 1
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)
