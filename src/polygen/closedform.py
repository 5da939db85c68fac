"""Explicit (non-series) constructions of every polynomial family.

Each function here builds a polynomial directly from a finite sum,
recurrence, or convolution — never by extracting coefficients of the
corresponding generating function — so the two routes can be compared
against each other as independent oracles.  The scalar numbers of
the kernel power (b + f(t,a))**z come from the same binomial
recurrences and convolutions as the Apostol-type numbers
(:func:`kernel_power_numbers`), not from the kernel's series.

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

from .errors import RangeError, SingularityError, UsageError
from .exact import CPoly, MultiPoly, Rational, U, X, binom

_ONE = MultiPoly.const(1)
_ZERO = MultiPoly.zero()


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise RangeError(f"degree index must be a non-negative integer, "
                         f"got {n!r}")


def _check_r(r: int) -> None:
    if not isinstance(r, int) or not 1 <= r <= 8:
        raise RangeError(f"order parameter r must lie in 1..8, got {r!r}")


# ----------------------------------------------------------------------
# shared sums


def _cs_parity(kind: str) -> int:
    """0 for the cosine side "C", 1 for the sine side "S"."""
    if kind not in ("C", "S"):
        raise UsageError(f"unknown kind {kind!r}; expected 'C' or 'S'")
    return ("C", "S").index(kind)


def y_parity_sum(n: int, parity: int, g) -> MultiPoly:
    """sum_j (-1)^j binom(n, 2j+p) y^(2j+p) g(n-2j-p) over the even
    (p = 0, cosine side) or odd (p = 1, sine side) powers of y."""
    acc = MultiPoly.zero()
    for j in range((n - parity) // 2 + 1):
        k = 2 * j + parity
        coef = Fraction((-1) ** j * binom(n, k))
        acc = acc + MultiPoly.monomial({"y": k}, coef) * g(n - k)
    return acc


def binomial_convolution(n: int, f, g, lo: int = 0,
                         zero: MultiPoly | CPoly = _ZERO):
    """sum_{j=lo..n} binom(n, j) f(j) g(n-j), with ``zero`` as the empty
    sum; a term whose weight g(n-j)*binom(n,j) vanishes is skipped."""
    acc = zero
    for j in range(lo, n + 1):
        weight = g(n - j) * binom(n, j)
        if weight:
            acc = acc + f(j) * weight
    return acc


# ----------------------------------------------------------------------
# cosine / sine polynomials and their Chebyshev relatives


@lru_cache(maxsize=None)
def cs_poly(kind: str, n: int) -> MultiPoly:
    """The degree-n coefficient polynomial of e^(x*t)cos(y*t) ("C")
    or e^(x*t)sin(y*t) ("S"), as an explicit alternating sum."""
    _check_n(n)
    return y_parity_sum(n, _cs_parity(kind),
                        lambda m: MultiPoly.monomial({"x": m}))


@lru_cache(maxsize=None)
def chebyshev(kind: str, n: int) -> MultiPoly:
    """First kind T_n ("T"), or second kind U_{n-1} ("U", n >= 1)."""
    _check_n(n)
    if kind not in ("T", "U"):
        raise UsageError(f"unknown kind {kind!r}; expected 'T' or 'U'")
    parity = ("T", "U").index(kind)
    if n < parity:
        raise RangeError("chebyshev('U', n) returns U_{n-1}; needs n >= 1")
    # sum_k binom(n, 2k+p) x^(n-2k-p) (x^2-1)^k, one power at a time
    acc = MultiPoly.zero()
    shifted = X * X - 1
    power = _ONE
    for k in range((n - parity) // 2 + 1):
        if k:
            power = power * shifted
        acc = acc + power * MultiPoly.monomial({"x": n - 2 * k - parity},
                                               binom(n, 2 * k + parity))
    return acc


@lru_cache(maxsize=None)
def dickson(kind: str, n: int, alpha: Rational) -> MultiPoly:
    """Dickson value of the first ("D") or second ("E") kind at degree n."""
    _check_n(n)
    alpha = Fraction(alpha)
    if kind == "D":
        prev, cur = MultiPoly.const(2), MultiPoly.variable("x")
    elif kind == "E":
        prev, cur = _ONE, MultiPoly.variable("x")
    else:
        raise UsageError(f"unknown kind {kind!r}; expected 'D' or 'E'")
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, X * cur - prev * alpha
    return cur


# ----------------------------------------------------------------------
# Hermite-type values


@lru_cache(maxsize=None)
def gould_hopper(n: int, j: int) -> MultiPoly:
    """Coefficient polynomial of e^(x*t + y*t^j), j >= 2:
    n! * sum_s x^(n-j*s) y^s / ((n-j*s)! s!)."""
    _check_n(n)
    if not isinstance(j, int) or j < 2:
        raise RangeError(f"exponent j must be an integer >= 2, got {j!r}")
    acc = MultiPoly.zero()
    for s in range(n // j + 1):
        coef = Fraction(math.factorial(n),
                        math.factorial(n - j * s) * math.factorial(s))
        acc = acc + MultiPoly.monomial({"x": n - j * s, "y": s}, coef)
    return acc


@lru_cache(maxsize=None)
def hermite_gen(n: int, r: int) -> MultiPoly:
    """The n-th Hermite-type value in the variables u1..ur.

    Defined by the recursion in r
        H_n(u1..ur) = n! * sum_j ur^j H_{n-rj}(u1..u_{r-1}) / (j! (n-rj)!)
    with base H_n(u1) = u1**n.
    """
    _check_n(n)
    _check_r(r)
    if r == 1:
        return MultiPoly.monomial({"u1": n})
    acc = MultiPoly.zero()
    for j in range(n // r + 1):
        coef = Fraction(math.factorial(n),
                        math.factorial(j) * math.factorial(n - r * j))
        acc = acc + (MultiPoly.monomial({f"u{r}": j}, coef)
                     * hermite_gen(n - r * j, r - 1))
    return acc


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
    _check_r(r)
    if part == "K":
        return CPoly(kpoly("k1", n, r), kpoly("k2", n, r))
    if part not in ("k1", "k2"):
        raise UsageError(f"unknown part {part!r}; expected 'k1', 'k2' or 'K'")
    return y_parity_sum(n, ("k1", "k2").index(part),
                        lambda m: _hermite_shift(m, r))


@lru_cache(maxsize=None)
def npoly(n: int, conjugate: bool = False) -> CPoly:
    """(x + i*y)**n (or its conjugate) by direct binomial expansion."""
    _check_n(n)
    re = MultiPoly.zero()
    im = MultiPoly.zero()
    for k in range(n + 1):
        mono = MultiPoly.monomial({"x": n - k, "y": k}, binom(n, k))
        sign = -1 if k % 4 in (2, 3) else 1
        if k % 2 == 0:
            re = re + mono * sign
        else:
            im = im + mono * sign
    if conjugate:
        im = -im
    return CPoly(re, im)


@lru_cache(maxsize=None)
def cs_r(kind: str, n: int, r: int) -> MultiPoly:
    """Coefficient values of e^(sum u_j t^j)cos(y*t) ("C") or the sine
    counterpart ("S"): alternating y-sums over Hermite-type values."""
    _check_n(n)
    _check_r(r)
    return y_parity_sum(n, _cs_parity(kind), lambda m: hermite_gen(m, r))


# ----------------------------------------------------------------------
# Apostol-type values


@lru_cache(maxsize=None)
def _base_bernoulli_numbers(lam: Fraction, count: int) -> tuple[Fraction, ...]:
    """Order-1 numbers of t/(lam*e^t - 1), indices 0..count."""
    out: list[Fraction] = []
    if lam == 1:
        for n in range(count + 1):
            if n == 0:
                out.append(Fraction(1))
                continue
            acc = Fraction(0)
            for k in range(n):
                acc += binom(n + 1, k) * out[k]
            out.append(-acc / (n + 1))
        return tuple(out)
    for n in range(count + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += binom(n, j) * out[j]
        target = Fraction(1 if n == 1 else 0)
        out.append((target - lam * acc) / (lam - 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _base_euler_numbers(lam: Fraction, count: int) -> tuple[Fraction, ...]:
    """Order-1 numbers of 2/(lam*e^t + 1), indices 0..count."""
    if lam == -1:
        raise SingularityError("Euler-type numbers are singular at lam = -1")
    out: list[Fraction] = []
    for n in range(count + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += binom(n, j) * out[j]
        target = Fraction(2 if n == 0 else 0)
        out.append((target - lam * acc) / (lam + 1))
    return tuple(out)


def _binomial_convolve(a: tuple[Fraction, ...],
                       b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return tuple(
        sum((binom(n, j) * a[j] * b[n - j] for j in range(n + 1)),
            Fraction(0))
        for n in range(len(a)))


def _binomial_inverse(a: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """g with sum_j binom(n,j) a_j g_{n-j} = [n == 0]; needs a_0 != 0."""
    if not a or a[0] == 0:
        raise SingularityError(
            "number sequence with zero leading term has no convolution "
            "inverse")
    inv0 = 1 / a[0]
    out: list[Fraction] = [inv0]
    for n in range(1, len(a)):
        acc = Fraction(0)
        for j in range(1, n + 1):
            acc += binom(n, j) * a[j] * out[n - j]
        out.append(-inv0 * acc)
    return tuple(out)


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
    if kind == "B":
        base = _base_bernoulli_numbers(lam, count)
    elif kind == "E":
        base = _base_euler_numbers(lam, count)
    else:
        raise UsageError(f"unknown kind {kind!r}; expected 'B' or 'E'")
    base = (base[0] + shift,) + base[1:]
    identity = tuple(Fraction(1 if n == 0 else 0) for n in range(count + 1))
    if k == 0:
        return identity
    result = identity
    for _ in range(abs(k)):
        result = _binomial_convolve(result, base)
    if k < 0:
        result = _binomial_inverse(result)
    return result


def kernel_power_numbers(z: int, fkind: str, a: Rational, b: Rational,
                         count: int) -> tuple[Fraction, ...]:
    """Scalar numbers of (b + f(t,a))**z, indices 0..count, for the
    kernel f = t/(a*e^t - 1) ("bernoulli") or 2/(a*e^t + 1) ("euler");
    z < 0 is singular when b + f(0, a) = 0."""
    _check_n(count)
    if fkind not in ("bernoulli", "euler"):
        raise UsageError(f"unknown kernel kind {fkind!r}; expected "
                         f"'bernoulli' or 'euler'")
    return _apostol_numbers(fkind[0].upper(), z, Fraction(a), count,
                            Fraction(b))


def _appell(nums: tuple[Fraction, ...], n: int) -> MultiPoly:
    """sum_j binom(n, j) nums_j x^(n-j), the degree-n x-polynomial of a
    number sequence."""
    acc = MultiPoly.zero()
    for j in range(n + 1):
        if nums[j]:
            acc = acc + MultiPoly.monomial({"x": n - j}, binom(n, j) * nums[j])
    return acc


def apostol(kind: str, n: int, k: int, lam: Rational) -> MultiPoly:
    """The order-k Apostol-type value at degree n, a polynomial in x.

    kind "B" uses the kernel t/(lam*e^t - 1) (negative k needs lam = 1,
    otherwise the kernel is not a unit), kind "E" uses 2/(lam*e^t + 1)
    (lam = -1 is a pole for every k).
    """
    _check_n(n)
    if not isinstance(k, int):
        raise UsageError(f"order k must be an integer, got {k!r}")
    lam = Fraction(lam)
    if kind == "E" and lam == -1:
        raise SingularityError("Euler-type values are singular at lam = -1")
    if kind == "B" and k < 0 and lam != 1:
        raise SingularityError(
            "negative-order Bernoulli-type values need lam = 1; the kernel "
            "t/(lam*e^t - 1) has no series inverse otherwise")
    return _appell(_apostol_numbers(kind, k, lam, n), n)


@lru_cache(maxsize=None)
def parametric_apostol(kind: str, n: int, z: int, a: Rational) -> MultiPoly:
    """Cosine/sine-weighted Apostol-type values in x and y.

    "BC"/"BS" weight order-z Bernoulli-type values, "EC"/"ES" Euler-type
    ones, by the alternating even/odd y-sums that the cosine and sine
    factors produce.
    """
    _check_n(n)
    a = Fraction(a)
    if kind not in ("BC", "BS", "EC", "ES"):
        raise UsageError(
            f"unknown kind {kind!r}; expected 'BC', 'BS', 'EC' or 'ES'")
    return y_parity_sum(n, _cs_parity(kind[1]),
                        lambda m: apostol(kind[0], m, z, a))


# ----------------------------------------------------------------------
# kernel-weighted complex values


@lru_cache(maxsize=None)
def _kernel_poly(m: int, z: int, fkind: str, a: Rational,
                 b: Rational) -> MultiPoly:
    """The degree-m x-polynomial of the kernel-power numbers."""
    return _appell(kernel_power_numbers(z, fkind, a, b, m), m)


_H_VARIANTS = {"h": lambda k: k, "h1": lambda k: k + k.conj(),
               "h2": lambda k: k - k.conj()}


@lru_cache(maxsize=None)
def hpoly(kind: str, n: int, z: int, r: int, fkind: str,
          a: Rational, b: Rational) -> CPoly:
    """Kernel-weighted complex kernel values.

    "h" convolves the scalar kernel numbers with the complex kernel
    values; "h1" uses value + conjugate, "h2" value - conjugate.
    """
    _check_n(n)
    _check_r(r)
    if kind not in _H_VARIANTS:
        raise UsageError(
            f"unknown kind {kind!r}; expected 'h', 'h1' or 'h2'")
    nums = kernel_power_numbers(z, fkind, a, b, n)
    return binomial_convolution(
        n, lambda j: _H_VARIANTS[kind](kpoly("K", j, r)),
        lambda m: nums[m], zero=CPoly.zero())


@lru_cache(maxsize=None)
def frak_h(kind: int, n: int, z: int, r: int, fkind: str,
           a: Rational, b: Rational) -> MultiPoly:
    """Kernel-weighted cosine (kind 1) or sine (kind 2) convolutions:
    2 * sum_j binom(n,j) kernel_poly(n-j) * cs_r value at j."""
    _check_n(n)
    _check_r(r)
    if kind not in (1, 2):
        raise UsageError(f"unknown kind {kind!r}; expected 1 or 2")
    cs_kind = "C" if kind == 1 else "S"
    return binomial_convolution(
        n, lambda j: cs_r(cs_kind, j, r),
        lambda m: _kernel_poly(m, z, fkind, a, b)) * 2


# ----------------------------------------------------------------------
# real/imaginary projections and the adjoined square root


@lru_cache(maxsize=None)
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
    _check_r(r)
    if kind == "P1":
        return _p12(n, r).re
    if kind == "P2":
        return _p12(n, r).im
    if kind == "P3":
        s = MultiPoly.variable("s")
        return _p12(n, r).re.substitute("y", s).reduce_s()
    if kind == "P4":
        if n < 1:
            raise RangeError("the sine-side projection needs n >= 1")
        specialized = _p12(n, r).im.substitute(
            "y", MultiPoly.variable("s")).reduce_s()
        return specialized.s_cofactor()
    raise UsageError(
        f"unknown kind {kind!r}; expected 'P1', 'P2', 'P3' or 'P4'")


# ----------------------------------------------------------------------
# classical number sequences


def bernoulli_number(n: int) -> Fraction:
    """The n-th coefficient number of t/(e^t - 1)."""
    _check_n(n)
    return _base_bernoulli_numbers(Fraction(1), n)[n]


def euler_number(n: int) -> Fraction:
    """The n-th coefficient number of 2/(e^t + 1)."""
    _check_n(n)
    return _base_euler_numbers(Fraction(1), n)[n]


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
