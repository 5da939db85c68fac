"""Mechanical verification of the identity catalog.

Every check compares two *independently computed* sides of one
identity — typically a coefficient extracted from a generating
function against an explicit closed form, or two closed forms built
from different primitives — with exact equality and no tolerance.
A check sweeps a bounded grid of indices and parameters; the first
mismatch is reported verbatim as a counterexample.

Three checks in the ``discrepancies`` suite are deliberate negative
pins: they confirm that a known-broken variant of a formula really
does disagree with the oracle while the corrected variant agrees.
Each is a generator of comparisons like every other check; its
variant leg is a comparison row marked as sides that must differ, so
the check *passes* only while the disagreement is present.

Checks that share a shape (kernel series, the kernel-family grid, the
Bernoulli/Euler reductions, the number-weighted convolutions) are rows
of one parameterised generator each, registered once per check id.

Each section of this file is one suite and ``all`` is every section in
order; ``run_suite`` returns reports in that fixed catalog order so
output is deterministic byte for byte.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator

from . import closedform as cf
from . import genfun as gf
from . import series
from .errors import UsageError
from .exact import (CPoly, MultiPoly, Rational, W, W_BAR, X, Y, binom,
                    dot, falling)

# Hard engine limits for check bounds; exact arithmetic stays fast
# only inside this envelope, and every stated guarantee lives within it.
N_LIMIT = 20
R_LIMIT = 4
Z_LIMIT = 3

_S = MultiPoly.variable("s")

_DEFAULT_RATIONALS = (Fraction(1), Fraction(2), Fraction(1, 2),
                      Fraction(-1, 2))


class Bounds(gf.Record):
    """Sweep bounds for one check: index caps and parameter samples."""

    n_max: int = 10
    r_max: int = 3
    z_values: tuple[int, ...] = (1, 2, 3)
    a_values: tuple[Rational, ...] = _DEFAULT_RATIONALS
    b_values: tuple[Rational, ...] = _DEFAULT_RATIONALS

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "r_max": self.r_max,
            "z_values": list(self.z_values),
            "a_values": [str(v) for v in self.a_values],
            "b_values": [str(v) for v in self.b_values],
        }


class CheckReport(gf.Record):
    """Outcome of one check over one set of bounds."""

    check_id: str
    bounds: Bounds
    passed: bool
    counterexample: dict | None

    def to_json_dict(self) -> dict:
        return {
            "id": self.check_id,
            "bounds": self.bounds.to_json_dict(),
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


CHECKS: dict[str, Callable[[Bounds], CheckReport]] = {}
DEFAULTS: dict[str, Bounds] = {}
#: suite name -> check ids in catalog order; a check registered while
#: a catalog section is open joins that section's suite
SUITES: dict[str, tuple[str, ...]] = {}
_section: str | None = None

#: (inputs, lhs, rhs), whose sides must agree, or (inputs, lhs, rhs,
#: True), whose sides must differ
Comparison = tuple


def _inputs_json(inputs: dict) -> dict:
    out = {}
    for key, value in inputs.items():
        out[key] = value if isinstance(value, (int, str)) else str(value)
    return out


def _register(check_id: str, default: Bounds):
    """Register a generator of comparisons; the check fails at the
    first one that breaks its expectation and reports it verbatim."""
    def deco(gen: Callable[[Bounds], Iterator[Comparison]]):
        def runner(bounds: Bounds) -> CheckReport:
            for inputs, lhs, rhs, *must_differ in gen(bounds):
                if (lhs == rhs) == any(must_differ):
                    counterexample = {"inputs": _inputs_json(inputs),
                                      "lhs": str(lhs), "rhs": str(rhs)}
                    return CheckReport(check_id, bounds, False,
                                       counterexample)
            return CheckReport(check_id, bounds, True, None)
        runner.__name__ = f"check_{check_id}"
        CHECKS[check_id] = runner
        DEFAULTS[check_id] = default
        if _section is not None:
            SUITES[_section] = SUITES.get(_section, ()) + (check_id,)
        return runner
    return deco


def _zero_u(p, r: int):
    """Substitute u1 .. ur -> 0 (works for both polynomial kinds)."""
    for j in range(1, r + 1):
        p = p.substitute(f"u{j}", 0)
    return p


def _kernel_grid(bounds: Bounds) -> Iterator[tuple[str, Fraction]]:
    for fkind in ("bernoulli", "euler"):
        for a in bounds.a_values:
            a = Fraction(a)
            if fkind == "euler" and a == -1:
                continue  # genuine pole of the Euler-type kernel
            yield fkind, a


def _hermite(r: int) -> Callable[[int], MultiPoly]:
    """m -> the Hermite-type value H_m(u1..ur)."""
    return lambda m: cf.hermite_gen(m, r)


# ======================================================================
# the complex kernel and its real/imaginary split
_section = "section2"


def _kernel_series_check(check_id: str, descriptor, part: str) -> None:
    """Register: series coefficients of the kernel ``descriptor(r)``
    against the closed form ``kpoly(part, n, r)``."""
    @_register(check_id, Bounds(n_max=10, r_max=3))
    def gen(bounds: Bounds) -> Iterator[Comparison]:
        for r in range(1, bounds.r_max + 1):
            built = gf.generate(descriptor(r), bounds.n_max)
            for n in range(bounds.n_max + 1):
                yield ({"n": n, "r": r}, built.coefficient(n),
                       cf.kpoly(part, n, r))


def _kernel_convolution_check(check_id: str, part: str, cs_kind: str) -> None:
    """Register: ``kpoly(part, n, r)`` against the binomial convolution of
    plain cosine ("C") or sine ("S") values with unshifted Hermite-type
    values."""
    @_register(check_id, Bounds(n_max=10, r_max=3))
    def gen(bounds: Bounds) -> Iterator[Comparison]:
        for r in range(1, bounds.r_max + 1):
            for n in range(bounds.n_max + 1):
                rhs = cf.binomial_convolution(
                    n, lambda j: cf.cs_poly(cs_kind, j), _hermite(r))
                yield {"n": n, "r": r}, cf.kpoly(part, n, r), rhs


# lemma1/lemma2: the cosine/sine kernel series match the alternating
# closed-form sums over shifted Hermite-type values; k_decomposition: the
# complex kernel series splits exactly into those two as real and
# imaginary parts.
_kernel_series_check("lemma1", gf.K1Kernel, "k1")
_kernel_series_check("lemma2", gf.K2Kernel, "k2")
_kernel_series_check("k_decomposition", gf.GKernel, "K")
_kernel_convolution_check("k1hc", "k1", "C")
_kernel_convolution_check("k2hs", "k2", "S")


@_register("c1_linear_comb", Bounds(n_max=10, r_max=3))
def _c1_linear_comb(bounds: Bounds) -> Iterator[Comparison]:
    """The complex kernel value as two different binomial convolutions:
    against powers of w, and against cosine+i*sine values."""
    for r in range(1, bounds.r_max + 1):
        for n in range(bounds.n_max + 1):
            kval = cf.kpoly("K", n, r)
            rhs_w = cf.binomial_convolution(n, cf.npoly, _hermite(r))
            rhs_cs = cf.binomial_convolution(
                n, lambda j: CPoly(cf.cs_poly("C", j), cf.cs_poly("S", j)),
                _hermite(r))
            yield ({"n": n, "r": r, "route": "w-powers"}, kval, rhs_w)
            yield ({"n": n, "r": r, "route": "cos-sin"}, kval, rhs_cs)


# ======================================================================
# kernel-weighted families
_section = "section3"


def _m_inputs(n: int, r: int, z: int, fkind: str, a, b) -> dict:
    return {"n": n, "r": r, "z": z, "fkind": fkind, "a": a, "b": b}


# The six kernel-family checks sweep a full r x z x kernel x a x b grid,
# so their default parameter samples are thinner than the global ones.
_GRID_BOUNDS = Bounds(n_max=10, r_max=2,
                      a_values=(Fraction(1), Fraction(2), Fraction(-1, 2)),
                      b_values=(Fraction(1), Fraction(1, 2)))


def _grid_check(check_id: str, descriptor, closed, u0=None) -> None:
    """Register: over the r x z x kernel x a x b grid, the series of
    ``descriptor(z, fkind, a, b, r)`` against ``closed(n, z, r, fkind,
    a, b)``.

    With ``u0``, each closed value at u = 0 is also compared with
    sum_j binom(n,j) u0(j) c_(n-j), where c are the scalar coefficients
    of the kernel power (b + f(t,a))^z.  That sum does not depend on r,
    so it is built once per (n, z, fkind, a, b).
    """
    @_register(check_id, _GRID_BOUNDS)
    def gen(bounds: Bounds) -> Iterator[Comparison]:
        plain: dict[tuple, object] = {}
        for r, z, (fkind, a), b in itertools.product(
                range(1, bounds.r_max + 1), bounds.z_values,
                _kernel_grid(bounds), bounds.b_values):
            b = Fraction(b)
            built = gf.generate(descriptor(z, fkind, a, b, r), bounds.n_max)
            for n in range(bounds.n_max + 1):
                inputs = _m_inputs(n, r, z, fkind, a, b)
                value = closed(n, z, r, fkind, a, b)
                yield inputs, built.coefficient(n), value
                if u0 is None:
                    continue
                key = (n, z, fkind, a, b)
                if key not in plain:
                    scalars = gf.build(gf.R1(z, fkind, a, b), bounds.n_max)
                    plain[key] = cf.binomial_convolution(
                        n, u0, scalars.coefficient)
                yield dict(inputs, route="u=0"), _zero_u(value, r), plain[key]


# nk1/nk2/nk3: series route of the value+conjugate, value-minus-conjugate
# and plain kernel-weighted families against their closed convolutions,
# plus the all-zero-u specialization against plain powers of w.
_grid_check("nk1", gf.M2, lambda *p: cf.hpoly("h1", *p),
            lambda j: cf.npoly(j) + cf.npoly(j, True))
_grid_check("nk2", gf.M3, lambda *p: cf.hpoly("h2", *p),
            lambda j: cf.npoly(j) - cf.npoly(j, True))
_grid_check("nk3", gf.M1, lambda *p: cf.hpoly("h", *p),
            lambda j: cf.npoly(j))
# The plain family is the average of the conjugate-sum and
# conjugate-difference families (series vs closed forms).
_grid_check("h_average", gf.M1,
            lambda *p: (cf.hpoly("h1", *p) + cf.hpoly("h2", *p))
            * Fraction(1, 2))
# Doubled cosine-side (thm_2_3) and sine-side (thm_2_4) kernel families:
# series route against the closed convolution with scalar kernel
# polynomials.
_grid_check("thm_2_3", gf.Bform, lambda *p: cf.frak_h(1, *p))
_grid_check("thm_2_4", gf.B1form, lambda *p: cf.frak_h(2, *p))


def _reduction_inputs(n: int, z: int, a) -> dict:
    return {"n": n, "z": z, "a": a, "r": 2}


def _reduction_checks(name: str, kind: str, form, cs_kind: str) -> None:
    """Register ``name``_reduction and ``name``_double_sum.

    With all u variables zero and b = 0, the doubled kernel family
    ``form`` (Bform: cosine side, B1form: sine side) with Bernoulli-type
    kernel parameter a (kind "B") or -a (kind "E") collapses to a
    weighted Apostol-type value of that kind.  The reduction compares the
    closed form with the cosine ("C") or sine ("S") weighted value; the
    double sum compares the series route with that value written out as
    the explicit alternating y-sum.
    """
    sign = 1 if kind == "B" else -1
    frak_kind = 1 if form is gf.Bform else 2
    parity = ("C", "S").index(cs_kind)

    def factor(z: int) -> Fraction:
        return Fraction(2) if kind == "B" else Fraction((-1) ** z,
                                                        2 ** (z - 1))

    def weighted(fn, fn_kind: str, m: int, z: int, a: Fraction) -> MultiPoly:
        """fn(fn_kind, m, z, a) for "B"; for "E" the falling-factorial
        multiple falling(m, z) * fn(fn_kind, m - z, z, a)."""
        if kind == "B":
            return fn(fn_kind, m, z, a)
        fall = falling(m, z)
        return fn(fn_kind, m - z, z, a) * fall if fall else MultiPoly.zero()

    @_register(f"{name}_reduction", Bounds(n_max=10))
    def reduction(bounds: Bounds) -> Iterator[Comparison]:
        for z in bounds.z_values:
            for a in bounds.a_values:
                a = Fraction(a)
                for n in range(bounds.n_max + 1):
                    lhs = _zero_u(cf.frak_h(frak_kind, n, z, 2, "bernoulli",
                                            sign * a, 0), 2)
                    rhs = weighted(cf.parametric_apostol, kind + cs_kind,
                                   n, z, a) * factor(z)
                    yield (_reduction_inputs(n, z, a), lhs, rhs)

    @_register(f"{name}_double_sum", Bounds(n_max=10))
    def double_sum(bounds: Bounds) -> Iterator[Comparison]:
        for z in bounds.z_values:
            for a in bounds.a_values:
                a = Fraction(a)
                built = gf.generate(
                    form(z, "bernoulli", sign * a, Fraction(0), 2),
                    bounds.n_max)
                for n in range(bounds.n_max + 1):
                    lhs = _zero_u(built.coefficient(n), 2)
                    rhs = cf.y_parity_sum(
                        n, parity,
                        lambda m: weighted(cf.apostol, kind, m, z, a)
                    ) * factor(z)
                    yield (_reduction_inputs(n, z, a), lhs, rhs)


_reduction_checks("bernl", "B", gf.Bform, "C")
_reduction_checks("euler", "E", gf.Bform, "C")
_reduction_checks("mbs", "B", gf.B1form, "S")
_reduction_checks("mes", "E", gf.B1form, "S")


# ======================================================================
# powers of w: hypergeometric forms and the inverse-order bridge
_section = "section4"


@_register("n_hypergeom_0f0", Bounds(n_max=12))
def _n_hypergeom_0f0(bounds: Bounds) -> Iterator[Comparison]:
    """exp(w*t) against the degenerate hypergeometric sum 0F0."""
    order = bounds.n_max
    built = gf.generate(gf.Nw(), order)
    hyp = gf.pfq((), (), W, 1, order)
    for n in range(order + 1):
        yield ({"n": n}, built.coefficient(n),
               hyp.coefficient(n) * Fraction(math.factorial(n)))


@_register("n_hypergeom_0f1", Bounds(n_max=12))
def _n_hypergeom_0f1(bounds: Bounds) -> Iterator[Comparison]:
    """exp(w*t) split into even and odd halves: two 0F1 sums at
    half-integer lower parameters, the odd one carrying i*y*t."""
    order = bounds.n_max
    lhs = gf.generate(gf.Nw(), order).with_convention("ogf")
    ex = series.exp(series.from_t_poly({1: X}, order, "egf"))
    ex = ex.with_convention("ogf")
    arg = Y * Y * Fraction(-1, 4)
    even = gf.pfq((), (Fraction(1, 2),), arg, 2, order)
    odd = gf.pfq((), (Fraction(3, 2),), arg, 2, order)
    iyt = series.from_t_poly({1: CPoly(MultiPoly.zero(), Y)}, order, "ogf")
    rhs = ex * (even + iyt * odd)
    for n in range(order + 1):
        yield ({"n": n}, lhs.raw(n), rhs.raw(n))


@_register("riemann_1y4a", Bounds(n_max=12))
def _riemann_1y4a(bounds: Bounds) -> Iterator[Comparison]:
    """Cleared form of the w-power recursion: (x^2+y^2) * w^(n-1)
    equals conj(w)*C_n + (y + i*x)*S_n."""
    norm = X * X + Y * Y
    for n in range(1, bounds.n_max + 1):
        lhs = cf.npoly(n - 1) * norm
        rhs = (W_BAR * cf.cs_poly("C", n)
               + CPoly(Y, X) * cf.cs_poly("S", n))
        yield ({"n": n}, lhs, rhs)


@_register("riemann_1y4b", Bounds(n_max=12))
def _riemann_1y4b(bounds: Bounds) -> Iterator[Comparison]:
    """Same cleared identity with the power of w written through the
    inverse-order Bernoulli-type value."""
    norm = X * X + Y * Y
    for n in range(1, bounds.n_max + 1):
        bval = cf.apostol("B", n - 1, -1, 1).eval({"x": 0})
        lhs = cf.npoly(n - 1) * norm * (Fraction(n) * bval)
        rhs = (W_BAR * cf.cs_poly("C", n)
               + CPoly(Y, X) * cf.cs_poly("S", n))
        yield ({"n": n}, lhs, rhs)


@_register("riemann_1y4c", Bounds(n_max=12))
def _riemann_1y4c(bounds: Bounds) -> Iterator[Comparison]:
    """w^(n-1) = n * w^(n-1) * B-value: the scalar bridge that pins the
    inverse-order value at 1/n."""
    for n in range(1, bounds.n_max + 1):
        bval = cf.apostol("B", n - 1, -1, 1).eval({"x": 0})
        yield ({"n": n}, cf.npoly(n - 1),
               cf.npoly(n - 1) * (Fraction(n) * bval))


@_register("stirling_remark", Bounds(n_max=10))
def _stirling_remark(bounds: Bounds) -> Iterator[Comparison]:
    """Inverse-order values at x = 0 against the Stirling-number ratio."""
    for k in range(1, 6):
        for n in range(bounds.n_max + 1):
            lhs = cf.apostol("B", n, -k, 1).eval({"x": 0})
            rhs = Fraction(cf.stirling2(n + k, k), binom(n + k, k))
            yield ({"n": n, "k": k}, lhs, rhs)


# ======================================================================
# projections onto the adjoined square root and Chebyshev forms
_section = "section5"


@_register("p1p2_r1a_l1a", Bounds(n_max=16, r_max=3))
def _p1p2_r1a_l1a(bounds: Bounds) -> Iterator[Comparison]:
    """Real and imaginary projections of the Hermite convolution with
    powers of w against cosine/sine convolutions."""
    for r in range(1, bounds.r_max + 1):
        for n in range(bounds.n_max + 1):
            rhs_c = cf.binomial_convolution(
                n, lambda j: cf.cs_poly("C", j), _hermite(r))
            rhs_s = cf.binomial_convolution(
                n, lambda j: cf.cs_poly("S", j), _hermite(r))
            yield ({"n": n, "r": r, "part": "real"},
                   cf.ppoly("P1", n, r), rhs_c)
            yield ({"n": n, "r": r, "part": "imag"},
                   cf.ppoly("P2", n, r), rhs_s)


@_register("p3p4_chebyshev", Bounds(n_max=16, r_max=3))
def _p3p4_chebyshev(bounds: Bounds) -> Iterator[Comparison]:
    """Specializing y to the adjoined root s turns the projections into
    Chebyshev convolutions, with the sine side an exact s-cofactor."""
    for r in range(1, bounds.r_max + 1):
        for n in range(bounds.n_max + 1):
            rhs_t = cf.binomial_convolution(
                n, lambda j: cf.chebyshev("T", j), _hermite(r))
            yield ({"n": n, "r": r, "part": "first-kind"},
                   cf.ppoly("P3", n, r), rhs_t.reduce_s())
            if n >= 1:
                rhs_u = cf.binomial_convolution(
                    n, lambda j: cf.chebyshev("U", j), _hermite(r), lo=1)
                yield ({"n": n, "r": r, "part": "second-kind"},
                       cf.ppoly("P4", n, r), rhs_u.reduce_s())


@_register("ct_su", Bounds(n_max=16))
def _ct_su(bounds: Bounds) -> Iterator[Comparison]:
    """Chebyshev values of both kinds recovered from the cosine/sine
    values at y = s, through two independent routes each."""
    for n in range(bounds.n_max + 1):
        t_val = cf.chebyshev("T", n).reduce_s()
        yield ({"n": n, "route": "cos-sum"},
               cf.cs_poly("C", n).substitute("y", _S).reduce_s(), t_val)
        yield ({"n": n, "route": "w-power-real"},
               cf.npoly(n).re.substitute("y", _S).reduce_s(), t_val)
        if n >= 1:
            u_target = (_S * cf.chebyshev("U", n)).reduce_s()
            yield ({"n": n, "route": "sin-sum"},
                   cf.cs_poly("S", n).substitute("y", _S).reduce_s(),
                   u_target)
            yield ({"n": n, "route": "w-power-imag"},
                   cf.npoly(n).im.substitute("y", _S).reduce_s(), u_target)


def _dickson_2x(kind: str, n: int) -> MultiPoly:
    """The Dickson value at alpha = 1 and doubled argument."""
    return cf.dickson(kind, n, 1).substitute("x", X * 2)


@_register("dickson_ct", Bounds(n_max=16))
def _dickson_ct(bounds: Bounds) -> Iterator[Comparison]:
    """First-kind Dickson values at doubled argument against twice the
    cosine value at y = s."""
    for n in range(bounds.n_max + 1):
        lhs = _dickson_2x("D", n).reduce_s()
        rhs = (cf.cs_poly("C", n).substitute("y", _S) * 2).reduce_s()
        yield ({"n": n}, lhs, rhs)


@_register("dickson_su", Bounds(n_max=16))
def _dickson_su(bounds: Bounds) -> Iterator[Comparison]:
    """Second-kind Dickson values at doubled argument against the sine
    value at y = s, in cleared (s-multiplied) form."""
    for n in range(1, bounds.n_max + 1):
        lhs = (_S * _dickson_2x("E", n - 1)).reduce_s()
        rhs = cf.cs_poly("S", n).substitute("y", _S).reduce_s()
        yield ({"n": n}, lhs, rhs)


# ======================================================================
# convolution and derivative identities
_section = "section6"


def _u_or_zero(u: series.TruncSeries, m: int) -> MultiPoly:
    """U_m read from the series ``u`` of second-kind values for m >= 0,
    zero for m = -1 (the natural empty convention)."""
    if m < 0:
        return MultiPoly.zero()
    return u.coefficient(m)


@_register("ut_convolution", Bounds(n_max=16))
def _ut_convolution(bounds: Bounds) -> Iterator[Comparison]:
    """Second-kind values from the series route against the scaled
    binomial self-convolution with first-kind values."""
    built = gf.generate(gf.ChebyshevU(), bounds.n_max)
    for n in range(1, bounds.n_max + 1):
        lhs = built.coefficient(n - 1)
        rhs = cf.binomial_convolution(
            n, lambda j: cf.chebyshev("U", j),
            lambda m: cf.chebyshev("T", m), lo=1) * Fraction(1, 2 ** (n - 1))
        yield ({"n": n}, lhs, rhs)


@_register("dickson_ut", Bounds(n_max=16))
def _dickson_ut(bounds: Bounds) -> Iterator[Comparison]:
    """Dickson analogue of ut_convolution at doubled argument."""
    built = gf.generate(gf.DicksonE(Fraction(1)), bounds.n_max)
    for n in range(1, bounds.n_max + 1):
        lhs = built.coefficient(n - 1).substitute("x", X * 2)
        rhs = cf.binomial_convolution(
            n, lambda j: _dickson_2x("E", j - 1),
            lambda m: _dickson_2x("D", m), lo=1) * Fraction(1, 2 ** n)
        yield ({"n": n}, lhs, rhs)


def _number_weighted_check(check_id: str, numbers, cos_side, sin_side,
                           cos_scale: Fraction = Fraction(1)) -> None:
    """Register: at y = s, the cosine/sine-weighted Apostol-type values
    of order 1 at a = 1 against binomial convolutions of number
    sequences with ``cos_side(j)`` (j >= 0, scaled by ``cos_scale``) and
    with ``sin_side(j)`` (j >= 1, times s).  ``numbers`` lists
    (kind, number sequence, part-label prefix) rows."""
    @_register(check_id, Bounds(n_max=16))
    def gen(bounds: Bounds) -> Iterator[Comparison]:
        for n in range(bounds.n_max + 1):
            for kind, number, label in numbers:
                lhs_c = cf.parametric_apostol(kind + "C", n, 1, 1).substitute(
                    "y", _S).reduce_s()
                rhs_c = cf.binomial_convolution(n, cos_side, number)
                yield ({"n": n, "part": label + "cos"},
                       lhs_c, (rhs_c * cos_scale).reduce_s())
                lhs_s = cf.parametric_apostol(kind + "S", n, 1, 1).substitute(
                    "y", _S).reduce_s()
                rhs_s = cf.binomial_convolution(n, sin_side, number, lo=1)
                yield ({"n": n, "part": label + "sin"},
                       lhs_s, (_S * rhs_s).reduce_s())


# Euler- and Bernoulli-weighted cosine/sine values at y = s against
# Chebyshev convolutions with the number sequences, and the Dickson forms
# of all four.
_number_weighted_check("ect_esu", (("E", cf.euler_number, ""),),
                       lambda j: cf.chebyshev("T", j),
                       lambda j: cf.chebyshev("U", j))
_number_weighted_check("bct_bsu", (("B", cf.bernoulli_number, ""),),
                       lambda j: cf.chebyshev("T", j),
                       lambda j: cf.chebyshev("U", j))
_number_weighted_check("dickson_ect_bct",
                       (("E", cf.euler_number, "E-"),
                        ("B", cf.bernoulli_number, "B-")),
                       lambda j: _dickson_2x("D", j),
                       lambda j: _dickson_2x("E", j - 1), Fraction(1, 2))


@_register("derivative_block", Bounds(n_max=16))
def _derivative_block(bounds: Bounds) -> Iterator[Comparison]:
    """The cosine/sine family is an Appell pair in x and rotates into
    itself under d/dy."""
    zero = MultiPoly.zero()
    for var in ("x", "y"):
        yield ({"n": 0, "d": var}, cf.cs_poly("C", 0).partial(var), zero)
        yield ({"n": 0, "d": var}, cf.cs_poly("S", 0).partial(var), zero)
    for n in range(1, bounds.n_max + 1):
        yield ({"n": n, "d": "x", "family": "C"},
               cf.cs_poly("C", n).partial("x"), cf.cs_poly("C", n - 1) * n)
        yield ({"n": n, "d": "x", "family": "S"},
               cf.cs_poly("S", n).partial("x"), cf.cs_poly("S", n - 1) * n)
        yield ({"n": n, "d": "y", "family": "C"},
               cf.cs_poly("C", n).partial("y"), cf.cs_poly("S", n - 1) * -n)
        yield ({"n": n, "d": "y", "family": "S"},
               cf.cs_poly("S", n).partial("y"), cf.cs_poly("C", n - 1) * n)


@_register("t_prime", Bounds(n_max=16))
def _t_prime(bounds: Bounds) -> Iterator[Comparison]:
    """d/dx of a first-kind value is n times the second-kind value."""
    yield ({"n": 0}, cf.chebyshev("T", 0).partial("x"), MultiPoly.zero())
    for n in range(1, bounds.n_max + 1):
        yield ({"n": n}, cf.chebyshev("T", n).partial("x"),
               cf.chebyshev("U", n) * n)


@_register("second_derivative", Bounds(n_max=16))
def _second_derivative(bounds: Bounds) -> Iterator[Comparison]:
    """Mixed second derivatives drop the degree by two with the
    rotation signs."""
    for n in range(2, bounds.n_max + 1):
        factor = n * (n - 1)
        yield ({"n": n, "family": "C"},
               cf.cs_poly("C", n).partial("x").partial("y"),
               cf.cs_poly("S", n - 2) * -factor)
        yield ({"n": n, "family": "S"},
               cf.cs_poly("S", n).partial("x").partial("y"),
               cf.cs_poly("C", n - 2) * factor)


@_register("recurrence_s1_s2", Bounds(n_max=16))
def _recurrence_s1_s2(bounds: Bounds) -> Iterator[Comparison]:
    """One-step raising recurrences of the cosine/sine pair."""
    for n in range(bounds.n_max):
        yield ({"n": n, "family": "C"}, cf.cs_poly("C", n + 1),
               X * cf.cs_poly("C", n) - Y * cf.cs_poly("S", n))
        yield ({"n": n, "family": "S"}, cf.cs_poly("S", n + 1),
               X * cf.cs_poly("S", n) + Y * cf.cs_poly("C", n))


@_register("tileu", Bounds(n_max=16))
def _tileu(bounds: Bounds) -> Iterator[Comparison]:
    """First-kind values from consecutive second-kind values."""
    u = gf.generate(gf.ChebyshevU(), bounds.n_max)
    for n in range(bounds.n_max + 1):
        rhs = _u_or_zero(u, n) - X * _u_or_zero(u, n - 1)
        yield ({"n": n}, cf.chebyshev("T", n), rhs)


@_register("tileu2", Bounds(n_max=16))
def _tileu2(bounds: Bounds) -> Iterator[Comparison]:
    """One-step raising of first-kind values with a second-kind tail."""
    one = MultiPoly.const(1)
    u = gf.generate(gf.ChebyshevU(), bounds.n_max)
    for n in range(bounds.n_max):
        rhs = X * cf.chebyshev("T", n) - (one - X * X) * _u_or_zero(u, n - 1)
        yield ({"n": n}, cf.chebyshev("T", n + 1), rhs)


# ======================================================================
# pinned discrepancies (negative checks)
_section = "discrepancies"


@_register("dickson_gf_discrepancy", Bounds(n_max=8))
def _dickson_gf_discrepancy(bounds: Bounds) -> Iterator[Comparison]:
    """The numerator variant (1-2xt) of the first-kind Dickson
    generating function disagrees with the doubled-argument Chebyshev
    bridge at n = 1, while the classical numerator (2-xt) satisfies it
    everywhere.  This check passes when the disagreement is present."""
    half_x = X * Fraction(1, 2)

    def target(n: int) -> MultiPoly:
        return cf.chebyshev("T", n).substitute("x", half_x) * 2

    corrected = gf.generate(gf.DicksonD(Fraction(1)), bounds.n_max)
    for n in range(bounds.n_max + 1):
        yield ({"n": n, "leg": "corrected"}, corrected.coefficient(n),
               target(n))
    # the variant is read at n = 1, so it reaches t^1 at n_max = 0 too
    order = max(bounds.n_max, 1)
    denom = series.from_t_poly({0: 1, 1: -X, 2: 1}, order, "ogf")
    printed = series.from_t_poly({0: 1, 1: X * -2}, order, "ogf") \
        * series.invert(denom)
    yield ({"n": 1, "leg": "variant-unexpectedly-agrees"},
           printed.coefficient(1), target(1), True)


@_register("gould_hopper_discrepancy", Bounds(n_max=4))
def _gould_hopper_discrepancy(bounds: Bounds) -> Iterator[Comparison]:
    """A summation variant that omits the n! scale and caps the sum at
    floor(n/2) misses the generating function already at n = j = 2; the
    corrected closed form agrees.  Passes when both facts hold."""
    for n, j in ((2, 2), (3, 3)):
        oracle = gf.generate(gf.GouldHopper(j), n).coefficient(n)
        yield ({"n": n, "j": j, "leg": "corrected"},
               cf.gould_hopper(n, j), oracle)
        variant = dot((MultiPoly.monomial({"x": n - j * s, "y": s}), 1,
                       Fraction(1, math.factorial(n - j * s)
                                * math.factorial(s)))
                      for s in range(n // 2 + 1) if n - j * s >= 0)
        yield ({"n": n, "j": j, "leg": "variant-unexpectedly-agrees"},
               variant, oracle, True)


@_register("dickson_relation_discrepancy", Bounds(n_max=8))
def _dickson_relation_discrepancy(bounds: Bounds) -> Iterator[Comparison]:
    """Under the classical normalization the two-term bridge between
    the Dickson kinds needs coefficients (2, -1), not (1, -2): the
    printed variant fails at n = 1 while the corrected bridge holds on
    the whole sweep.  Passes when both facts hold."""
    for alpha in bounds.a_values:
        alpha = Fraction(alpha)
        for n in range(bounds.n_max + 1):
            second_prev = (cf.dickson("E", n - 1, alpha) if n >= 1
                           else MultiPoly.zero())
            corrected = cf.dickson("E", n, alpha) * 2 - X * second_prev
            yield ({"n": n, "alpha": alpha, "leg": "corrected"},
                   cf.dickson("D", n, alpha), corrected)
        variant1 = cf.dickson("E", 1, alpha) - (X * 2) * cf.dickson(
            "E", 0, alpha)
        yield ({"n": 1, "alpha": alpha, "leg": "variant-unexpectedly-agrees"},
               cf.dickson("D", 1, alpha), variant1, True)


# ======================================================================
# suites and entry points


_section = None
SUITES["all"] = sum(SUITES.values(), ())


def check_ids() -> tuple[str, ...]:
    """All check identifiers in catalog order."""
    return SUITES["all"]


def default_bounds(check_id: str, n_max: int | None = None,
                   r_max: int | None = None) -> Bounds:
    """The catalog bounds of ``check_id``, with ``n_max`` / ``r_max``
    overriding those fields where given."""
    if check_id not in DEFAULTS:
        raise UsageError(f"unknown check id {check_id!r}")
    bounds = DEFAULTS[check_id]
    if n_max is not None:
        bounds = bounds.replace(n_max=n_max)
    if r_max is not None:
        bounds = bounds.replace(r_max=r_max)
    return bounds


def _validate_bounds(bounds: Bounds) -> None:
    if not isinstance(bounds.n_max, int) or not 0 <= bounds.n_max <= N_LIMIT:
        raise UsageError(f"n_max must lie in 0..{N_LIMIT}, "
                         f"got {bounds.n_max!r}")
    if not isinstance(bounds.r_max, int) or not 1 <= bounds.r_max <= R_LIMIT:
        raise UsageError(f"r_max must lie in 1..{R_LIMIT}, "
                         f"got {bounds.r_max!r}")
    if not bounds.z_values:
        raise UsageError("z_values must not be empty")
    for z in bounds.z_values:
        if not isinstance(z, int) or abs(z) > Z_LIMIT:
            raise UsageError(f"every z must be an integer with |z| <= "
                             f"{Z_LIMIT}, got {z!r}")
    if not bounds.a_values or not bounds.b_values:
        raise UsageError("parameter samples must not be empty")


def run_check(check_id: str, bounds: Bounds | None = None) -> CheckReport:
    """Run one check; ``bounds = None`` uses its catalog defaults.

    The check builds each series it compares through
    :func:`polygen.genfun.generate`, which keeps nothing; the parts
    those series are composed of live in :func:`polygen.genfun.build`'s
    cache only as long as the check, which is emptied when it returns
    or raises.  The ``closedform`` caches are kept for the process.
    """
    if check_id not in CHECKS:
        raise UsageError(f"unknown check id {check_id!r}")
    if bounds is None:
        bounds = DEFAULTS[check_id]
    _validate_bounds(bounds)
    try:
        return CHECKS[check_id](bounds)
    finally:
        gf.forget()


def run_suite(suite: str, n_max: int | None = None,
              r_max: int | None = None) -> list[CheckReport]:
    """Run a named suite in catalog order.

    ``n_max`` / ``r_max`` override those fields of every member
    check's default bounds; other fields keep their defaults.
    """
    if suite not in SUITES:
        raise UsageError(
            f"unknown suite {suite!r}; expected one of "
            f"{', '.join(sorted(SUITES))}")
    return [run_check(check_id, default_bounds(check_id, n_max, r_max))
            for check_id in SUITES[suite]]
