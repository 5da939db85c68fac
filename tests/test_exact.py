"""Ring behavior of the sparse polynomial core."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polygen.errors import RangeError, UsageError
from polygen.exact import (VARS, CPoly, MultiPoly, S, U, W, W_BAR, X, Y,
                           _unpack, binom, dot, falling, json_chunks)


def test_canonical_strings():
    assert str(X * X - Y * Y + U[1] * 2) == "x^2 - y^2 + 2*u2"
    assert str(X * Fraction(1, 2)) == "1/2*x"
    assert str(MultiPoly.zero()) == "0"
    assert str(MultiPoly.const(-3)) == "-3"
    assert str(X - 1) == "x - 1"
    assert str(-X) == "-x"
    assert str(X ** 3 * Fraction(-2, 3)) == "-2/3*x^3"


def test_cpoly_string():
    assert str(CPoly(X * X - Y * Y, X * Y * 2)) == "(x^2 - y^2) + i*(2*x*y)"
    assert str(CPoly.real(X)) == "x"
    assert str(CPoly.zero()) == "0"


def test_alphabet():
    assert VARS == ("x", "y", "s", "a", "b", "lambda", "alpha",
                    "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8")
    with pytest.raises(UsageError):
        MultiPoly.variable("t")


def test_arith_basics():
    assert (X + Y) ** 2 == X * X + X * Y * 2 + Y * Y
    assert (X - Y) * (X + Y) == X * X - Y * Y
    assert X * 0 == MultiPoly.zero()
    assert (X + 1) - (X + 1) == 0
    assert 2 - X == MultiPoly.const(2) - X
    assert X ** 0 == 1


def test_float_rejection():
    with pytest.raises(UsageError):
        MultiPoly.const(0.5)
    with pytest.raises(UsageError):
        MultiPoly.monomial({"x": 1}, 0.5)
    with pytest.raises(UsageError):
        X.eval({"x": 0.5})
    with pytest.raises(UsageError):
        X.substitute("x", 0.25)


def test_bool_rejection():
    for make in (lambda: MultiPoly.const(True),
                 lambda: MultiPoly.monomial({"x": 1}, False),
                 lambda: X * True, lambda: X + True, lambda: CPoly.real(True)):
        with pytest.raises(UsageError):
            make()
    # like a float, a bool compares unequal instead of raising
    assert MultiPoly.const(1) != True  # noqa: E712
    assert CPoly.real(X) != False  # noqa: E712


def test_exponent_guard():
    # exponents go up to 32767; a larger one is refused, never carried
    # into the next variable's field
    top = MultiPoly.monomial({"x": 32767})
    assert str(top) == "x^32767"
    assert str(top * Y) == "x^32767*y"
    for make in (lambda: MultiPoly.monomial({"x": 65536}),
                 lambda: MultiPoly.monomial({"x": 32768}),
                 lambda: MultiPoly.monomial({"x": 65535}) * X,
                 lambda: top * X,
                 lambda: X ** 32768,
                 lambda: (X * Y).substitute("y", top),
                 lambda: MultiPoly.monomial({"x": 32767, "s": 2},
                                            reduced_s=True)):
        with pytest.raises(RangeError):
            make()


def test_s_reduction():
    assert (S * S).reduce_s() == MultiPoly.const(1, True) - (
        X * X).reduce_s()
    # odd powers keep one s
    assert (S ** 3).reduce_s() == (S - S * X * X).reduce_s()
    # substitute then reduce: the first-kind Chebyshev bridge at n = 2
    assert (X * X - Y * Y).substitute("y", S).reduce_s() == (
        X * X * 2 - 1).reduce_s()


def test_reduced_flag_discipline():
    reduced = (S * S).reduce_s()
    with pytest.raises(UsageError):
        reduced + S
    with pytest.raises(UsageError):
        reduced * S
    # constants compare by value whatever their flag; others by flag too
    two = MultiPoly.const(2)
    assert MultiPoly.const(2, True) == two and len({2, two}) == 1
    assert len({MultiPoly.const(2, True), two}) == 1
    assert MultiPoly.zero(True) == MultiPoly.zero()
    assert X.reduce_s() != X and S.reduce_s() != S
    with pytest.raises(UsageError):
        MultiPoly.const(2, True) + two
    with pytest.raises(UsageError):
        reduced.partial("x")
    with pytest.raises(UsageError):
        reduced.partial("s")
    # y stays differentiable in the reduced ring
    assert (Y * Y).reduce_s().partial("y") == (Y * 2).reduce_s()


def test_s_cofactor():
    assert (S * X).s_cofactor() == X
    assert (S * (X + Y * 3)).s_cofactor() == X + Y * 3
    with pytest.raises(UsageError):
        (S + X).s_cofactor()
    with pytest.raises(UsageError):
        (S * S * X).s_cofactor()


def test_partial():
    assert (X * X * Y).partial("x") == X * Y * 2
    assert (X * X * Y).partial("y") == X * X
    assert MultiPoly.const(5).partial("x") == 0
    with pytest.raises(UsageError):
        X.partial("t")


def test_substitute_and_eval():
    p = X * X + Y
    assert p.substitute("x", X + 1) == X * X + X * 2 + Y + 1
    assert p.eval({"x": Fraction(1, 2), "y": 2}) == Fraction(9, 4)
    with pytest.raises(UsageError):
        p.eval({"x": 1})  # y missing
    assert p.substitute("y", 0) == X * X


def test_eval_ignores_extra_assignments():
    assert X.eval({"x": 2, "y": 7}) == 2


def test_cpoly_ops():
    assert W * W_BAR == CPoly.real(X * X + Y * Y)
    assert W.conj() == W_BAR
    assert W * W == CPoly(X * X - Y * Y, X * Y * 2)
    assert CPoly.real(X) + Y * CPoly(MultiPoly.zero(), MultiPoly.const(1)) \
        == W
    assert W.substitute("y", 0) == CPoly.real(X)
    assert (W + W.conj()) == CPoly.real(X * 2)
    assert CPoly.real(W) is W
    assert (X * X).substitute("x", W) == W * W


def test_cpoly_operand_gives_cpoly():
    # even when the value is real or zero, as the complex families'
    # {"re", "im"} output at order 0 needs
    zero = CPoly.zero()
    for got in (X + zero, zero + X, X - zero, zero - X, X * zero, zero * X,
                zero + 0, 0 - zero, zero * 2, zero ** 0, -zero, W * W_BAR,
                W - W, X.substitute("x", W), W.substitute("y", 0),
                dot([(X, 1, 1)], zero), W.partial("y")):
        assert type(got) is CPoly, got


def test_cpoly_refuses_bad_parts():
    for re, im, message in ((W, X, "MultiPoly values"),
                            (X, 1, "MultiPoly values"),
                            (X, Y.reduce_s(), "s-reduction flag")):
        with pytest.raises(UsageError, match=message):
            CPoly(re, im)


def test_keys_outside_the_alphabet_are_refused():
    # the bit above the alphabet marks a factor i; a real polynomial
    # must not carry it, nor a key that packs no exponent vector
    for key in (-1, 1 << (16 * len(VARS)), 1 << (16 * len(VARS) + 1)):
        with pytest.raises(UsageError):
            MultiPoly({key: 1})
    with pytest.raises(UsageError):
        W.eval({"x": 1, "y": 2})
    assert CPoly.real(X).eval({"x": 3}) == 3


def test_i_and_s_rewrites_in_one_normalisation():
    # (s + ix)(s - ix) = s^2 + x^2 = 1 in the reduced ring
    product = CPoly(S, X).reduce_s() * CPoly(S, -X).reduce_s()
    assert product == 1 and hash(product) == hash(1)
    assert type(product) is CPoly and product.reduced_s


def test_cpoly_parts_keep_their_own_lowest_terms():
    z = CPoly(X * Fraction(1, 2), Y * Fraction(1, 3))
    assert str(z) == "(1/2*x) + i*(1/3*y)"
    data = z.to_json_dict()
    assert [t["coef"] for t in data["re"]["terms"]] == ["1/2"]
    assert [t["coef"] for t in data["im"]["terms"]] == ["1/3"]
    assert data["re"]["vars"] == ["x"] and data["im"]["vars"] == ["y"]


def test_json_round_trip():
    p = X * X - Y * Y + U[1] * 2
    data = p.to_json_dict()
    assert data["vars"] == ["x", "y", "u2"]
    assert data["terms"] == [{"exp": [2, 0, 0], "coef": "1"},
                             {"exp": [0, 2, 0], "coef": "-1"},
                             {"exp": [0, 0, 1], "coef": "2"}]
    assert "reduced_s" not in data
    assert (S * X).reduce_s().to_json_dict()["reduced_s"] is True
    c = CPoly(X, Y * -1)
    assert c.to_json_dict() == {"re": X.to_json_dict(),
                                "im": (Y * -1).to_json_dict()}


def test_binom_falling():
    assert [binom(4, k) for k in range(5)] == [1, 4, 6, 4, 1]
    assert binom(4, 5) == 0 and binom(4, -1) == 0
    assert falling(5, 2) == 20
    assert falling(2, 3) == 0
    assert falling(7, 0) == 1


# ----------------------------------------------------------------------
# properties

_coefs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_names = st.sampled_from(["x", "y", "s", "u1", "u2"])
_exps = st.dictionaries(_names, st.integers(min_value=0, max_value=3),
                        max_size=3)


@st.composite
def polys(draw):
    p = MultiPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        p = p + MultiPoly.monomial(draw(_exps), draw(_coefs))
    return p


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + MultiPoly.zero() == p
    assert p * MultiPoly.const(1) == p


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_reduction_is_ring_homomorphism(p, q):
    assert (p * q).reduce_s() == p.reduce_s() * q.reduce_s()
    assert (p + q).reduce_s() == p.reduce_s() + q.reduce_s()


@given(polys())
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(p):
    assert p.partial("x").partial("y") == p.partial("y").partial("x")


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_string_is_injective(p, q):
    if str(p) == str(q):
        assert p == q


_points = st.fixed_dictionaries({name: _coefs
                                 for name in ("x", "y", "s", "u1", "u2")})
_scalars = st.one_of(st.just(Fraction(0)), _coefs)


def _eval_json(data, point):
    # the written dict read as a sum of monomials, with no reader
    total = Fraction(0)
    for term in data["terms"]:
        value = Fraction(term["coef"])
        for name, e in zip(data["vars"], term["exp"]):
            value *= point[name] ** e
        total += value
    return total


@given(polys(), _points, st.booleans())
@settings(max_examples=60, deadline=None)
def test_json_dict_evaluates_like_eval(p, point, reduced):
    if reduced:
        p = p.reduce_s()
    assert _eval_json(p.to_json_dict(), point) == p.eval(point)


@given(polys(), polys(), _names, _scalars, _points, st.booleans())
@settings(max_examples=80, deadline=None)
def test_scalar_substitute_matches_eval(p, q, var, c, point, reduced):
    if reduced:
        p, q = p.reduce_s(), q.reduce_s()
    got = p.substitute(var, c)
    assert got.reduced_s is reduced
    assert got == p.substitute(var, MultiPoly.const(c, reduced))
    assert got.eval(point) == p.eval({**point, var: c})
    # a complex value, through the general path as well (c = 0 included)
    z = CPoly(p, q)
    got = z.substitute(var, c)
    assert type(got) is CPoly and got.reduced_s is reduced
    assert got == z.substitute(var, MultiPoly.const(c, reduced))
    _assert_canonical(got)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_cpoly_times_real_poly(p, q, r):
    z = CPoly(p, q)
    assert z * r == z * CPoly.real(r) == CPoly(p * r, q * r)
    assert r * z == CPoly.real(r) * z
    # MultiPoly.__mul__ takes the complex factor itself
    assert type(r.__mul__(z)) is CPoly


@given(polys(), st.one_of(st.just(Fraction(1)), _scalars), st.booleans())
@settings(max_examples=80, deadline=None)
def test_multiply_by_constant(p, c, reduced):
    # one returns the polynomial itself, and a constant polynomial on
    # either side scales like its value
    if reduced:
        p = p.reduce_s()
    assert p * 1 is p and 1 * p is p
    const, x = MultiPoly.const(c, reduced), MultiPoly.variable("x", reduced)
    product = p * c
    assert p * const == product == const * p
    assert product == p * (x + c) - p * x  # through the general product
    assert product.reduced_s is reduced
    with pytest.raises(UsageError):
        p * MultiPoly.const(c, not reduced)
    with pytest.raises(UsageError):
        MultiPoly.const(c, not reduced) * p


@given(polys(), polys(), _names, _scalars, st.booleans())
@settings(max_examples=60, deadline=None)
def test_no_zero_coefficient_stored(p, q, var, c, reduced):
    if reduced:
        p, q = p.reduce_s(), q.reduce_s()
    for result in (p + q, p - q, p + -p, p * q, p * (q - q),
                   p.substitute(var, c), p - p.substitute(var, 0)):
        coefs = [t["coef"] for t in result.to_json_dict()["terms"]]
        assert "0" not in coefs


@st.composite
def _two_forms(draw):
    """Two representations of one value: MultiPoly, CPoly.real, and for a
    constant also both s-reduction flags, its Fraction and, when
    integral, its int."""
    p = draw(st.one_of(polys(), _coefs.map(MultiPoly.const)))
    if draw(st.booleans()):
        p = p.reduce_s()
    forms = [p, CPoly.real(p)]
    c = p.const_value()
    if c is not None:
        flipped = MultiPoly.const(c, not p.reduced_s)
        forms += [c, flipped, CPoly.real(flipped)]
        if c.denominator == 1:
            forms.append(int(c))
    return [draw(st.sampled_from(forms)) for _ in range(2)]


@given(_two_forms(), _two_forms())
@settings(max_examples=80, deadline=None)
def test_equal_values_hash_equal(first, second):
    values = first + second
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert len({first[0], first[1]}) == 1


def _parts(value, reduced):
    """The real and imaginary parts of a CPoly result, checked for type,
    flag and canonical form, and for JSON naming only the alphabet."""
    assert type(value) is CPoly and value.reduced_s is reduced
    _assert_canonical(value)
    data = value.to_json_dict()
    assert set(data["re"]["vars"]) | set(data["im"]["vars"]) <= set(VARS)
    return value.re, value.im


@given(polys(), polys(), polys(), polys(), _names, _scalars, st.booleans())
@settings(max_examples=80, deadline=None)
def test_cpoly_matches_reference_from_real_parts(a, b, c, d, var, k,
                                                 reduced):
    z = CPoly(a, b)
    if reduced:
        a, b, c, d = (p.reduce_s() for p in (a, b, c, d))
        z = z.reduce_s()
    assert _parts(z, reduced) == (a, b)
    w = CPoly(c, d)
    for got, expected in (
            (z + w, (a + c, b + d)),
            (z - w, (a - c, b - d)),
            # (a + ib)(c + id) = (ac - bd) + i(ad + bc)
            (z * w, (a * c - b * d, a * d + b * c)),
            (z * c, (a * c, b * c)), (c * z, (a * c, b * c)),
            (z + c, (a + c, b)), (c - z, (c - a, -b)),
            (z * k, (a * k, b * k)), (k * z, (a * k, b * k)),
            (z + k, (a + k, b)), (k - z, (k - a, -b)),
            (z.conj(), (a, -b)), (-z, (-a, -b)),
            (z.substitute(var, c),
             (a.substitute(var, c), b.substitute(var, c))),
            (z.substitute(var, k),
             (a.substitute(var, k), b.substitute(var, k)))):
        assert _parts(got, reduced) == expected


def test_cpoly_times_poly_checks_reduced_flag():
    reduced = CPoly(X, Y).reduce_s()
    for z, p in ((reduced, S), (W, (S * S).reduce_s())):
        with pytest.raises(UsageError):
            z * p
        with pytest.raises(UsageError):
            p * z


@given(polys(), polys(), _names, _points, st.booleans())
@settings(max_examples=80, deadline=None)
def test_poly_substitute_matches_eval(p, q, var, point, reduced):
    if reduced:
        # the rewrite s^2 -> 1 - x^2 keeps values only where it holds,
        # and substituting for x or s would leave that circle
        p, q = p.reduce_s(), q.reduce_s()
        point = {**point, "x": Fraction(3, 5), "s": Fraction(4, 5)}
        if var in ("x", "s"):
            var = "y"
    got = p.substitute(var, q)
    assert got.reduced_s is reduced
    assert got.eval(point) == p.eval({**point, var: q.eval(point)})
    if reduced:
        # the result is in reduced form: rewriting again changes nothing
        assert got.terms == MultiPoly(got.terms, reduced_s=True).terms


def _expected_json(p):
    # the documented shape, read from the term dict and the alphabet
    terms = p.terms
    exps = {key: _unpack(key) for key in terms}
    used = [i for i, name in enumerate(VARS)
            if any(e[i] for e in exps.values())]
    order = sorted(terms, key=lambda k: (sum(exps[k]), exps[k]),
                   reverse=True)
    data = {"vars": [VARS[i] for i in used],
            "terms": [{"exp": [exps[k][i] for i in used],
                       "coef": str(terms[k])} for k in order]}
    if p.reduced_s:
        data["reduced_s"] = True
    return data


def _expected_text(data):
    # the text of a reference dict of _expected_json, term by term
    out = ""
    for term in data["terms"]:
        coef = Fraction(term["coef"])
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(data["vars"], term["exp"]) if e)
        mag = str(abs(coef))
        body = mono if mono and mag == "1" else (
            f"{mag}*{mono}" if mono else mag)
        if out:
            out += (" - " if coef < 0 else " + ") + body
        else:
            out = ("-" if coef < 0 else "") + body
    return out or "0"


# exponents wide and narrow in one value, over the whole alphabet, so
# that the sort fields of differently wide variables meet
_wide_exps = st.dictionaries(
    st.sampled_from(VARS), st.one_of(st.integers(min_value=0, max_value=3),
                                     st.integers(min_value=0, max_value=300)),
    max_size=4)


@st.composite
def _wide_polys(draw):
    p = MultiPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        p = p + MultiPoly.monomial(draw(_wide_exps), draw(_coefs))
    return p


_json_polys = st.one_of(_wide_polys(), _coefs.map(MultiPoly.const),
                        st.just(MultiPoly.zero()))


@given(_json_polys, _json_polys, st.booleans())
@example(X * Fraction(1, 3) + Y ** 17, Y * Fraction(5, 4) - X ** 2, False)
@example(MultiPoly.zero(), S ** 3 * Fraction(-1, 6), True)
@settings(max_examples=80, deadline=None)
def test_json_writer_matches_json_dumps(p, q, reduced):
    # json_chunks, and str as well, write the reference's terms, sorted
    # by (sum(exps), exps) descending; a CPoly's parts have their own
    # denominators, and an all-real CPoly a zero part
    if reduced:
        p, q = p.reduce_s(), q.reduce_s()
    zero = MultiPoly.zero(reduced)
    for value, parts in ((p, [p]), (CPoly(p, q), [p, q]),
                         (CPoly.real(p), [p, zero]),
                         (CPoly(zero, q), [zero, q])):
        data = [_expected_json(part) for part in parts]
        expected = (data[0] if len(data) == 1
                    else {"re": data[0], "im": data[1]})
        assert "".join(json_chunks(value)) == json.dumps(expected, indent=2)
        re, im = ([_expected_text(d) for d in data] + ["0"])[:2]
        assert str(value) == (re if im == "0" else f"({re}) + i*({im})")
    # nested, with arrays read from generators, and empty containers
    doc = {"n": 3, "flag": True, "none": None, "params": {},
           "empty": iter(()),
           "rows": iter([{"value": p}, {"value": CPoly(p, q)}])}
    expected = {"n": 3, "flag": True, "none": None, "params": {},
                "empty": [],
                "rows": [{"value": _expected_json(p)},
                         {"value": {"re": _expected_json(p),
                                    "im": _expected_json(q)}}]}
    assert "".join(json_chunks(doc)) == json.dumps(expected, indent=2)


def test_json_pieces_are_bounded():
    # 5,000 terms with 40-digit coefficients: over 600 KB of JSON, but
    # written in pieces of a few hundred terms
    terms = {i + (j << 16): Fraction(10 ** 40 + i * j, 7 + i)
             for i in range(100) for j in range(50)}
    p = MultiPoly(terms)
    for value in (p, CPoly(p, -p), [p, {"v": p}]):
        chunks = list(json_chunks(value))
        assert len("".join(chunks)) > 600_000
        assert max(map(len, chunks)) <= 100_000
    assert len(json.loads("".join(json_chunks(p)))["terms"]) == 5000


# ----------------------------------------------------------------------
# the integer-numerator representation, against plain Fraction dicts

_S_SHIFT = 16 * VARS.index("s")
_X_SHIFT = 16 * VARS.index("x")


def _ref_add(*dicts):
    out = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _ref_scale(d, c):
    return _ref_add({k: v * c for k, v in d.items()})


def _ref_reduce(d):
    # s^(2h+r) -> (1 - x^2)^h * s^r, term by term
    out = []
    for k, v in d.items():
        e = (k >> _S_SHIFT) & 0xFFFF
        half = e // 2
        base = k - 2 * half * (1 << _S_SHIFT)
        out.append({base + (2 * i << _X_SHIFT): v * binom(half, i) * (-1) ** i
                    for i in range(half + 1)})
    return _ref_add(*out)


def _ref_mul(a, b, reduced):
    out = _ref_add(*({k1 + k2: v1 * v2} for k1, v1 in a.items()
                     for k2, v2 in b.items()))
    return _ref_reduce(out) if reduced else out


def _ref_pow(d, n, reduced):
    out = {0: Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, d, reduced)
    return out


def _ref_substitute(d, var, rep, reduced):
    # rep is a Fraction dict, or a scalar as the constant dict {0: c}
    shift = 16 * VARS.index(var)
    parts = []
    for k, v in d.items():
        e = (k >> shift) & 0xFFFF
        rest = k - (e << shift)
        parts.append({rest + k2: v * v2
                      for k2, v2 in _ref_pow(rep, e, reduced).items()})
    out = _ref_add(*parts)
    return _ref_reduce(out) if reduced else out


def _ref_partial(d, var):
    shift = 16 * VARS.index(var)
    return _ref_add({k - (1 << shift): v * ((k >> shift) & 0xFFFF)
                     for k, v in d.items() if (k >> shift) & 0xFFFF})


def _assert_canonical(p):
    assert p.den > 0
    assert all(type(v) is int and v for v in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    if not p.num:
        assert p.den == 1


@given(polys(), polys(), _scalars, st.sampled_from(["x", "y", "u1"]),
       st.integers(min_value=0, max_value=3), st.booleans())
@example(S * Y * Fraction(2, 3) + X, S + Fraction(1, 2), Fraction(-3, 4), "y",
         3, True)
@settings(max_examples=80, deadline=None)
def test_representation_is_canonical(p, q, c, var, n, reduced):
    if reduced:
        p, q = p.reduce_s(), q.reduce_s()
        if var == "x":
            var = "y"
    pt, qt = p.terms, q.terms
    cases = [
        (p + q, _ref_add(pt, qt)),
        (p - q, _ref_add(pt, _ref_scale(qt, -1))),
        (p - p, {}),
        (-p, _ref_scale(pt, -1)),
        (p * q, _ref_mul(pt, qt, reduced)),
        (p * c, _ref_scale(pt, c)),
        (c * q, _ref_scale(qt, c)),
        (p ** n, _ref_pow(pt, n, reduced)),
        (p.partial(var), _ref_partial(pt, var)),
        (p.substitute(var, c), _ref_substitute(pt, var, {0: c}, reduced)),
        (p.substitute(var, q), _ref_substitute(pt, var, qt, reduced)),
        (p.reduce_s(), _ref_reduce(pt)),
    ]
    # an exact s-multiple: the s-free part of p times s
    free = p.substitute("s", 0)
    s_mult = free * MultiPoly.variable("s", reduced)
    cases.append((s_mult, _ref_mul(free.terms, {1 << _S_SHIFT: 1}, reduced)))
    cases.append((s_mult.s_cofactor(), free.terms))
    for got, expected in cases:
        _assert_canonical(got)
        assert got.terms == expected


_ints = st.one_of(st.integers(min_value=-10 ** 4, max_value=10 ** 4),
                 st.sampled_from([math.factorial(n) for n in range(13)]))


@given(polys(), polys(), _ints, st.booleans())
@example(X * Fraction(1, 6) + Fraction(1, 4), Y * Fraction(5, 12), -24, True)
@settings(max_examples=80, deadline=None)
def test_int_scaling_matches_reference(p, q, k, reduced):
    # a scalar int keeps the denominator but its gcd with k
    if reduced:
        p, q = p.reduce_s(), q.reduce_s()
    for value in (p, CPoly(p, q)):
        for got in (value * k, k * value, value * Fraction(k)):
            assert type(got) is type(value) and got.reduced_s is reduced
            _assert_canonical(got)
            assert got.terms == _ref_scale(value.terms, k)


# ----------------------------------------------------------------------
# dot: a whole sum of products at once, against the operator fold

_consts = _coefs.map(MultiPoly.const)
_cpolys = st.builds(CPoly, st.one_of(polys(), _consts),
                    st.one_of(polys(), _consts))
_factors = st.one_of(polys(), _consts, _cpolys)
_weights = st.one_of(_scalars, st.integers(min_value=-3, max_value=3))


def _times(a, b):
    """a*b, with a complex product written out from real products, so
    that the reference does not go through dot."""
    if isinstance(b, (int, Fraction)) or CPoly not in (type(a), type(b)):
        return a * b
    a, b = CPoly.real(a), CPoly.real(b)
    return CPoly(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def _fold_by_operators(triples, zero):
    acc = zero
    for a, b, c in triples:
        term = _times(a, b) * c
        acc = term if acc is None else acc + term
    return acc


def _assert_dot_canonical(value):
    for part in ((value.re, value.im) if isinstance(value, CPoly)
                 else (value,)):
        _assert_canonical(part)


@given(st.lists(st.tuples(_factors, st.one_of(_factors, _weights),
                          _weights), max_size=5),
       st.sampled_from(["none", "real", "complex"]), st.booleans())
@example([(X + Y, 0, 1), (MultiPoly.const(0), W, 2), (S * S, W, 0)],
         "none", True)
@example([(X + Y, 1, 1), (X, MultiPoly.const(1), 1), (Y, X, 1)], "real",
         False)
@settings(max_examples=150, deadline=None)
def test_dot_matches_operator_fold(triples, zero_kind, reduced):
    def flag(v):
        return v.reduce_s() if reduced and hasattr(v, "reduce_s") else v

    triples = [(flag(a), flag(b), c) for a, b, c in triples]
    zero = {"none": None, "real": MultiPoly.zero(reduced),
            "complex": CPoly.zero(reduced)}[zero_kind]
    got = dot(triples, zero)
    expected = _fold_by_operators(triples, zero)
    if expected is None:  # no flag to take: the unreduced zero
        expected, reduced = MultiPoly.zero(), False
    _assert_dot_canonical(got)
    assert got == expected
    assert got.reduced_s == reduced
    complex_factor = any(isinstance(v, CPoly) for t in triples for v in t)
    assert isinstance(got, CPoly) == (complex_factor
                                      or isinstance(zero, CPoly))


def test_dot_empty_sum_is_zero():
    assert dot([]) == 0 and type(dot([])) is MultiPoly
    assert type(dot([], CPoly.zero())) is CPoly
    assert dot((), MultiPoly.zero(True)).reduced_s


def test_dot_refuses_mixed_flags_like_the_operators():
    zero_r = MultiPoly.zero(True)
    for triples, zero in (([(X, S.reduce_s(), 1)], None),
                          ([(MultiPoly.zero(), zero_r, 1)], None),
                          ([(X, 2, 0), (zero_r, 1, 1)], None),
                          ([(X, 1, 1)], zero_r),
                          ([(W, zero_r, 1)], None),
                          ([(CPoly.zero(True), X, 1)], CPoly.zero())):
        with pytest.raises(UsageError):
            dot(triples, zero)
        with pytest.raises(UsageError):
            _fold_by_operators(triples, zero)


def test_dot_exponent_guard():
    top = MultiPoly.monomial({"x": 32767})
    # refused even when the offending products cancel
    for triples in ([(top, X, 1)], [(top, X, 1), (X, top, -1)],
                    [(CPoly(Y, top), W, 1)]):
        with pytest.raises(RangeError):
            dot(triples)
        with pytest.raises(RangeError):
            _fold_by_operators(triples, None)
    assert dot([(top, Y, 1), (top, 2, -1)]) == top * Y - top * 2
