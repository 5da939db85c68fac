"""Check runner: registry shape, bounds validation, counterexample
reporting, and a fast pass over every suite at reduced depth."""

import json
from fractions import Fraction

import pytest

from polygen import closedform as cf
from polygen import genfun as gf
from polygen import identities as ids
from polygen.errors import UsageError
from polygen.exact import MultiPoly, X


def test_registry_is_complete():
    all_ids = ids.check_ids()
    assert len(all_ids) == len(set(all_ids))
    concat = []
    for suite in ("section2", "section3", "section4", "section5",
                  "section6", "discrepancies"):
        concat.extend(ids.SUITES[suite])
    assert list(ids.SUITES["all"]) == concat
    assert sorted(all_ids) == sorted(concat)
    for check_id in all_ids:
        assert check_id in ids.DEFAULTS


def test_default_bounds_lookup():
    b = ids.default_bounds("lemma1")
    assert b.n_max == 10 and b.r_max == 3
    with pytest.raises(UsageError):
        ids.default_bounds("no_such_check")


def test_bounds_validation():
    good = ids.Bounds()
    for bad in (
        good.replace(n_max=ids.N_LIMIT + 1),
        good.replace(n_max=-1),
        good.replace(r_max=0),
        good.replace(r_max=ids.R_LIMIT + 1),
        good.replace(z_values=(5,)),
        good.replace(z_values=()),
        good.replace(a_values=()),
    ):
        with pytest.raises(UsageError):
            ids.run_check("lemma1", bad)
    with pytest.raises(UsageError):
        ids.run_check("lemma1", good.replace(n_max="8"))


def test_unknown_check_and_suite():
    with pytest.raises(UsageError):
        ids.run_check("lemma9")
    with pytest.raises(UsageError):
        ids.run_suite("section7")


def test_report_json_shape():
    report = ids.run_check("lemma1",
                           ids.DEFAULTS["lemma1"].replace(n_max=3, r_max=1))
    assert report.passed and report.counterexample is None
    d = report.to_json_dict()
    assert d["id"] == "lemma1"
    assert d["passed"] is True
    assert d["counterexample"] is None
    assert d["bounds"]["n_max"] == 3
    # bounds must survive a JSON round trip
    json.dumps(d)


def test_counterexample_reporting():
    # register a deliberately failing check, then clean it back out
    @ids._register("always_wrong", ids.Bounds(n_max=1, r_max=1))
    def always_wrong(bounds):
        yield {"n": 1}, MultiPoly.const(1), MultiPoly.const(2)

    try:
        report = ids.run_check("always_wrong")
        assert not report.passed
        assert report.counterexample == {
            "inputs": {"n": 1}, "lhs": "1", "rhs": "2"}
    finally:
        del ids.CHECKS["always_wrong"]
        del ids.DEFAULTS["always_wrong"]
    assert "always_wrong" not in ids.check_ids()


_SHALLOW = ids.Bounds(n_max=3, r_max=1, z_values=(1,),
                      a_values=(Fraction(2),), b_values=(Fraction(1),))


def _mismatched_reports(register, check_ids):
    """Register a deliberately mismatched table row, run its checks at
    shallow bounds, then remove the row again."""
    try:
        register()
        return [ids.run_check(check_id, _SHALLOW) for check_id in check_ids]
    finally:
        for check_id in check_ids:
            ids.CHECKS.pop(check_id, None)
            ids.DEFAULTS.pop(check_id, None)


@pytest.mark.parametrize("register, check_ids, route", [
    (lambda: ids._kernel_series_check("bad_kernel", gf.K1Kernel, "k2"),
     ["bad_kernel"], None),
    (lambda: ids._kernel_convolution_check("bad_kconv", "k1", "S"),
     ["bad_kconv"], None),
    (lambda: ids._grid_check("bad_grid", gf.M2,
                             lambda *p: cf.hpoly("h2", *p)),
     ["bad_grid"], None),
    # right closed form, wrong sign on the conjugate of the u = 0 leg
    (lambda: ids._grid_check("bad_u0", gf.M2, lambda *p: cf.hpoly("h1", *p),
                             lambda j: cf.npoly(j) - cf.npoly(j, True)),
     ["bad_u0"], "u=0"),
    (lambda: ids._reduction_checks("bad", "B", gf.B1form, "C"),
     ["bad_reduction", "bad_double_sum"], None),
    (lambda: ids._number_weighted_check(
        "bad_numbers", (("E", cf.bernoulli_number, ""),),
        lambda j: cf.chebyshev("T", j), lambda j: cf.chebyshev("U", j)),
     ["bad_numbers"], None),
])
def test_mismatched_table_row_fails(register, check_ids, route):
    # a generator that yields nothing would pass vacuously
    for report in _mismatched_reports(register, check_ids):
        assert not report.passed
        ce = report.counterexample
        assert ce["lhs"] != ce["rhs"]
        assert ce["inputs"].get("route") == route
    for check_id in check_ids:
        assert check_id not in ids.CHECKS and check_id not in ids.DEFAULTS


def test_run_suite_shallow():
    reports = ids.run_suite("section2", n_max=4, r_max=1)
    assert [r.check_id for r in reports] == list(ids.SUITES["section2"])
    assert all(r.passed for r in reports)
    assert all(r.bounds.n_max == 4 for r in reports)


def test_run_check_empties_the_build_cache(monkeypatch):
    ids.run_check("lemma1", ids.DEFAULTS["lemma1"].replace(n_max=3))
    assert gf.build.cache_info().currsize == 0

    def raises(bounds):
        gf.build(gf.CosC(), bounds.n_max)
        assert gf.build.cache_info().currsize == 1
        raise ZeroDivisionError

    monkeypatch.setitem(ids.CHECKS, "lemma1", raises)
    with pytest.raises(ZeroDivisionError):
        ids.run_check("lemma1")
    assert gf.build.cache_info().currsize == 0


def test_build_caches_parts_not_the_series_a_check_reads(monkeypatch):
    # a grid or double-sum check reads each of its series once, so only
    # the parts those series are composed of pass through the cache
    calls = {"build": [], "generate": []}

    def spy(name):
        inner = getattr(gf, name)

        def recorded(family, order):
            calls[name].append(type(family))
            return inner(family, order)
        monkeypatch.setattr(gf, name, recorded)

    spy("build")
    spy("generate")
    for check_id in ("nk1", "nk3", "thm_2_3", "bernl_double_sum"):
        bounds = ids.DEFAULTS[check_id].replace(n_max=2, r_max=1)
        assert ids.run_check(check_id, bounds).passed, check_id
    cached = set(calls["build"])
    assert not cached & {gf.M1, gf.M2, gf.M3, gf.Bform, gf.B1form}
    assert {gf.R1, gf.GKernel, gf.M2.kernel, gf.K1Kernel} <= cached
    # nk1 reads G(w) + G(conj w) at every grid point and builds it once
    assert calls["build"].count(gf.M2.kernel) > 1
    assert calls["generate"].count(gf.M2.kernel) == 1


@pytest.mark.parametrize("check_id", [
    "lemma1", "lemma2", "k_decomposition", "k1hc", "k2hs",
    "c1_linear_comb", "thm_2_3", "bernl_reduction", "euler_reduction",
    "mbs_reduction", "mes_reduction", "n_hypergeom_0f0", "riemann_1y4a",
    "riemann_1y4b", "riemann_1y4c", "stirling_remark", "p1p2_r1a_l1a",
    "p3p4_chebyshev", "ct_su", "dickson_ct", "dickson_su",
    "ut_convolution", "dickson_ut", "ect_esu", "bct_bsu",
    "dickson_ect_bct", "derivative_block", "t_prime",
    "second_derivative", "recurrence_s1_s2", "tileu", "tileu2",
])
def test_check_passes_shallow(check_id):
    bounds = ids.DEFAULTS[check_id].replace(n_max=5, r_max=1)
    report = ids.run_check(check_id, bounds)
    assert report.passed, report.counterexample


@pytest.mark.parametrize("check_id", [
    "nk1", "nk2", "nk3", "h_average", "thm_2_4", "bernl_double_sum",
    "euler_double_sum", "mbs_double_sum", "mes_double_sum",
    "n_hypergeom_0f1",
])
def test_grid_check_passes_shallow(check_id):
    base = ids.DEFAULTS[check_id]
    bounds = base.replace(n_max=4, r_max=1,
                          z_values=(1, 2),
                          a_values=base.a_values[:2],
                          b_values=base.b_values[:1])
    report = ids.run_check(check_id, bounds)
    assert report.passed, report.counterexample


@pytest.mark.parametrize("check_id", [
    "dickson_gf_discrepancy", "gould_hopper_discrepancy",
    "dickson_relation_discrepancy",
])
def test_discrepancy_checks(check_id):
    # these pass exactly when the pinned disagreement is still present
    report = ids.run_check(check_id)
    assert report.passed, report.counterexample


def _dickson_bridge(first: int, second: int):
    """first * E_1 - second * x * E_0 at alpha = 1: the classical
    bridge to D_1 for (2, 1), the printed variant for (1, 2)."""
    return cf.dickson("E", 1, 1) * first - X * cf.dickson("E", 0, 1) * second


@pytest.mark.parametrize("corrected, variant, leg", [
    # the variant row carries the corrected bridge, so its sides agree
    ((2, 1), (2, 1), "variant-unexpectedly-agrees"),
    # the corrected row carries the printed variant, so its sides differ
    ((1, 2), (1, 2), "corrected"),
    # both rows as in the catalog: the pin holds
    ((2, 1), (1, 2), None),
])
def test_pinned_rows_on_the_shared_runner(corrected, variant, leg):
    d1 = cf.dickson("D", 1, 1)

    def register():
        @ids._register("pin", ids.Bounds(n_max=1))
        def pin(bounds):
            yield {"n": 1, "leg": "corrected"}, d1, _dickson_bridge(*corrected)
            yield ({"n": 1, "leg": "variant-unexpectedly-agrees"},
                   d1, _dickson_bridge(*variant), True)

    [report] = _mismatched_reports(register, ["pin"])
    assert report.passed == (leg is None)
    if leg is not None:
        ce = report.counterexample
        assert ce["inputs"]["leg"] == leg
        assert (ce["lhs"] == ce["rhs"]) == (leg != "corrected")
