"""Acceptance gate: ten timed criteria, every equality exact.

Each test prints a single PASS/FAIL line with its elapsed time and
budget.  Run with ``pytest tests/test_acceptance.py -v -s`` to watch
them scroll by.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from polygen import closedform as cf
from polygen import genfun as gf
from polygen import identities as ids
from polygen.errors import SingularityError
from polygen.exact import CPoly, MultiPoly, U, X, Y, binom


def _criterion(num: int, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"FAIL criterion {num} ({elapsed:.2f}s, budget {budget:.0f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        print(f"FAIL criterion {num} ({elapsed:.2f}s, budget {budget:.0f}s)"
              " [over budget]")
        pytest.fail(f"criterion {num} took {elapsed:.2f}s,"
                    f" budget {budget:.0f}s")
    print(f"PASS criterion {num} ({elapsed:.2f}s, budget {budget:.0f}s)")


def _assert_suite(reports) -> None:
    for report in reports:
        assert report.passed, (report.check_id, report.counterexample)


# -- criterion 1: frozen low-order kernel values --------------------------

_XP = X + U[0]
_ONE = MultiPoly.const(1)

_K1_VALUES = {
    (0, 2): _ONE,
    (1, 2): _XP,
    (2, 2): _XP * _XP + U[1] * 2 - Y * Y,
    (3, 2): _XP ** 3 + _XP * U[1] * 6 - _XP * Y * Y * 3,
    (0, 3): _ONE,
    (1, 3): _XP,
    (2, 3): _XP * _XP + U[1] * 2 - Y * Y,
    (3, 3): _XP ** 3 + _XP * U[1] * 6 - _XP * Y * Y * 3 + U[2] * 6,
}

_K2_VALUES = {
    (0, 2): MultiPoly.zero(),
    (1, 2): Y,
    (2, 2): Y * _XP * 2,
    (3, 2): Y * _XP * _XP * 3 + Y * U[1] * 6 - Y ** 3,
    (0, 3): MultiPoly.zero(),
    (1, 3): Y,
    (2, 3): Y * _XP * 2,
    (3, 3): Y * _XP * _XP * 3 + Y * U[1] * 6 - Y ** 3,
}


def test_criterion_01_kernel_value_tables():
    def body():
        for (n, r), want in _K1_VALUES.items():
            assert cf.kpoly("k1", n, r) == want, ("k1", n, r)
        for (n, r), want in _K2_VALUES.items():
            assert cf.kpoly("k2", n, r) == want, ("k2", n, r)
        for n in range(4):
            for r in (2, 3):
                want = CPoly(_K1_VALUES[n, r], _K2_VALUES[n, r])
                assert cf.kpoly("K", n, r) == want, ("K", n, r)

    _criterion(1, 1.0, body)


# -- criterion 2: closed form == series coefficient, every family ---------

_N_TOP = 12


def _pair(descriptor, closed) -> None:
    ser = gf.build(descriptor, _N_TOP)
    for n in range(_N_TOP + 1):
        assert ser.coefficient(n) == closed(n), (descriptor, n)


def test_criterion_02_route_equivalence():
    def body():
        _pair(gf.CosC(), lambda n: cf.cs_poly("C", n))
        _pair(gf.SinS(), lambda n: cf.cs_poly("S", n))
        _pair(gf.ChebyshevT(), lambda n: cf.chebyshev("T", n))
        _pair(gf.ChebyshevU(), lambda n: cf.chebyshev("U", n + 1))
        _pair(gf.Nw(), cf.npoly)
        for alpha in (Fraction(1), Fraction(2), Fraction(-1, 2)):
            _pair(gf.DicksonD(alpha),
                  lambda n, a=alpha: cf.dickson("D", n, a))
            _pair(gf.DicksonE(alpha),
                  lambda n, a=alpha: cf.dickson("E", n, a))
        for j in (2, 3, 5):
            _pair(gf.GouldHopper(j),
                  lambda n, j=j: cf.gould_hopper(n, j))
        for r in range(1, 5):
            _pair(gf.HermiteGen(r),
                  lambda n, r=r: cf.hermite_gen(n, r))
            _pair(gf.K1Kernel(r), lambda n, r=r: cf.kpoly("k1", n, r))
            _pair(gf.K2Kernel(r), lambda n, r=r: cf.kpoly("k2", n, r))
            _pair(gf.GKernel(r), lambda n, r=r: cf.kpoly("K", n, r))
            _pair(gf.M4(r), lambda n, r=r: cf.cs_r("C", n, r))
            _pair(gf.M5(r), lambda n, r=r: cf.cs_r("S", n, r))
        for k in (-1, 1, 2):
            for lam in (Fraction(1), Fraction(2), Fraction(1, 2)):
                if k == -1 and lam != 1:
                    # the inverted kernel has no constant term: both
                    # routes must refuse identically
                    with pytest.raises(SingularityError):
                        cf.apostol("B", 2, k, lam)
                    with pytest.raises(SingularityError):
                        gf.build(gf.ApostolBernoulli(k, lam), _N_TOP)
                else:
                    _pair(gf.ApostolBernoulli(k, lam),
                          lambda n, k=k, v=lam: cf.apostol("B", n, k, v))
                _pair(gf.ApostolEuler(k, lam),
                      lambda n, k=k, v=lam: cf.apostol("E", n, k, v))
        for z in (1, 2):
            for a in (Fraction(1), Fraction(1, 2)):
                _pair(gf.BC(z, a),
                      lambda n, z=z, a=a: cf.parametric_apostol(
                          "BC", n, z, a))
                _pair(gf.BS(z, a),
                      lambda n, z=z, a=a: cf.parametric_apostol(
                          "BS", n, z, a))
                _pair(gf.EC(z, a),
                      lambda n, z=z, a=a: cf.parametric_apostol(
                          "EC", n, z, a))
                _pair(gf.ES(z, a),
                      lambda n, z=z, a=a: cf.parametric_apostol(
                          "ES", n, z, a))
        for z in (1, 2):
            for fkind in ("bernoulli", "euler"):
                for a, b in ((Fraction(1), Fraction(0)),
                             (Fraction(1, 2), Fraction(1))):
                    for r in (1, 2, 4):
                        _pair(gf.M1(z, fkind, a, b, r),
                              lambda n, *, z=z, f=fkind, a=a, b=b, r=r:
                              cf.hpoly("h", n, z, r, f, a, b))
                        _pair(gf.M2(z, fkind, a, b, r),
                              lambda n, *, z=z, f=fkind, a=a, b=b, r=r:
                              cf.hpoly("h1", n, z, r, f, a, b))
                        _pair(gf.M3(z, fkind, a, b, r),
                              lambda n, *, z=z, f=fkind, a=a, b=b, r=r:
                              cf.hpoly("h2", n, z, r, f, a, b))
                        _pair(gf.Bform(z, fkind, a, b, r),
                              lambda n, *, z=z, f=fkind, a=a, b=b, r=r:
                              cf.frak_h(1, n, z, r, f, a, b))
                        _pair(gf.B1form(z, fkind, a, b, r),
                              lambda n, *, z=z, f=fkind, a=a, b=b, r=r:
                              cf.frak_h(2, n, z, r, f, a, b))

    _criterion(2, 20.0, body)


# -- criterion 3: reciprocal values and Stirling quotients ----------------

def test_criterion_03_inverse_order_values():
    def body():
        for n in range(31):
            value = cf.apostol("B", n, -1, 1).eval({"x": 0})
            assert value == Fraction(1, n + 1), n
        for n in range(11):
            for k in range(1, 6):
                value = cf.apostol("B", n, -k, 1).eval({"x": 0})
                assert value == Fraction(cf.stirling2(n + k, k),
                                         binom(n + k, k)), (n, k)

    _criterion(3, 2.0, body)


# -- criteria 4..9: identity suites at their default depths ---------------

def test_criterion_04_kernel_convolutions():
    def body():
        for check_id in ("k1hc", "k2hs", "c1_linear_comb"):
            report = ids.run_check(check_id)
            assert report.passed, (check_id, report.counterexample)

    _criterion(4, 5.0, body)


def test_criterion_05_product_family_suite():
    _criterion(5, 10.0, lambda: _assert_suite(ids.run_suite("section3")))


def test_criterion_06_hypergeometric_forms():
    def body():
        for check_id in ("n_hypergeom_0f0", "n_hypergeom_0f1",
                         "riemann_1y4a", "riemann_1y4b", "riemann_1y4c"):
            report = ids.run_check(check_id)
            assert report.bounds.n_max == 12
            assert report.passed, (check_id, report.counterexample)

    _criterion(6, 3.0, body)


def test_criterion_07_reduced_ring_suite():
    _criterion(7, 5.0, lambda: _assert_suite(ids.run_suite("section5")))


def test_criterion_08_chebyshev_bridge_suite():
    _criterion(8, 5.0, lambda: _assert_suite(ids.run_suite("section6")))


def test_criterion_09_discrepancy_pins():
    _criterion(9, 1.0,
               lambda: _assert_suite(ids.run_suite("discrepancies")))


# -- criterion 10: the CLI runs everything, cold --------------------------

def test_criterion_10_full_cli_run():
    # the child imports the same polygen as these tests, installed or not
    src = str(Path(ids.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)

    def body():
        proc = subprocess.run(
            [sys.executable, "-m", "polygen", "check", "--suite", "all"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-1].startswith("passed ")
        total = len(ids.SUITES["all"])
        assert lines[-1] == f"passed {total}/{total}"

    _criterion(10, 60.0, body)
