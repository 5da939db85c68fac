"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each output check must pass on polygen's real output and fail on a
corrupted copy of it; the traced run's totals must agree with totals
reached by another path.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from layers import CATALOG, Totals  # noqa: E402
from oracle import GQ  # noqa: E402
from workloads import P3_POINT, Request, _series, _table, requests  # noqa: E402

POINT = {"x": Fraction(2, 3), "y": Fraction(-3, 2), "u1": Fraction(1, 2),
         "u2": Fraction(5, 4), "u3": Fraction(-2), "u4": Fraction(4, 3)}


class _Fixed:
    """A stand-in for random.Random that always picks the first choice."""

    def choice(self, seq):
        return seq[0]


def polygen_output(req: Request) -> bytes:
    done = subprocess.run(run.polygen(req.args), capture_output=True,
                          env=run.ENV, cwd=run.ROOT, check=True)
    return done.stdout


def series_request(family, params, order) -> Request:
    req = _series(_Fixed(), family, params, order)
    req.point = dict(POINT)
    return req


def table_request(family, params, lo, hi) -> Request:
    req = _table(_Fixed(), family, params, lo, hi)
    req.point = dict(POINT, **(P3_POINT if family == "p3" else {}))
    return req


M2 = series_request("m2", {"z": 2, "fkind": "euler", "a": "2", "b": "1/2",
                           "r": 2}, 6)
BFORM = table_request("bform", {"z": 2, "fkind": "bernoulli", "a": "3",
                                "b": "3/2", "r": 2}, 0, 6)


def test_seed_gives_the_same_requests():
    a = [r.args for r in requests("series_table", 7)]
    assert a == [r.args for r in requests("series_table", 7)]
    points = {str(r.point) for s in range(8)
              for r in requests("series_table", s)}
    assert len(points) > 1


def test_oracle_properties():
    # T_n(3/5) = Re (3/5 + 4i/5)^n
    _, ser = oracle.generating_series("chebyshev-t", {},
                                      {"x": Fraction(3, 5)}, 12)
    unit = GQ(Fraction(3, 5), Fraction(4, 5))
    assert all(ser[n] == GQ((unit ** n).re) for n in range(13))
    # m2 uses G(w) + G(conj w), m3 uses G(w) - G(conj w)
    _, m2 = oracle.generating_series("m2", M2.params, POINT, 8)
    assert all(c.im == 0 for c in m2) and any(c.re != 0 for c in m2)
    _, m3 = oracle.generating_series("m3", M2.params, POINT, 8)
    assert all(c.re == 0 for c in m3) and any(c.im != 0 for c in m3)


def test_text_and_json_readers_agree():
    names, terms = oracle.parse_text_poly("-3/4*x^2*u1 + y - 2")
    value = oracle.eval_terms(names, terms, POINT)
    x, y, u1 = POINT["x"], POINT["y"], POINT["u1"]
    assert value == Fraction(-3, 4) * x * x * u1 + y - 2
    data = {"vars": ["x", "u1"], "terms": [{"exp": [2, 1], "coef": "-3/4"},
                                            {"exp": [0, 0], "coef": "5"}]}
    assert oracle.eval_json_poly(data, POINT) == Fraction(-3, 4) * x * x * u1 + 5


def test_series_check_passes_and_catches_an_altered_coefficient():
    out = polygen_output(M2)
    assert check.check_series(M2, out) == []
    data = json.loads(out)
    term = data["series"]["coeffs"][4]["re"]["terms"][0]
    term["coef"] = str(Fraction(term["coef"]) + 1)
    assert check.check_series(M2, json.dumps(data).encode())


def test_series_check_catches_a_nonzero_imaginary_part():
    data = json.loads(polygen_output(M2))
    data["series"]["coeffs"][3]["im"] = data["series"]["coeffs"][3]["re"]
    assert check.check_series(M2, json.dumps(data).encode())


def test_table_check_catches_an_altered_coefficient_and_a_dropped_row():
    out = polygen_output(BFORM)
    assert check.check_table(BFORM, out) == []
    lines = out.decode().splitlines()
    index, _, text = lines[5].partition("\t")
    first, rest = text.split("*", 1)
    altered = f"{index}\t{Fraction(first) + 1}*{rest}"
    corrupt = "\n".join(lines[:5] + [altered] + lines[6:]) + "\n"
    assert check.check_table(BFORM, corrupt.encode())
    dropped = "\n".join(lines[:3] + lines[4:]) + "\n"
    assert check.check_table(BFORM, dropped.encode())


def test_p3_and_chebyshev_rows_are_checked():
    for req in (table_request("p3", {"r": 2}, 0, 6),
                table_request("chebyshev-t", {}, 0, 12)):
        out = polygen_output(req)
        assert check.check_table(req, out) == []
        lines = out.decode().splitlines()
        lines[-1] = lines[-1] + " + x"
        assert check.check_table(req, ("\n".join(lines) + "\n").encode())


def _catalog(**changes) -> bytes:
    reports = [{"id": cid, "passed": True, "counterexample": None}
               for cid in CATALOG]
    for key, (index, value) in changes.items():
        reports[index][key] = value
    return json.dumps(reports).encode()


def test_catalog_check_catches_a_flipped_pass_and_a_missing_report():
    assert check.check_catalog(_catalog()) == []
    assert check.check_catalog(_catalog(passed=(44, False)))
    assert check.check_catalog(_catalog(counterexample=(7, {"lhs": "1"})))
    reports = json.loads(_catalog())
    assert check.check_catalog(json.dumps(reports[:-1]).encode())


def test_traced_totals_agree_with_independent_paths(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    reqs = [M2, BFORM]
    metrics, children, problems = run.measure_traced(reqs, 1e9)
    assert problems == []
    assert all(c.rc == 0 for c in children)
    untraced = sum((tmp_path / f"u_{i}.out").stat().st_size
                   for i in range(len(reqs)))
    assert metrics["cli.output_bytes"][0] == untraced
    assert metrics["series.mul_calls"][0] > 0
    assert metrics["genfun.build_from_closedform"][0] > 0
    # exact products inside series-by-series TruncSeries.__mul__ spans
    # make a full Cauchy product: sum of (N+1)(N+2)/2 over their orders
    totals = Totals()
    for i in range(len(reqs)):
        totals.add_request(str(tmp_path / f"t_{i}"))
    assert totals.series_products_expected > 0
    assert totals.series_products_counted == totals.series_products_expected
