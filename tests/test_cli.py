"""End-to-end command tests driven through cli.main()."""

import json
from pathlib import Path

import pytest

from polygen import cli, closedform, series
from polygen import genfun as gf
from polygen.exact import CPoly
from polygen.series import TruncSeries


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text(capsys):
    code, out, err = run(capsys, "table", "--family", "chebyshev-t",
                         "--n", "0..2")
    assert code == 0 and err == ""
    assert out == "0\t1\n1\tx\n2\t2*x^2 - 1\n"


def test_table_u_shift(capsys):
    # row n of the second-kind table is the degree-n polynomial
    code, out, _ = run(capsys, "table", "--family", "chebyshev-u",
                       "--n", "0..2")
    assert code == 0
    assert out == "0\t1\n1\t2*x\n2\t4*x^2 - 1\n"


def test_table_single_n(capsys):
    code, out, _ = run(capsys, "table", "--family", "k2", "--r", "3",
                       "--n", "0")
    assert code == 0 and out == "0\t0\n"


def test_table_json_round_trip(capsys):
    code, out, _ = run(capsys, "table", "--family", "np", "--n", "0..3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "nw"
    rows = [CPoly.from_json_dict(r["value"]) for r in doc["rows"]]
    assert rows[2] == closedform.npoly(2)
    assert [r["n"] for r in doc["rows"]] == [0, 1, 2, 3]


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--family", "dickson-d",
                       "--alpha", "2", "--n", "0..2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,value"
    assert out.splitlines()[1] == "0,2"


def test_series_text(capsys):
    code, out, _ = run(capsys, "series", "--family", "dickson-d",
                       "--order", "2")
    assert code == 0
    assert out == "0\t2\n1\tx\n2\tx^2 - 2\n"


def test_series_json_round_trip(capsys):
    code, out, _ = run(capsys, "series", "--family", "cos-c",
                       "--order", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    ser = TruncSeries.from_json_dict(doc["series"])
    assert ser == gf.build(gf.CosC(), 4)


def test_series_default_order_env(capsys, monkeypatch):
    monkeypatch.setenv("POLYGEN_ORDER", "3")
    code, out, _ = run(capsys, "series", "--family", "cos-c")
    assert code == 0
    assert len(out.splitlines()) == 4


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "--family", "gould-hopper",
                       "--j", "2", "--n", "2")
    assert code == 0 and out == "x^2 + 2*y\n"
    code, out, _ = run(capsys, "expand", "--family", "hermite-gen",
                       "--r", "1", "--n", "5")
    assert code == 0 and out == "u1^5\n"
    code, out, _ = run(capsys, "expand", "--family", "np", "--n", "2")
    assert code == 0 and out == "(x^2 - y^2) + i*(2*x*y)\n"


def test_scalar_table(capsys):
    code, out, _ = run(capsys, "table", "--family", "r1", "--b", "0",
                       "--n", "0..2")
    assert code == 0
    assert out == "0\t1\n1\t-1/2\n2\t1/6\n"


def test_check_single(capsys):
    code, out, _ = run(capsys, "check", "--id", "lemma1", "--n-max", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS lemma1"
    assert lines[-1] == "passed 1/1"


def test_check_kebab_id(capsys):
    code, out, _ = run(capsys, "check", "--id", "dickson-gf-discrepancy")
    assert code == 0
    assert out.splitlines()[0] == "PASS dickson_gf_discrepancy"


def test_check_suite_json(capsys):
    code, out, _ = run(capsys, "check", "--suite", "discrepancies",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["id"] for r in doc] == list(
        cli.identities.SUITES["discrepancies"])
    assert all(r["passed"] for r in doc)


def test_check_suite_csv(capsys):
    code, out, _ = run(capsys, "check", "--suite", "section2",
                       "--n-max", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "id,passed,counterexample"


def test_exit_codes(capsys):
    # unknown family
    code, _, err = run(capsys, "table", "--family", "nope", "--n", "1")
    assert code == 2 and "error:" in err
    # foreign parameter for the family
    code, _, err = run(capsys, "table", "--family", "chebyshev-t",
                       "--r", "2", "--n", "1")
    assert code == 2
    # n out of range for check
    code, _, err = run(capsys, "check", "--id", "lemma1", "--n-max", "25")
    assert code == 2
    # singular parameter choice
    code, _, err = run(capsys, "series", "--family", "apostol-euler",
                       "--lambda", "-1", "--order", "2")
    assert code == 3
    # closed form only: p1 has no generating-series route
    code, _, err = run(capsys, "series", "--family", "p1", "--order", "2")
    assert code == 2 and "no generating-function route" in err
    code, _, err = run(capsys, "check")
    assert code == 2  # neither --suite nor --id
    code, _, err = run(capsys, "check", "--suite", "section2", "--id",
                       "lemma1")
    assert code == 2  # both
    # malformed rational
    code, _, err = run(capsys, "table", "--family", "dickson-d",
                       "--alpha", "0.5", "--n", "1")
    assert code == 2
    # malformed range
    code, _, err = run(capsys, "table", "--family", "chebyshev-t",
                       "--n", "two")
    assert code == 2
    # argparse's own failure path keeps the same usage code
    code, _, err = run(capsys, "frobnicate")
    assert code == 2


def test_size_caps_refuse_at_once(capsys, monkeypatch):
    # every size from outside is capped before any computation starts;
    # uncapped, the first request runs for hours
    limit = series.ORDER_LIMIT
    assert limit >= 80  # the largest requests the benchmark makes
    exponents = [(cmd, "--family", family, f"{flag}={value}", size)
                 for cmd, family, flag, size in (
                     ("table", "apostol-bernoulli", "--k", "--n=0..3"),
                     ("table", "bc", "--z", "--n=0..3"),
                     ("table", "m1", "--z", "--n=0..2"),
                     ("series", "apostol-bernoulli", "--k", "--order=4"),
                     ("series", "r1", "--z", "--order=4"))
                 for value in (limit + 1, -limit - 1, 10 ** 8)]
    for argv in (("table", "--family", "chebyshev-t", "--n", "0..100000"),
                 ("expand", "--family", "chebyshev-t", "--n", str(limit + 1)),
                 ("series", "--family", "chebyshev-t",
                  "--order", str(limit + 1)), *exponents):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert f"at most {limit}" in err
    monkeypatch.setenv("POLYGEN_ORDER", str(limit + 1))
    code, out, err = run(capsys, "series", "--family", "chebyshev-t")
    assert code == 2 and out == "" and "POLYGEN_ORDER" in err
    code, out, _ = run(capsys, "expand", "--family", "chebyshev-t",
                       "--n", str(limit))
    assert code == 0 and out.startswith(f"{2 ** (limit - 1)}*x^{limit} ")
    for flag, family in (("--k", "apostol-bernoulli"), ("--z", "r1")):
        for value in (limit, -limit):
            code, out, _ = run(capsys, "table", "--family", family,
                               f"{flag}={value}", "--n", "0..1")
            assert code == 0 and out.count("\n") == 2, (flag, value)


def test_check_failure_exit_code(capsys, monkeypatch):
    from polygen import identities as ids
    from polygen.exact import MultiPoly

    @ids._register("cli_wrong", ids.Bounds(n_max=1, r_max=1))
    def cli_wrong(bounds):
        yield {"n": 0}, MultiPoly.const(0), MultiPoly.const(1)

    try:
        code, out, _ = run(capsys, "check", "--id", "cli_wrong")
        assert code == 1
        assert out.splitlines()[0].startswith("FAIL cli_wrong at ")
        assert "0 != 1" in out.splitlines()[0] or "!=" in out.splitlines()[0]
        assert out.splitlines()[-1] == "passed 0/1"
    finally:
        del ids.CHECKS["cli_wrong"]
        del ids.DEFAULTS["cli_wrong"]


def test_determinism(capsys):
    first = run(capsys, "table", "--family", "m1", "--n", "0..4",
                "--format", "json")
    second = run(capsys, "table", "--family", "m1", "--n", "0..4",
                 "--format", "json")
    assert first == second


def test_check_all_json_is_golden(capsys):
    # the catalog report must stay byte-identical across refactors
    golden = Path(__file__).parent / "data" / "check_all.json"
    code, out, err = run(capsys, "check", "--suite", "all", "--format", "json")
    assert code == 0 and err == ""
    assert out.encode() == golden.read_bytes()


# r1 rows are single kernel-power numbers, which
# test_closedform.test_kernel_power_numbers_match_series checks exactly
_KERNEL_TABLES = (
    [[family, "--z", "-1", "--fkind", "euler", "--a", "2", "--b", "1/2",
      "--r", "2"] for family in ("m1", "m3", "bform", "b1form")]
    + [["apostol-bernoulli", "--k", "-2"]])


def test_kernel_tables_are_golden(capsys):
    # closed kernel-power routes against tables written while the kernel
    # power was still read from the series of (b + f(t,a))^z
    golden = Path(__file__).parent / "data" / "kernel_tables.txt"
    parts = []
    for request in _KERNEL_TABLES:
        argv = ["table", "--family", *request, "--n", "0..6",
                "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", argv
        parts.append(f"$ polygen {' '.join(argv)}\n{out}")
    assert "".join(parts).encode() == golden.read_bytes()


# a non-default value for every family flag, each differing from the
# others, so that a swapped or dropped parameter changes the table
_WIRING_FLAGS = {"k": "2", "lam": "1/2", "z": "2", "fkind": "euler",
                 "a": "3", "b": "1/2", "alpha": "3", "j": "3", "r": "3"}


def test_registry_wires_both_routes_alike(capsys):
    for name, family in cli._FAMILIES.items():
        if family.descriptor is None:
            continue
        flags = [arg for dest in family.params for arg in
                 (f"--{cli._flag(dest)}", _WIRING_FLAGS[dest])]
        series_run = run(capsys, "series", "--family", name, *flags,
                         "--order", "6")
        table_run = run(capsys, "table", "--family", name, *flags,
                        "--n", "0..6")
        assert series_run[0] == 0 and series_run == table_run, name


def test_family_params_are_golden(capsys):
    # key order and defaults of every family's flags, as JSON shows them
    golden = Path(__file__).parent / "data" / "family_params.json"
    params = {}
    for name in sorted(cli._FAMILIES):
        code, out, _ = run(capsys, "expand", "--family", name, "--n", "1",
                           "--format", "json")
        assert code == 0, name
        params[name] = json.loads(out)["params"]
    assert (json.dumps(params, indent=2) + "\n").encode() == \
        golden.read_bytes()
