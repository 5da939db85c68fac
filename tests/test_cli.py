"""End-to-end command tests driven through cli.main()."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polygen
from polygen import cli, closedform, series
from polygen import genfun as gf


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
    assert doc["rows"][2]["value"] == closedform.npoly(2).to_json_dict()
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
    assert doc["series"] == gf.build(gf.CosC(), 4).to_json_dict()


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
        polygen.identities.SUITES["discrepancies"])
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


@pytest.mark.parametrize("family, flag", [
    ("apostol-euler", "--lambda"), ("r1", "--a"), ("r1", "--b"),
    ("dickson-d", "--alpha")])
def test_negative_fraction_as_separate_word(capsys, family, flag):
    # "--a -1/2" must read like "--a=-1/2", as README spells rationals
    apart = run(capsys, "table", "--family", family, flag, "-1/2",
                "--n", "0..2")
    glued = run(capsys, "table", "--family", family, f"{flag}=-1/2",
                "--n", "0..2")
    assert apart == glued and apart[0] == 0 and apart[2] == ""


@pytest.mark.parametrize("selector", ["-3..2", "-3", "-3..-1"])
def test_negative_n_selector_as_separate_word(capsys, selector):
    # "--n -3..2" must read like "--n=-3..2": the index is refused, not
    # the spelling
    apart = run(capsys, "table", "--family", "chebyshev-t", "--n", selector)
    glued = run(capsys, "table", "--family", "chebyshev-t",
                f"--n={selector}")
    assert apart == glued and apart[0] == 2 and apart[1] == ""
    assert "non-negative integer, got -3" in apart[2]


@pytest.mark.parametrize("family", ["bform", "b1form", "m1", "m2", "m3"])
@pytest.mark.parametrize("r", ["9", "0"])
def test_out_of_range_r_beats_singular_kernel(capsys, family, r):
    # --r is out of range and the Euler kernel at a = -1 is singular:
    # both routes report the range error first
    flags = ("--family", family, "--fkind", "euler", "--a", "-1", "--r", r)
    series_run = run(capsys, "series", *flags, "--order", "3")
    table_run = run(capsys, "table", *flags, "--n", "0..3")
    assert series_run == table_run
    assert series_run[0] == 2 and "order parameter r" in series_run[2]


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


_FAILING_JSON = """[
  {
    "id": "always_wrong",
    "bounds": {
      "n_max": 1,
      "r_max": 1,
      "z_values": [
        1
      ],
      "a_values": [
        "1"
      ],
      "b_values": [
        "1/2"
      ]
    },
    "passed": false,
    "counterexample": {
      "inputs": {
        "n": 1
      },
      "lhs": "1",
      "rhs": "2"
    }
  }
]
"""


_FAILING_OUTPUTS = {
    "text": "FAIL always_wrong at {'n': 1}: 1 != 2\npassed 0/1\n",
    "csv": ('id,passed,counterexample\r\nalways_wrong,false,'
            '"{""inputs"": {""n"": 1}, ""lhs"": ""1"", ""rhs"": ""2""}"\r\n'),
    "json": _FAILING_JSON,
}


def test_check_failure_exit_code(capsys):
    from polygen import identities as ids
    from polygen.exact import MultiPoly

    @ids._register("always_wrong", ids.Bounds(
        n_max=1, r_max=1, z_values=(1,), a_values=(Fraction(1),),
        b_values=(Fraction(1, 2),)))
    def always_wrong(bounds):
        yield {"n": 1}, MultiPoly.const(1), MultiPoly.const(2)

    try:
        for fmt, expected in _FAILING_OUTPUTS.items():
            assert run(capsys, "check", "--id", "always-wrong", "--format",
                       fmt) == (1, expected, "")
    finally:
        del ids.CHECKS["always_wrong"]
        del ids.DEFAULTS["always_wrong"]


def test_failing_check_json_matches_json_dumps(capsys):
    from polygen import identities as ids
    from polygen.exact import MultiPoly

    @ids._register("cli_wrong_json", ids.Bounds(n_max=1, r_max=1))
    def cli_wrong_json(bounds):
        yield ({"n": 0, "route": "\u00fcber"}, MultiPoly.const(0),
               MultiPoly.const(1))

    try:
        code, out, _ = run(capsys, "check", "--id", "cli_wrong_json",
                           "--format", "json")
        report = ids.run_check("cli_wrong_json",
                               ids.DEFAULTS["cli_wrong_json"])
    finally:
        del ids.CHECKS["cli_wrong_json"]
        del ids.DEFAULTS["cli_wrong_json"]
    assert code == 1 and report.counterexample is not None
    assert out == json.dumps([report.to_json_dict()], indent=2) + "\n"


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


@pytest.mark.parametrize("fmt, name", [("text", "check_all.txt"),
                                       ("csv", "check_all.csv")])
def test_check_all_text_and_csv_are_golden(capsys, fmt, name):
    golden = Path(__file__).parent / "data" / name
    code, out, err = run(capsys, "check", "--suite", "all", "--format", fmt)
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


# one request per JSON writer: egf and ogf series, CPoly coefficients,
# s-reduced table rows, an aliased family name, CPoly table rows,
# constant table rows and zero series coefficients
_JSON_OUTPUTS = (
    "series --family cos-c --order 4 --format json",
    "series --family chebyshev-t --order 3 --format json",
    "series --family g-kernel --r 2 --order 3 --format json",
    "table --family p3 --r 2 --n 0..2 --format json",
    "expand --family np --n 2 --format json",
    "table --family m2 --n 0..3 --format json",
    "table --family r1 --n 0..3 --format json",
    "series --family sin-s --order 4 --format json",
)


def test_json_outputs_are_golden(capsys):
    # JSON is output only; this file pins what the writers print
    golden = Path(__file__).parent / "data" / "json_outputs.txt"
    parts = []
    for request in _JSON_OUTPUTS:
        code, out, err = run(capsys, *request.split())
        assert code == 0 and err == "", request
        parts.append(f"$ polygen {request}\n{out}")
    assert "".join(parts).encode() == golden.read_bytes()


# the complex families at truncation order 0, where every power of t
# that carries w is cut away and the one coefficient must stay complex
_ORDER0_OUTPUTS = tuple(
    f"series --family {family} --order 0 --format {fmt}"
    for family in ("g-kernel", "nw", "m1", "m2", "m3")
    for fmt in ("text", "json", "csv"))


def test_order0_complex_outputs_are_golden(capsys):
    golden = Path(__file__).parent / "data" / "order0_outputs.txt"
    parts = []
    for request in _ORDER0_OUTPUTS:
        code, out, err = run(capsys, *request.split())
        assert code == 0 and err == "", request
        parts.append(f"$ polygen {request}\n{out}")
    assert "".join(parts).encode() == golden.read_bytes()


@pytest.mark.parametrize("check_id", ["nk1", "nk2"])
def test_conjugate_checks_run_at_n_max_0(capsys, check_id):
    # nk1 and nk2 build M2 and M3, which conjugate each coefficient
    code, out, err = run(capsys, "check", "--id", check_id, "--n-max", "0")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == f"PASS {check_id}"


class _WriteOnly:
    """A stdout with nothing but ``write``, like a counting wrapper that
    sees only what goes through ``write``; it notes the index of the
    last series coefficient computed before each piece."""

    def __init__(self, computed):
        self.computed = computed
        self.pieces = []

    def write(self, text):
        self.pieces.append((self.computed[-1] if self.computed else None,
                            text))
        return len(text)


def test_json_goes_through_stdout_write(capsys, monkeypatch):
    # sys.stdout is looked up when writing, and each series coefficient
    # is written as soon as it is computed
    computed = []
    coefficient = series.TruncSeries.coefficient
    monkeypatch.setattr(series.TruncSeries, "coefficient", lambda self, n: (
        computed.append(n), coefficient(self, n))[1])
    for request in _JSON_OUTPUTS:
        expected = run(capsys, *request.split())[1]
        computed.clear()
        out = _WriteOnly(computed)
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", out)
            code = cli.main(request.split())
        assert code == 0 and "".join(t for _, t in out.pieces) == expected
        assert {n for n, _ in out.pieces} >= set(computed)


def test_failed_json_table_writes_nothing(capsys):
    # every row is computed before the first byte: p4 refuses row 0
    code, out, err = run(capsys, "table", "--family", "p4", "--n", "0..3",
                         "--format", "json")
    assert code == 2 and out == "" and "n >= 1" in err


@pytest.mark.parametrize("flags", [
    "--family r1 --z -2 --b -1",
    "--family apostol-euler --lambda -1",
    "--family r1 --z -1 --fkind euler --a -1"])
def test_singular_request_reads_alike_on_both_routes(capsys, flags):
    table_run = run(capsys, "table", *flags.split(), "--n", "0..3")
    series_run = run(capsys, "series", *flags.split(), "--order", "3")
    assert table_run[0] == series_run[0] == 3
    assert table_run[2] == series_run[2] and table_run[1] == ""


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


# the series_table benchmark requests of seed 101: the largest outputs
# the program makes (the m2 series is 15 MB of JSON)
_HEAVY_REQUESTS = (
    "series --family m2 --z 2 --fkind euler --a 3 --b 1/2 --r 3 "
    "--order 24 --format json",
    "series --family bform --z -2 --fkind bernoulli --a 1 --b 1 --r 2 "
    "--order 24 --format json",
    "series --family g-kernel --r 4 --order 20 --format json",
    "series --family chebyshev-t --order 80 --format json",
    "series --family dickson-e --alpha 2 --order 60 --format json",
    "series --family apostol-bernoulli --k 3 --lambda 3 --order 40 "
    "--format json",
    "series --family gould-hopper --j 3 --order 60 --format json",
    "series --family ec --z 3 --a 3 --order 40 --format json",
    "table --family chebyshev-t --n 0..80",
    "table --family dickson-d --alpha -2 --n 0..80",
    "table --family apostol-euler --k 3 --lambda 2 --n 0..60",
    "table --family bc --z 2 --a 2 --n 0..40",
    "table --family hermite-gen --r 4 --n 0..40",
    "table --family p3 --r 3 --n 0..30",
    "table --family bform --z 2 --fkind bernoulli --a 2 --b 3/2 --r 2 "
    "--n 0..16",
    "table --family m2 --z 2 --fkind euler --a 2 --b 3/2 --r 2 --n 0..16",
)


def test_heavy_outputs_are_pinned(capsys):
    # one "sha256 request" line per request, in the order above
    golden = Path(__file__).parent / "data" / "series_table_digests.txt"
    pinned = [line.split(" ", 1)
              for line in golden.read_text().splitlines()]
    assert [request for _, request in pinned] == list(_HEAVY_REQUESTS)
    for digest, request in pinned:
        code, out, err = run(capsys, *request.split())
        assert code == 0 and err == "", request
        assert hashlib.sha256(out.encode()).hexdigest() == digest, request


def _child(*args):
    """One ``python *args`` child on the polygen these tests import."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))


def _cold(*argv):
    """One ``python -m polygen`` child."""
    return _child("-m", "polygen", *argv)


def test_answers_past_the_int_str_limit_print():
    # 20-digit parameters, at the cap: numerator and denominator have
    # 4386 and 4403 digits, past CPython's default limit of 4300
    value = "12345678901234567891/98765432109876543211"
    proc = _cold("table", "--family", "r1", "--z", "-100", "--fkind",
                 "euler", "--a", value, "--b", value, "--n", "10")
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    n, answer = proc.stdout.split()
    assert n == "10" and min(map(len, answer.split("/"))) > 4300


def test_rational_digit_cap_refuses_at_once():
    limit = series.DIGIT_LIMIT
    for flag, family in (("--a", "r1"), ("--b", "r1"),
                         ("--alpha", "dickson-d"),
                         ("--lambda", "apostol-bernoulli")):
        for value in ("7" * (limit + 1), "1/" + "3" * (limit + 1)):
            proc = _cold("table", "--family", family, flag, value,
                         "--n", "100")
            assert proc.returncode == 2 and proc.stdout == "", (flag, value)
            assert f"more than {limit} digits" in proc.stderr
    # an exponent would carry any number of digits past the cap
    proc = _cold("table", "--family", "r1", "--a", "1e99", "--n", "0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "decimal notation" in proc.stderr


def _imported_by(*argv):
    """The modules that ``cli.main(argv)`` imports in a new interpreter,
    and its stdout."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "from polygen import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "print(*set(sys.modules) - before, file=sys.stderr)\n"
             "sys.exit(code)\n")
    proc = _child("-c", probe, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split()), proc.stdout


def test_series_and_table_children_load_only_what_they_run():
    unused = {"polygen.identities", "dataclasses", "inspect", "csv"}
    for argv in (("series", "--family", "m2", "--order", "3",
                  "--format", "json"),
                 ("table", "--family", "bc", "--n", "0..3"),
                 ("expand", "--family", "chebyshev-t", "--n", "0")):
        imported, _ = _imported_by(*argv)
        # text output writes no JSON, so it loads no json either; a
        # series has no closed route to run
        refused = unused if "json" in argv else unused | {"json"}
        if "series" in argv:
            refused = refused | {"polygen.closedform"}
        else:
            assert "polygen.closedform" in imported, argv
        assert "polygen.genfun" in imported and not imported & refused, argv
    imported, out = _imported_by("table", "--family", "bc", "--n", "0..1",
                                 "--format", "csv")
    assert "csv" in imported and out.startswith("n,value")


def test_check_child_loads_no_dataclasses():
    imported, out = _imported_by("check", "--id", "lemma1", "--n-max", "2")
    assert out.startswith("PASS lemma1")
    assert "polygen.identities" in imported and "dataclasses" not in imported


def test_identities_stays_reachable_from_the_package():
    probe = ("import sys, polygen\n"
             "assert 'polygen.identities' not in sys.modules\n"
             "ids = polygen.identities\n"
             "from polygen import identities\n"
             "assert identities is ids and 'lemma1' in ids.CHECKS\n"
             "namespace = {}\n"
             "exec('from polygen import *', namespace)\n"
             "assert set(polygen.__all__) <= set(namespace)\n"
             "assert namespace['identities'] is ids\n"
             "try:\n"
             "    polygen.no_such_name\n"
             "except AttributeError:\n"
             "    print('ok')\n")
    proc = _child("-c", probe)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_closedform_stays_reachable_from_the_package():
    probe = ("import sys, polygen\n"
             "assert 'polygen.closedform' not in sys.modules\n"
             "cf = polygen.closedform\n"
             "from polygen import closedform\n"
             "assert closedform is cf and str(cf.chebyshev('T', 2)) == "
             "'2*x^2 - 1'\n"
             "from polygen import cli\n"
             "assert cli.cf.chebyshev is cf.chebyshev\n"
             "print('ok')\n")
    proc = _child("-c", probe)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_check_suite_all_runs_at_n_max_0():
    proc = _cold("check", "--suite", "all", "--n-max", "0")
    assert proc.returncode == 0, proc.stderr
    total = len(polygen.identities.check_ids())
    assert proc.stdout.splitlines()[-1] == f"passed {total}/{total}"
