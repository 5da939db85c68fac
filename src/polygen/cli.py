"""Command-line front end.

Four subcommands over the library:

* ``table``  — closed-form values over an n-range, one row per n
* ``series`` — a truncated generating series for a family
* ``check``  — run one identity check or a named suite
* ``expand`` — the canonical string of a single closed-form value

Output goes to stdout in ``text`` (default), ``json``, or ``csv``
format and is deterministic byte for byte; diagnostics go to stderr.
Rationals on the command line are integers or "p/q" strings — decimal
notation is rejected so no value ever passes through a float.

Exit codes: 0 success (check: all passed), 1 check failure, 2 usage
error, 3 mathematical singularity.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

from . import closedform as cf
from . import genfun as gf
from . import identities
from . import series as series_mod
from .errors import DomainError, RangeError, SingularityError, UsageError
from .exact import MultiPoly


def _parse_rational(text: str) -> Fraction:
    if "." in text:
        raise UsageError(
            f"rational {text!r} uses decimal notation; write it as p/q")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse rational {text!r}: {exc}") from exc


def _check_size(what: str, value: int) -> int:
    if value > series_mod.ORDER_LIMIT:
        raise RangeError(f"{what} must be at most {series_mod.ORDER_LIMIT}, "
                         f"got {value}")
    return value


def _parse_n_range(text: str) -> range:
    """An n selector: a single integer or an inclusive "lo..hi" range."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise UsageError(f"empty n-range {text!r}")
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse n selector {text!r}: {exc}") from exc
    return range(lo, _check_size("--n", hi) + 1)


# ----------------------------------------------------------------------
# family registry


@dataclass(frozen=True)
class Family:
    """One named family: its parameters and its two routes."""

    name: str
    params: tuple[tuple[str, str, object], ...]  # (flag, kind, default)
    series_fn: Optional[Callable[[dict], gf.FamilyId]]
    closed_fn: Optional[Callable[[int, dict], object]]


_FAMILIES: dict[str, Family] = {}

# every parameter flag, with its argparse destination
_PARAM_DESTS = {"k": "k", "lambda": "lam", "z": "z", "a": "a", "b": "b",
                "alpha": "alpha", "j": "j", "r": "r", "fkind": "fkind"}

_K = ("k", "int", 1)
_LAM = ("lambda", "rational", Fraction(1))
_Z = ("z", "int", 1)
_A = ("a", "rational", Fraction(1))
_B = ("b", "rational", Fraction(1))
_ALPHA = ("alpha", "rational", Fraction(1))
_J = ("j", "int", 2)
_R = ("r", "int", 2)
_FKIND = ("fkind", "fkind", "bernoulli")


def _family(name, params=(), series_fn=None, closed_fn=None, aliases=()):
    entry = Family(name, tuple(params), series_fn, closed_fn)
    _FAMILIES[name] = entry
    for alias in aliases:
        _FAMILIES[alias] = entry


_family("apostol-bernoulli", (_K, _LAM),
        lambda p: gf.ApostolBernoulli(p["k"], p["lambda"]),
        lambda n, p: cf.apostol("B", n, p["k"], p["lambda"]))
_family("apostol-euler", (_K, _LAM),
        lambda p: gf.ApostolEuler(p["k"], p["lambda"]),
        lambda n, p: cf.apostol("E", n, p["k"], p["lambda"]))
_family("cos-c", (), lambda p: gf.CosC(), lambda n, p: cf.cs_poly("C", n))
_family("sin-s", (), lambda p: gf.SinS(), lambda n, p: cf.cs_poly("S", n))
_family("chebyshev-t", (), lambda p: gf.ChebyshevT(),
        lambda n, p: cf.chebyshev("T", n))
# row n of the second-kind table is U_n, the coefficient of t^n
_family("chebyshev-u", (), lambda p: gf.ChebyshevU(),
        lambda n, p: cf.chebyshev("U", n + 1))
_family("dickson-d", (_ALPHA,), lambda p: gf.DicksonD(p["alpha"]),
        lambda n, p: cf.dickson("D", n, p["alpha"]))
_family("dickson-e", (_ALPHA,), lambda p: gf.DicksonE(p["alpha"]),
        lambda n, p: cf.dickson("E", n, p["alpha"]))
_family("gould-hopper", (_J,), lambda p: gf.GouldHopper(p["j"]),
        lambda n, p: cf.gould_hopper(n, p["j"]))
_family("hermite-gen", (_R,), lambda p: gf.HermiteGen(p["r"]),
        lambda n, p: cf.hermite_gen(n, p["r"]))
_family("g-kernel", (_R,), lambda p: gf.GKernel(p["r"]),
        lambda n, p: cf.kpoly("K", n, p["r"]))
_family("k1", (_R,), lambda p: gf.K1Kernel(p["r"]),
        lambda n, p: cf.kpoly("k1", n, p["r"]))
_family("k2", (_R,), lambda p: gf.K2Kernel(p["r"]),
        lambda n, p: cf.kpoly("k2", n, p["r"]))
_family("m1", (_Z, _FKIND, _A, _B, _R),
        lambda p: gf.M1(p["z"], p["fkind"], p["a"], p["b"], p["r"]),
        lambda n, p: cf.hpoly("h", n, p["z"], p["r"], p["fkind"],
                              p["a"], p["b"]))
_family("m2", (_Z, _FKIND, _A, _B, _R),
        lambda p: gf.M2(p["z"], p["fkind"], p["a"], p["b"], p["r"]),
        lambda n, p: cf.hpoly("h1", n, p["z"], p["r"], p["fkind"],
                              p["a"], p["b"]))
_family("m3", (_Z, _FKIND, _A, _B, _R),
        lambda p: gf.M3(p["z"], p["fkind"], p["a"], p["b"], p["r"]),
        lambda n, p: cf.hpoly("h2", n, p["z"], p["r"], p["fkind"],
                              p["a"], p["b"]))
_family("m4", (_R,), lambda p: gf.M4(p["r"]),
        lambda n, p: cf.cs_r("C", n, p["r"]))
_family("m5", (_R,), lambda p: gf.M5(p["r"]),
        lambda n, p: cf.cs_r("S", n, p["r"]))
_family("bform", (_Z, _FKIND, _A, _B, _R),
        lambda p: gf.Bform(p["z"], p["fkind"], p["a"], p["b"], p["r"]),
        lambda n, p: cf.frak_h(1, n, p["z"], p["r"], p["fkind"],
                               p["a"], p["b"]))
_family("b1form", (_Z, _FKIND, _A, _B, _R),
        lambda p: gf.B1form(p["z"], p["fkind"], p["a"], p["b"], p["r"]),
        lambda n, p: cf.frak_h(2, n, p["z"], p["r"], p["fkind"],
                               p["a"], p["b"]))
_family("bc", (_Z, _A), lambda p: gf.BC(p["z"], p["a"]),
        lambda n, p: cf.parametric_apostol("BC", n, p["z"], p["a"]))
_family("bs", (_Z, _A), lambda p: gf.BS(p["z"], p["a"]),
        lambda n, p: cf.parametric_apostol("BS", n, p["z"], p["a"]))
_family("ec", (_Z, _A), lambda p: gf.EC(p["z"], p["a"]),
        lambda n, p: cf.parametric_apostol("EC", n, p["z"], p["a"]))
_family("es", (_Z, _A), lambda p: gf.ES(p["z"], p["a"]),
        lambda n, p: cf.parametric_apostol("ES", n, p["z"], p["a"]))
_family("nw", (), lambda p: gf.Nw(), lambda n, p: cf.npoly(n),
        aliases=("np",))
_family("r1", (_Z, _FKIND, _A, _B),
        lambda p: gf.R1(p["z"], p["fkind"], p["a"], p["b"]),
        lambda n, p: MultiPoly.const(cf.kernel_power_numbers(
            p["z"], p["fkind"], p["a"], p["b"], n)[n]))
_family("p1", (_R,), None, lambda n, p: cf.ppoly("P1", n, p["r"]))
_family("p2", (_R,), None, lambda n, p: cf.ppoly("P2", n, p["r"]))
_family("p3", (_R,), None, lambda n, p: cf.ppoly("P3", n, p["r"]))
_family("p4", (_R,), None, lambda n, p: cf.ppoly("P4", n, p["r"]))


def _resolve_family(name: str) -> Family:
    if name not in _FAMILIES:
        raise UsageError(
            f"unknown family {name!r}; known families: "
            f"{', '.join(sorted(set(_FAMILIES)))}")
    return _FAMILIES[name]


def _collect_params(family: Family, args: argparse.Namespace) -> dict:
    allowed = {flag for flag, _, _ in family.params}
    for flag, dest in _PARAM_DESTS.items():
        if getattr(args, dest, None) is not None and flag not in allowed:
            raise UsageError(
                f"family {family.name!r} does not take --{flag}")
    params = {}
    for flag, kind, default in family.params:
        raw = getattr(args, _PARAM_DESTS[flag])
        if raw is None:
            params[flag] = default
        elif kind == "rational":
            params[flag] = _parse_rational(raw)
        else:
            if flag in ("k", "z"):
                _check_size(f"|--{flag}|", abs(raw))
            params[flag] = raw
    return params


def _params_json(params: dict) -> dict:
    return {flag: value if isinstance(value, (int, str)) else str(value)
            for flag, value in params.items()}


# ----------------------------------------------------------------------
# subcommands


def _cmd_table(args: argparse.Namespace) -> int:
    family = _resolve_family(args.family)
    params = _collect_params(family, args)
    if family.closed_fn is None:
        raise UsageError(f"family {family.name!r} has no closed-form "
                         f"route; use the series command")
    rows = [(n, family.closed_fn(n, params))
            for n in _parse_n_range(args.n)]
    if args.format == "json":
        payload = {
            "family": family.name,
            "params": _params_json(params),
            "rows": [{"n": n, "value": value.to_json_dict()}
                     for n, value in rows],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "value"])
        for n, value in rows:
            writer.writerow([n, str(value)])
    else:
        for n, value in rows:
            print(f"{n}\t{value}")
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    family = _resolve_family(args.family)
    params = _collect_params(family, args)
    if family.series_fn is None:
        raise UsageError(f"family {family.name!r} has no generating-"
                         f"function route; use the table command")
    order = (_check_size("--order", args.order) if args.order is not None
             else series_mod.default_order())
    ser = gf.build(family.series_fn(params), order)
    if args.format == "json":
        payload = {
            "family": family.name,
            "params": _params_json(params),
            "series": ser.to_json_dict(),
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "value"])
        for n in range(order + 1):
            writer.writerow([n, str(ser.coefficient(n))])
    else:
        for n in range(order + 1):
            print(f"{n}\t{ser.coefficient(n)}")
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    family = _resolve_family(args.family)
    params = _collect_params(family, args)
    if family.closed_fn is None:
        raise UsageError(f"family {family.name!r} has no closed-form "
                         f"route; use the series command")
    ns = _parse_n_range(args.n)
    if len(ns) != 1:
        raise UsageError("expand takes a single n, not a range")
    value = family.closed_fn(ns[0], params)
    if args.format == "json":
        payload = {
            "family": family.name,
            "params": _params_json(params),
            "n": ns[0],
            "value": value.to_json_dict(),
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "value"])
        writer.writerow([ns[0], str(value)])
    else:
        print(str(value))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if (args.suite is None) == (args.check_id is None):
        raise UsageError("check needs exactly one of --suite or --id")
    if args.suite is not None:
        reports = identities.run_suite(args.suite, n_max=args.n_max,
                                       r_max=args.r_max)
    else:
        check_id = args.check_id.replace("-", "_")
        bounds = identities.default_bounds(check_id)
        if args.n_max is not None:
            bounds = replace(bounds, n_max=args.n_max)
        if args.r_max is not None:
            bounds = replace(bounds, r_max=args.r_max)
        reports = [identities.run_check(check_id, bounds)]
    passed = sum(1 for r in reports if r.passed)
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["id", "passed", "counterexample"])
        for r in reports:
            ce = ("" if r.counterexample is None
                  else json.dumps(r.counterexample, sort_keys=True))
            writer.writerow([r.check_id, str(r.passed).lower(), ce])
    else:
        for r in reports:
            if r.passed:
                print(f"PASS {r.check_id}")
            else:
                ce = r.counterexample
                print(f"FAIL {r.check_id} at {ce['inputs']}: "
                      f"{ce['lhs']} != {ce['rhs']}")
        print(f"passed {passed}/{len(reports)}")
    return 0 if passed == len(reports) else 1


# ----------------------------------------------------------------------
# parser assembly


def _add_family_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   help="family name, e.g. chebyshev-t or apostol-bernoulli")
    p.add_argument("--k", type=int, default=None,
                   help="integer kernel power (apostol families)")
    p.add_argument("--lambda", dest="lam", default=None, metavar="P/Q",
                   help="scale parameter (apostol families)")
    p.add_argument("--z", type=int, default=None,
                   help="integer kernel exponent")
    p.add_argument("--a", default=None, metavar="P/Q",
                   help="kernel parameter")
    p.add_argument("--b", default=None, metavar="P/Q",
                   help="kernel shift")
    p.add_argument("--alpha", default=None, metavar="P/Q",
                   help="Dickson parameter")
    p.add_argument("--j", type=int, default=None,
                   help="t-power of the y term (gould-hopper)")
    p.add_argument("--r", type=int, default=None,
                   help="number of u-variables")
    p.add_argument("--fkind", choices=("bernoulli", "euler"), default=None,
                   help="kernel kind for the m/bform/r1 families")


def _add_format_option(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"),
                   default="text", help="output format (default text)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polygen",
        description="Exact tables, series and identity checks for "
                    "generating-function polynomial families.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_table = sub.add_parser(
        "table", help="closed-form values over an n-range")
    _add_family_options(p_table)
    p_table.add_argument("--n", required=True, metavar="N|LO..HI",
                         help="index or inclusive range, e.g. 0..8")
    _add_format_option(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_series = sub.add_parser(
        "series", help="truncated generating series of a family")
    _add_family_options(p_series)
    p_series.add_argument(
        "--order", type=int, default=None,
        help="truncation order (default POLYGEN_ORDER or 16)")
    _add_format_option(p_series)
    p_series.set_defaults(func=_cmd_series)

    p_check = sub.add_parser(
        "check", help="run one identity check or a named suite")
    p_check.add_argument("--suite", default=None,
                         help="suite name, e.g. all or section5")
    p_check.add_argument("--id", dest="check_id", default=None,
                         help="single check id, e.g. dickson-gf-discrepancy")
    p_check.add_argument("--n-max", dest="n_max", type=int, default=None,
                         help="override the default index cap")
    p_check.add_argument("--r-max", dest="r_max", type=int, default=None,
                         help="override the default u-variable cap")
    _add_format_option(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_expand = sub.add_parser(
        "expand", help="canonical string of one closed-form value")
    _add_family_options(p_expand)
    p_expand.add_argument("--n", required=True, metavar="N",
                          help="single index")
    _add_format_option(p_expand)
    p_expand.set_defaults(func=_cmd_expand)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, RangeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
