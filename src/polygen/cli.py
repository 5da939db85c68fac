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
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Iterable, Optional

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
    """One named family: its flags and its two routes."""

    name: str
    params: dict[str, object]  # flag destination -> default, in order
    descriptor: Optional[type]
    closed_fn: Callable[..., object]


_FAMILIES: dict[str, Family] = {}

# every family flag's argparse destination, in option order
_DESTS = ("k", "lam", "z", "a", "b", "alpha", "j", "r", "fkind")


def _family(name, descriptor, closed_fn, aliases=(), params=None):
    if params is None:
        params = {field.name: field.default for field in fields(descriptor)}
    entry = Family(name, params, descriptor, closed_fn)
    _FAMILIES[name] = entry
    for alias in aliases:
        _FAMILIES[alias] = entry


_family("apostol-bernoulli", gf.ApostolBernoulli,
        lambda n, k, lam: cf.apostol("B", n, k, lam))
_family("apostol-euler", gf.ApostolEuler,
        lambda n, k, lam: cf.apostol("E", n, k, lam))
_family("cos-c", gf.CosC, lambda n: cf.cs_poly("C", n))
_family("sin-s", gf.SinS, lambda n: cf.cs_poly("S", n))
_family("chebyshev-t", gf.ChebyshevT, lambda n: cf.chebyshev("T", n))
# row n of the second-kind table is U_n, the coefficient of t^n
_family("chebyshev-u", gf.ChebyshevU, lambda n: cf.chebyshev("U", n + 1))
_family("dickson-d", gf.DicksonD,
        lambda n, alpha: cf.dickson("D", n, alpha))
_family("dickson-e", gf.DicksonE,
        lambda n, alpha: cf.dickson("E", n, alpha))
_family("gould-hopper", gf.GouldHopper, lambda n, j: cf.gould_hopper(n, j))
_family("hermite-gen", gf.HermiteGen, lambda n, r: cf.hermite_gen(n, r))
_family("g-kernel", gf.GKernel, lambda n, r: cf.kpoly("K", n, r))
_family("k1", gf.K1Kernel, lambda n, r: cf.kpoly("k1", n, r))
_family("k2", gf.K2Kernel, lambda n, r: cf.kpoly("k2", n, r))
_family("m1", gf.M1, lambda n, z, fkind, a, b, r:
        cf.hpoly("h", n, z, r, fkind, a, b))
_family("m2", gf.M2, lambda n, z, fkind, a, b, r:
        cf.hpoly("h1", n, z, r, fkind, a, b))
_family("m3", gf.M3, lambda n, z, fkind, a, b, r:
        cf.hpoly("h2", n, z, r, fkind, a, b))
_family("m4", gf.M4, lambda n, r: cf.cs_r("C", n, r))
_family("m5", gf.M5, lambda n, r: cf.cs_r("S", n, r))
_family("bform", gf.Bform, lambda n, z, fkind, a, b, r:
        cf.frak_h(1, n, z, r, fkind, a, b))
_family("b1form", gf.B1form, lambda n, z, fkind, a, b, r:
        cf.frak_h(2, n, z, r, fkind, a, b))
_family("bc", gf.BC, lambda n, z, a: cf.parametric_apostol("BC", n, z, a))
_family("bs", gf.BS, lambda n, z, a: cf.parametric_apostol("BS", n, z, a))
_family("ec", gf.EC, lambda n, z, a: cf.parametric_apostol("EC", n, z, a))
_family("es", gf.ES, lambda n, z, a: cf.parametric_apostol("ES", n, z, a))
_family("nw", gf.Nw, lambda n: cf.npoly(n), aliases=("np",))
_family("r1", gf.R1, lambda n, z, fkind, a, b: MultiPoly.const(
    cf.kernel_power_numbers(z, fkind, a, b, n)[n]))
# the p families have a closed route only, over Hermite-type values
_family("p1", None, lambda n, r: cf.ppoly("P1", n, r), params={"r": 2})
_family("p2", None, lambda n, r: cf.ppoly("P2", n, r), params={"r": 2})
_family("p3", None, lambda n, r: cf.ppoly("P3", n, r), params={"r": 2})
_family("p4", None, lambda n, r: cf.ppoly("P4", n, r), params={"r": 2})


def _flag(dest: str) -> str:
    return "lambda" if dest == "lam" else dest


def _family_params(args: argparse.Namespace) -> tuple[Family, dict]:
    """The requested family and its parameter values, in field order."""
    if args.family not in _FAMILIES:
        raise UsageError(
            f"unknown family {args.family!r}; known families: "
            f"{', '.join(sorted(set(_FAMILIES)))}")
    family = _FAMILIES[args.family]
    for dest in _DESTS:
        if getattr(args, dest) is not None and dest not in family.params:
            raise UsageError(
                f"family {family.name!r} does not take --{_flag(dest)}")
    params = {}
    for dest, default in family.params.items():
        raw = getattr(args, dest)
        if raw is None:
            params[dest] = default
        elif isinstance(default, Fraction):
            params[dest] = _parse_rational(raw)
        else:
            if dest in ("k", "z"):
                _check_size(f"|--{dest}|", abs(raw))
            params[dest] = raw
    return family, params


def _print_json(family: Family, params: dict, **body: object) -> None:
    shown = {_flag(dest): value if isinstance(value, (int, str))
             else str(value) for dest, value in params.items()}
    payload = {"family": family.name, "params": shown, **body}
    print(json.dumps(payload, indent=2))


def _print_rows(fmt: str, rows: Iterable[tuple[int, object]]) -> None:
    """One (n, value) row per line, as text or as CSV."""
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "value"])
        writer.writerows([n, str(value)] for n, value in rows)
    else:
        for n, value in rows:
            print(f"{n}\t{value}")


# ----------------------------------------------------------------------
# subcommands


def _cmd_table(args: argparse.Namespace) -> int:
    family, params = _family_params(args)
    rows = [(n, family.closed_fn(n, *params.values()))
            for n in _parse_n_range(args.n)]
    if args.format == "json":
        _print_json(family, params, rows=[
            {"n": n, "value": value.to_json_dict()} for n, value in rows])
    else:
        _print_rows(args.format, rows)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    family, params = _family_params(args)
    if family.descriptor is None:
        raise UsageError(f"family {family.name!r} has no generating-"
                         f"function route; use the table command")
    order = (_check_size("--order", args.order) if args.order is not None
             else series_mod.default_order())
    ser = gf.build(family.descriptor(*params.values()), order)
    if args.format == "json":
        _print_json(family, params, series=ser.to_json_dict())
    else:
        _print_rows(args.format,
                    ((n, ser.coefficient(n)) for n in range(order + 1)))
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    family, params = _family_params(args)
    ns = _parse_n_range(args.n)
    if len(ns) != 1:
        raise UsageError("expand takes a single n, not a range")
    value = family.closed_fn(ns[0], *params.values())
    if args.format == "json":
        _print_json(family, params, n=ns[0], value=value.to_json_dict())
    elif args.format == "csv":
        _print_rows("csv", [(ns[0], value)])
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
