"""Checks of polygen's outputs against values made apart from it.

Each function takes a request and the bytes the program printed and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracle
from layers import CATALOG
from oracle import GQ
from workloads import Request

#: Where Chebyshev T_n(x) = Re (x + i*sqrt(1 - x^2))^n is checked too.
CHEBYSHEV_POINT = {"x": Fraction(3, 5)}
_UNIT = GQ(Fraction(3, 5), Fraction(4, 5))

#: Parts that must be the zero polynomial, by family.
_ZERO_PART = {"m2": "im", "m3": "re"}


def check_catalog(out: bytes) -> list[str]:
    try:
        reports = json.loads(out)
    except ValueError as exc:
        return [f"catalog output is not JSON: {exc}"]
    ids = [r.get("id") for r in reports]
    if ids != list(CATALOG):
        return [f"expected one report per catalog check in catalog order, "
                f"got {len(ids)} reports"]
    problems = []
    for r in reports:
        if r.get("passed") is not True or r.get("counterexample") is not None:
            problems.append(f"check {r['id']} did not pass cleanly")
    return problems


def _compare(req: Request, n: int, got: GQ, want: GQ) -> list[str]:
    if got == want:
        return []
    return [f"{req.label()}: coefficient {n} is {got} at the point, "
            f"expected {want}"]


def _chebyshev_unit(req: Request, n: int, value) -> list[str]:
    """T_n at x = 3/5 must be Re (3/5 + 4i/5)^n."""
    got = value(CHEBYSHEV_POINT)
    want = GQ((_UNIT ** n).re)
    if got == want:
        return []
    return [f"{req.label()}: T_{n}(3/5) is {got}, expected {want}"]


def check_series(req: Request, out: bytes) -> list[str]:
    try:
        data = json.loads(out)
        ser = data["series"]
        coeffs = ser["coeffs"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{req.label()}: malformed series JSON: {exc}"]
    convention, want = oracle.expected_values(req.family, req.params,
                                              req.point, 0, req.hi)
    head = (data.get("family"), ser.get("order"), ser.get("convention"),
            len(coeffs))
    if head != (req.family, req.hi, convention, req.hi + 1):
        return [f"{req.label()}: header {head} does not match the request"]
    problems = []
    zero_part = _ZERO_PART.get(req.family)
    for n, (entry, target) in enumerate(zip(coeffs, want)):
        if zero_part and entry[zero_part]["terms"]:
            problems.append(f"{req.label()}: coefficient {n} has a nonzero "
                            f"{zero_part} part")
        try:
            got = oracle.eval_json_value(entry, req.point)
        except (KeyError, ValueError) as exc:
            problems.append(f"{req.label()}: coefficient {n}: {exc!r}")
            continue
        problems += _compare(req, n, got, target)
        if req.family == "chebyshev-t":
            problems += _chebyshev_unit(
                req, n, lambda pt: oracle.eval_json_value(entry, pt))
    return problems


def check_table(req: Request, out: bytes) -> list[str]:
    lines = out.decode().splitlines()
    if len(lines) != req.hi - req.lo + 1:
        return [f"{req.label()}: {len(lines)} rows, expected "
                f"{req.hi - req.lo + 1}"]
    _, want = oracle.expected_values(req.family, req.params, req.point,
                                     req.lo, req.hi)
    problems = []
    for n, (line, target) in enumerate(zip(lines, want), start=req.lo):
        index, sep, text = line.partition("\t")
        if index != str(n) or not sep:
            problems.append(f"{req.label()}: row {n} reads {line[:40]!r}")
            continue
        try:
            got = oracle.eval_text_value(text, req.point)
        except (KeyError, ValueError) as exc:
            problems.append(f"{req.label()}: row {n}: {exc!r}")
            continue
        problems += _compare(req, n, got, target)
        if req.family == "chebyshev-t":
            problems += _chebyshev_unit(
                req, n, lambda pt: oracle.eval_text_value(text, pt))
    return problems


def check_output(req: Request, out: bytes) -> list[str]:
    if req.kind == "catalog":
        return check_catalog(out)
    if req.kind == "series":
        return check_series(req, out)
    return check_table(req, out)
