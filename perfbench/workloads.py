"""The request lists of each workload, drawn from a seed.

A request is one cold ``python -m polygen ...`` process.  The seed
draws the rational parameters of the series and table requests from
small sets whose members do comparable work and hold no singular
choice, and it draws the rational point at which the benchmark
evaluates every output.  The same seed always gives the same requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

#: Values a coordinate of an evaluation point is drawn from: nonzero, so
#: that every monomial of an output contributes at the point.
POINT_VALUES = tuple(Fraction(v) for v in
                     ("1/2", "2/3", "3/4", "4/3", "3/2", "5/4", "-1/2",
                      "-2/3", "-3/2", "2", "-2", "5/3"))

#: The point where s^2 = 1 - x^2 holds, for the s-reduced family p3.
P3_POINT = {"x": Fraction(3, 5), "s": Fraction(4, 5)}


@dataclass
class Request:
    """One CLI request and what its output must satisfy."""

    kind: str                 # "catalog", "series" or "table"
    args: list[str]
    family: str = ""
    params: dict = field(default_factory=dict)
    lo: int = 0
    hi: int = 0               # last row, or the series order
    point: dict = field(default_factory=dict)

    def label(self) -> str:
        return " ".join(self.args)


def _point(rng: random.Random) -> dict:
    names = ["x", "y"] + [f"u{j}" for j in range(1, 5)]
    return {name: rng.choice(POINT_VALUES) for name in names}


def _flags(params: dict) -> list[str]:
    out = []
    for flag, value in params.items():
        out += [f"--{flag}", str(value)]
    return out


def _series(rng, family, params, order) -> Request:
    args = (["series", "--family", family] + _flags(params)
            + ["--order", str(order), "--format", "json"])
    return Request("series", args, family, params, 0, order, _point(rng))


def _table(rng, family, params, lo, hi) -> Request:
    args = (["table", "--family", family] + _flags(params)
            + ["--n", f"{lo}..{hi}"])
    point = _point(rng)
    if family == "p3":
        point.update(P3_POINT)
    return Request("table", args, family, params, lo, hi, point)


def verify_catalog(rng: random.Random) -> list[Request]:
    return [Request("catalog", ["check", "--suite", "all", "--format", "json"])]


def series_requests(rng: random.Random) -> list[Request]:
    c = rng.choice
    return [
        _series(rng, "m2", {"z": 2, "fkind": "euler", "a": c(["2", "3"]),
                            "b": c(["1/2", "3/2"]), "r": 3}, 24),
        _series(rng, "bform", {"z": -2, "fkind": "bernoulli", "a": 1,
                               "b": c(["1", "2"]), "r": 2}, 24),
        _series(rng, "g-kernel", {"r": 4}, 20),
        _series(rng, "chebyshev-t", {}, 80),
        _series(rng, "dickson-e", {"alpha": c(["2", "3", "-2"])}, 60),
        _series(rng, "apostol-bernoulli",
                {"k": 3, "lambda": c(["2", "3", "1/2"])}, 40),
        _series(rng, "gould-hopper", {"j": 3}, 60),
        _series(rng, "ec", {"z": 3, "a": c(["2", "3", "1/2"])}, 40),
    ]


def table_requests(rng: random.Random) -> list[Request]:
    c = rng.choice
    return [
        _table(rng, "chebyshev-t", {}, 0, 80),
        _table(rng, "dickson-d", {"alpha": c(["2", "3", "-2"])}, 0, 80),
        _table(rng, "apostol-euler",
               {"k": 3, "lambda": c(["2", "3"])}, 0, 60),
        _table(rng, "bc", {"z": 2, "a": c(["2", "3", "1/2"])}, 0, 40),
        _table(rng, "hermite-gen", {"r": 4}, 0, 40),
        _table(rng, "p3", {"r": 3}, 0, 30),
        _table(rng, "bform", {"z": 2, "fkind": "bernoulli",
                              "a": c(["2", "3"]), "b": c(["1/2", "3/2"]),
                              "r": 2}, 0, 16),
        _table(rng, "m2", {"z": 2, "fkind": "euler", "a": c(["2", "3"]),
                           "b": c(["1/2", "3/2"]), "r": 2}, 0, 16),
    ]


def series_table(rng: random.Random) -> list[Request]:
    """The series requests (JSON), then the table requests (text).

    One workload rather than two: the speed of a shared machine drifts
    over minutes, and fewer, longer runs per seed spread less.
    """
    return series_requests(rng) + table_requests(rng)


WORKLOADS = {
    "verify_catalog": verify_catalog,
    "series_table": series_table,
}


def requests(workload: str, seed: int) -> list[Request]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
