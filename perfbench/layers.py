"""Per-layer metrics derived from the span files that tracer.py writes.

A span's self time is its duration minus the durations of its direct
children.  Spans are stored in start order, so a child always has a
larger index than its parent and one pass from the last span to the
first settles every self time.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict

from tracer import CLOSEDFORM_FNS, NOT_IMPLEMENTED, SPAN_COLUMNS

#: Suite membership of the catalog the benchmark expects.
SUITE_MEMBERS = {
    "section2": ("lemma1", "lemma2", "k_decomposition", "k1hc", "k2hs",
                 "c1_linear_comb"),
    "section3": ("nk1", "nk2", "nk3", "h_average", "thm_2_3", "thm_2_4",
                 "bernl_reduction", "bernl_double_sum", "euler_reduction",
                 "euler_double_sum", "mbs_reduction", "mbs_double_sum",
                 "mes_reduction", "mes_double_sum"),
    "section4": ("n_hypergeom_0f0", "n_hypergeom_0f1", "riemann_1y4a",
                 "riemann_1y4b", "riemann_1y4c", "stirling_remark"),
    "section5": ("p1p2_r1a_l1a", "p3p4_chebyshev", "ct_su", "dickson_ct",
                 "dickson_su"),
    "section6": ("ut_convolution", "dickson_ut", "ect_esu", "bct_bsu",
                 "dickson_ect_bct", "derivative_block", "t_prime",
                 "second_derivative", "recurrence_s1_s2", "tileu", "tileu2"),
    "discrepancies": ("dickson_gf_discrepancy", "gould_hopper_discrepancy",
                      "dickson_relation_discrepancy"),
}

#: Every check of the catalog, in catalog order.
CATALOG = tuple(cid for ids in SUITE_MEMBERS.values() for cid in ids)
SUITES = tuple(SUITE_MEMBERS)
#: Checks timed one by one: section3 and the s-reduced Chebyshev check.
TIMED_CHECKS = SUITE_MEMBERS["section3"] + ("p3p4_chebyshev",)
IMPORTED = ("exact", "series", "genfun", "closedform", "identities", "cli")
_SERIES_OPS = ("exp", "cos_sin", "invert", "pow_int")


def _metric_units() -> dict[str, str]:
    units = {f"setup.import.{m}_s": "s" for m in IMPORTED}
    units.update({"cli.main_s": "s", "cli.self_s": "s",
                  "cli.output_bytes": "B"})
    units.update({f"identities.suite.{s}_s": "s" for s in SUITES})
    units.update({f"identities.check.{c}_s": "s" for c in TIMED_CHECKS})
    units.update({"genfun.build_calls": "count", "genfun.build_misses": "count",
                  "genfun.build_self_s": "s",
                  "genfun.build_from_closedform": "count"})
    units.update({"series.mul_calls": "count", "series.mul_self_s": "s"})
    units.update({f"series.{op}_self_s": "s" for op in _SERIES_OPS})
    units["series.to_json_self_s"] = "s"
    for fn in CLOSEDFORM_FNS:
        units[f"closedform.{fn}_calls"] = "count"
        units[f"closedform.{fn}_self_s"] = "s"
    units.update({
        "exact.mul_calls": "count", "exact.mul_self_s": "s",
        "exact.term_products": "count", "exact.mul_by_one": "count",
        "exact.mul_by_const_poly": "count",
        "exact.add_calls": "count", "exact.add_self_s": "s",
        "exact.cpoly_mul_self_s": "s", "exact.substitute_self_s": "s",
        "exact.reduce_s_self_s": "s",
        "exact.eq_calls": "count", "exact.eq_self_s": "s",
        "exact.render_self_s": "s",
        "exact.nonint_coef_share": "ratio", "exact.rendered_terms": "count",
        "memory.cache_entries": "count", "memory.live_polys": "count",
        "memory.live_terms": "count",
        "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
        "trace.overhead": "ratio",
    })
    return units


#: Every per-layer metric with its unit, in report order.
UNITS = _metric_units()


def load_spans(prefix: str) -> tuple[dict, dict[str, array]]:
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    cols = {}
    with open(prefix + ".spans", "rb") as fh:
        for column, code in SPAN_COLUMNS:
            col = array(code)
            col.fromfile(fh, meta["spans"])
            cols[column] = col
    return meta, cols


class Totals:
    """Per-layer totals summed over the traced requests of one round."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.output_bytes: list[int] = []
        # the two totals reached by independent paths
        self.series_products_counted = 0
        self.series_products_expected = 0

    def add_request(self, prefix: str) -> None:
        meta, cols = load_spans(prefix)
        names = meta["names"]
        name_col = cols["name"].tolist()
        parent = cols["parent"].tolist()
        arg = cols["arg"].tolist()
        start = cols["start"].tolist()
        end = cols["end"].tolist()
        n = len(name_col)
        child_s = [0.0] * n
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            name = names[name_col[i]]
            p = parent[i]
            self.self_s[name] += dur - child_s[i]
            if p >= 0:
                child_s[p] += dur
            pname = names[name_col[p]] if p >= 0 else ""
            if pname != name:
                # a directly recursive call is inside its caller's time
                self.incl_s[name] += dur
            if arg[i] == NOT_IMPLEMENTED:
                continue
            if name == "exact.eq":
                if pname != "exact.eq":
                    self.calls[name] += 1
                continue
            self.calls[name] += 1
            if name == "exact.mul":
                self.counts["exact.term_products"] += arg[i]
            elif name == "series.mul" and arg[i] >= 0:
                self.calls["series.mul.series"] += 1
                order = arg[i]
                self.series_products_expected += (order + 1) * (order + 2) // 2
            elif name == "genfun.build" and pname.startswith("closedform."):
                self.counts["genfun.build_from_closedform"] += 1
            if (name in ("exact.mul", "exact.cpoly_mul") and p >= 0
                    and pname == "series.mul" and arg[p] >= 0):
                self.series_products_counted += 1
        for key, value in meta["counts"].items():
            self.counts[key] += value
        self.counts["genfun.build_misses"] += meta["build_misses"]
        for key in ("cache_entries", "live_polys", "live_terms"):
            self.peaks[key] = max(self.peaks[key], meta[key])
        self.output_bytes.append(meta["output_bytes"])

    def metrics(self, import_s: dict[str, float], untraced_wall: float,
                traced_wall: float) -> dict[str, float]:
        s, c, k = self.self_s, self.calls, self.counts
        out = {f"setup.import.{m}_s": import_s[m] for m in IMPORTED}
        out["cli.main_s"] = self.incl_s["cli.main"]
        out["cli.self_s"] = s["cli.main"]
        out["cli.output_bytes"] = sum(self.output_bytes)
        check_s = {name[len("identities.check."):]: v
                   for name, v in self.incl_s.items()
                   if name.startswith("identities.check.")}
        for suite in SUITES:
            out[f"identities.suite.{suite}_s"] = sum(
                check_s.get(cid, 0.0) for cid in SUITE_MEMBERS[suite])
        for cid in TIMED_CHECKS:
            out[f"identities.check.{cid}_s"] = check_s.get(cid, 0.0)
        out["genfun.build_calls"] = c["genfun.build"]
        out["genfun.build_misses"] = k["genfun.build_misses"]
        out["genfun.build_self_s"] = s["genfun.build"]
        out["genfun.build_from_closedform"] = k["genfun.build_from_closedform"]
        out["series.mul_calls"] = c["series.mul.series"]
        out["series.mul_self_s"] = s["series.mul"]
        for op in _SERIES_OPS:
            out[f"series.{op}_self_s"] = s[f"series.{op}"]
        out["series.to_json_self_s"] = s["series.to_json"]
        for fn in CLOSEDFORM_FNS:
            out[f"closedform.{fn}_calls"] = c[f"closedform.{fn}"]
            out[f"closedform.{fn}_self_s"] = s[f"closedform.{fn}"]
        rendered = k["exact.rendered_terms"]
        out.update({
            "exact.mul_calls": c["exact.mul"],
            "exact.mul_self_s": s["exact.mul"],
            "exact.term_products": k["exact.term_products"],
            "exact.mul_by_one": k["exact.mul_by_one"],
            "exact.mul_by_const_poly": k["exact.mul_by_const_poly"],
            "exact.add_calls": c["exact.add"],
            "exact.add_self_s": s["exact.add"],
            "exact.cpoly_mul_self_s": s["exact.cpoly_mul"],
            "exact.substitute_self_s": s["exact.substitute"],
            "exact.reduce_s_self_s": s["exact.reduce_s"],
            "exact.eq_calls": c["exact.eq"],
            "exact.eq_self_s": s["exact.eq"],
            "exact.render_self_s": s["exact.render"],
            "exact.nonint_coef_share": (
                k["exact.rendered_nonint_terms"] / rendered if rendered else 0.0),
            "exact.rendered_terms": rendered,
            "memory.cache_entries": self.peaks["cache_entries"],
            "memory.live_polys": self.peaks["live_polys"],
            "memory.live_terms": self.peaks["live_terms"],
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead": traced_wall / untraced_wall - 1.0,
        })
        assert set(out) == set(UNITS)
        return out


def parse_importtime(stderr_text: str) -> dict[str, float]:
    """Self import time of each polygen module, in seconds."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        module = fields[2].strip()
        if module.startswith("polygen."):
            out[module[len("polygen."):]] = int(fields[0]) / 1e6
    return out
