"""Run one polygen CLI request with every layer wrapped in spans.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/tracer.py OUT_PREFIX -- polygen-args...

The request runs in this fresh process, so the program's caches start
empty, as they do in an untraced request.  The wrappers are installed
from outside the program: class attributes and module attributes are
replaced, and nothing under ``src/`` changes.  Each wrapper records a
span (name, parent, start, end, and one integer argument) into arrays
kept in memory; at exit the spans go to ``OUT_PREFIX.spans`` and the
counts, cache sizes and live-object totals to ``OUT_PREFIX.json``.
``perfbench/layers.py`` derives self times and per-layer totals from
them.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from array import array
from fractions import Fraction

#: Closed-form functions that get their own span.
CLOSEDFORM_FNS = ("cs_poly", "chebyshev", "dickson", "gould_hopper",
                  "hermite_gen", "kpoly", "npoly", "cs_r", "apostol",
                  "parametric_apostol", "hpoly", "frak_h", "ppoly")

#: Array type codes of the span columns, in file order.
SPAN_COLUMNS = (("name", "i"), ("parent", "i"), ("arg", "q"),
                ("start", "d"), ("end", "d"))

#: ``arg`` of a binary-operator span that returned NotImplemented.
NOT_IMPLEMENTED = -1


class Recorder:
    """Spans and counts of one request, kept in memory until exit."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {name: array(code) for name, code in SPAN_COLUMNS}
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, arg_of=None):
        """``fn`` inside a span; ``arg_of(args, result)`` fills ``arg``."""
        nid = self.name_id(name)
        c = self.cols
        names, parents, args_, starts, ends = (
            c["name"], c["parent"], c["arg"], c["start"], c["end"])
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            args_.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if result is NotImplemented:
                args_[idx] = NOT_IMPLEMENTED
            elif arg_of is not None:
                args_[idx] = arg_of(args, result)
            return result

        return traced

    def write(self, prefix: str, extra: dict) -> None:
        with open(prefix + ".spans", "wb") as fh:
            for column, _ in SPAN_COLUMNS:
                self.cols[column].tofile(fh)
        meta = {"names": self.names, "spans": len(self.cols["name"]),
                "counts": self.counts}
        meta.update(extra)
        with open(prefix + ".json", "w") as fh:
            json.dump(meta, fh)


class CountingStdout:
    """Forwards text to the real stdout and counts the encoded bytes."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode(self.inner.encoding))
        return self.inner.write(text)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


def _lru_caches(modules) -> list:
    """Every lru_cache object at module level in ``modules``."""
    found = []
    for mod in modules:
        for value in vars(mod).values():
            if hasattr(value, "cache_info") and value not in found:
                found.append(value)
    return found


def install(rec: Recorder):
    """Wrap the public operations of every layer.

    Returns the cli module, the unwrapped ``genfun.build`` (whose cache
    counts the misses) and every lru_cache of the program.
    """
    from polygen import cli, closedform, exact, genfun, identities, series
    from polygen.exact import CPoly, MultiPoly
    from polygen.series import TruncSeries

    caches = _lru_caches((exact, series, genfun, closedform, identities, cli))
    counts = rec.counts
    for key in ("exact.mul_by_one", "exact.mul_by_const_poly",
                "exact.rendered_terms", "exact.rendered_nonint_terms"):
        counts[key] = 0

    def is_const_poly(p) -> bool:
        return type(p) is MultiPoly and len(p.terms) == 1 and 0 in p.terms

    def mul_arg(args, result):
        a, b = args
        if type(b) is MultiPoly:
            if is_const_poly(a) or is_const_poly(b):
                counts["exact.mul_by_const_poly"] += 1
            return len(a.terms) * len(b.terms)
        if isinstance(b, (int, Fraction)) and b == 1:
            counts["exact.mul_by_one"] += 1
        return 0

    def series_mul_arg(args, result):
        # the truncation order N of a series x series product, else -2
        return args[0].order if isinstance(args[1], TruncSeries) else -2

    def count_rendered(fn):
        def counted(self, *args):
            counts["exact.rendered_terms"] += len(self.terms)
            counts["exact.rendered_nonint_terms"] += sum(
                1 for c in self.terms.values() if c.denominator != 1)
            return fn(self, *args)
        return counted

    mul = rec.wrap("exact.mul", MultiPoly.__mul__, mul_arg)
    MultiPoly.__mul__ = MultiPoly.__rmul__ = mul
    add = rec.wrap("exact.add", MultiPoly.__add__)
    MultiPoly.__add__ = MultiPoly.__radd__ = add
    MultiPoly.__eq__ = rec.wrap("exact.eq", MultiPoly.__eq__)
    MultiPoly.substitute = rec.wrap("exact.substitute", MultiPoly.substitute)
    exact._reduce_terms = rec.wrap("exact.reduce_s", exact._reduce_terms)
    for attr in ("__str__", "to_json_dict"):
        setattr(MultiPoly, attr, rec.wrap(
            "exact.render", count_rendered(getattr(MultiPoly, attr))))
        setattr(CPoly, attr, rec.wrap("exact.render", getattr(CPoly, attr)))
    cmul = rec.wrap("exact.cpoly_mul", CPoly.__mul__)
    CPoly.__mul__ = CPoly.__rmul__ = cmul
    CPoly.__eq__ = rec.wrap("exact.eq", CPoly.__eq__)

    TruncSeries.__mul__ = rec.wrap("series.mul", TruncSeries.__mul__,
                                   series_mul_arg)
    TruncSeries.to_json_dict = rec.wrap("series.to_json",
                                        TruncSeries.to_json_dict)
    for fn in ("exp", "cos_sin", "invert", "pow_int"):
        setattr(series, fn, rec.wrap(f"series.{fn}", getattr(series, fn)))

    build = genfun.build
    genfun.build = rec.wrap("genfun.build", build)

    for fn in CLOSEDFORM_FNS:
        setattr(closedform, fn,
                rec.wrap(f"closedform.{fn}", getattr(closedform, fn)))

    for check_id, runner in list(identities.CHECKS.items()):
        identities.CHECKS[check_id] = rec.wrap(
            f"identities.check.{check_id}", runner)

    cli.main = rec.wrap("cli.main", cli.main)
    return cli, build, caches


def _live_polys() -> tuple[int, int]:
    from polygen.exact import MultiPoly
    gc.collect()
    polys = terms = 0
    for obj in gc.get_objects():
        if type(obj) is MultiPoly:
            polys += 1
            terms += len(obj.terms)
    return polys, terms


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT_PREFIX -- polygen-args...",
              file=sys.stderr)
        return 2
    prefix, request = argv[0], argv[2:]
    rec = Recorder()
    cli, build, caches = install(rec)
    out = CountingStdout(sys.stdout)
    sys.stdout = out
    try:
        rc = cli.main(request)
    finally:
        sys.stdout = out.inner
        sys.stdout.flush()
    polys, terms = _live_polys()
    rec.write(prefix, {
        "rc": rc,
        "output_bytes": out.bytes,
        "build_misses": build.cache_info().misses,
        "cache_entries": sum(c.cache_info().currsize for c in caches),
        "live_polys": polys,
        "live_terms": terms,
    })
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
