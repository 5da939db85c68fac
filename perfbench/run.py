"""Cold-process benchmark of the polygen CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One driver process starts one cold ``python -m polygen ...`` child at a
time (a closed loop with one client) and runs the workload's request
list as a round, again and again, as long as another round should end
within ``--seconds`` of the start (at least one round).  The
program runs from ``src/``; it need not be installed.  After the timed
rounds every output is checked against values computed apart from the
program (see check.py).  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of the cold children that do no real
  work, SETUP_PER_ROUND of them before every round;
* ``wall_s``: mean over rounds of the time from the start of a round's
  first request to the end of its last;
* ``cpu_s``: mean over rounds of the user plus system time of the
  round's children, read per child with ``os.wait4``;
* ``peak_rss_mb``: median over rounds of the largest peak resident set
  of any one child of the round, also from ``os.wait4``.

``--trace 1`` runs each request of one round twice, untraced and in a
fresh process under tracer.py, and reports the per-layer metrics of
layers.py with the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import workloads
from layers import IMPORTED, UNITS, Totals, parse_importtime

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Every run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0
#: The request a set-up child makes: polygen's start-up and nothing more.
NOOP = ["expand", "--family", "chebyshev-t", "--n", "0"]
#: A set-up child takes 0.1-0.2 s, and the speed of a shared machine
#: drifts over seconds, so set-up children are spread over the run.
SETUP_PER_ROUND = 4
IMPORT_SAMPLES = 3


class Child:
    """The outcome of one child process."""

    def __init__(self, rc: int, wall: float, cpu: float, rss_kb: int,
                 out: Path, err: Path) -> None:
        self.rc, self.wall, self.cpu, self.rss_kb = rc, wall, cpu, rss_kb
        self.out, self.err = out, err


def _env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


ENV = _env()


def run_child(cmd: list[str], tag: str, deadline: float) -> Child:
    """Run ``cmd`` with stdout and stderr in files; read its own rusage.

    The outputs go straight to files, so the driver's own memory stays
    below any child's: a child's peak resident set on Linux starts from
    its parent's peak at the fork.
    """
    out, err = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe,
                                stdin=subprocess.DEVNULL, env=ENV, cwd=ROOT)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss, out, err)


def polygen(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "polygen", *args]


def run_round(reqs, tag: str, deadline: float):
    """Run every request once, in order; returns (children, wall)."""
    start = time.perf_counter()
    children = [run_child(polygen(req.args), f"{tag}_{i}", deadline)
                for i, req in enumerate(reqs)]
    return children, time.perf_counter() - start


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def verify(reqs, first: list[Child], others: list[list[Child]]) -> list[str]:
    """Check the first round against the oracle and the rest against it."""
    problems = []
    for req, child in zip(reqs, first):
        if child.rc == 0:
            problems += check.check_output(req, child.out.read_bytes())
    digests = [_digest(c.out) for c in first]
    for round_ in others:
        for req, child, digest in zip(reqs, round_, digests):
            if child.rc == 0 and _digest(child.out) != digest:
                problems.append(f"{req.label()}: output differs between "
                                f"rounds")
    return problems


def measure(reqs, seconds: float, deadline: float):
    setups, rounds = [], []
    start = time.perf_counter()
    longest = 0.0
    # A round starts only if it should end within ``seconds``, judged by
    # the longest round so far, so a run does not overrun by a round.
    while not rounds or time.perf_counter() - start + longest <= seconds:
        begin = time.perf_counter()
        for _ in range(SETUP_PER_ROUND):
            child = run_child(polygen(NOOP), "setup", deadline)
            setups.append((child.rc, child.out.read_bytes(), child.wall))
        rounds.append(run_round(reqs, f"r{len(rounds)}", deadline))
        longest = max(longest, time.perf_counter() - begin)
    problems = []
    if any(rc != 0 or out != b"1\n" for rc, out, _ in setups):
        problems.append("set-up request failed")
    problems += verify(reqs, rounds[0][0], [r[0] for r in rounds[1:]])
    # The machine's speed drifts in stretches of tens of seconds, and a
    # median of a few rounds snaps to whichever stretch held most of
    # them; the mean weighs each stretch by its rounds and spreads less
    # from run to run.
    metrics = {
        "setup_s": (statistics.median(w for _, _, w in setups), "s"),
        "wall_s": (statistics.fmean(w for _, w in rounds), "s"),
        "cpu_s": (statistics.fmean(sum(c.cpu for c in cs)
                                   for cs, _ in rounds), "s"),
        "peak_rss_mb": (statistics.median(max(c.rss_kb for c in cs)
                                          for cs, _ in rounds) / 1024, "MB"),
    }
    return metrics, [c for cs, _ in rounds for c in cs], problems


def measure_traced(reqs, deadline: float):
    """Each request untraced ("u") and traced ("t"), side by side.

    The pair alternates its order from one request to the next, so a
    drift in the machine's speed does not land on one side only.
    """
    plain, traced = [], []
    for i, req in enumerate(reqs):
        for tag in ("ut" if i % 2 == 0 else "tu"):
            name = f"{tag}_{i}"
            if tag == "u":
                plain.append(run_child(polygen(req.args), name, deadline))
            else:
                traced.append(run_child(
                    [sys.executable, str(HERE / "tracer.py"), str(OUT / name),
                     "--", *req.args], name, deadline))
    plain_wall = sum(c.wall for c in plain)
    traced_wall = sum(c.wall for c in traced)
    samples = []
    for i in range(IMPORT_SAMPLES):
        child = run_child([sys.executable, "-X", "importtime",
                           "-m", "polygen", *NOOP], f"import{i}", deadline)
        samples.append(parse_importtime(child.err.read_text()))
    import_s = {m: statistics.median(s.get(m, 0.0) for s in samples)
                for m in IMPORTED}
    problems = verify(reqs, plain, [])
    totals = Totals()
    for req, p, t in zip(reqs, plain, traced):
        if p.rc != 0:
            continue
        if t.rc != 0 or _digest(t.out) != _digest(p.out):
            problems.append(f"{req.label()}: traced output differs")
            continue
        totals.add_request(str(OUT / t.out.stem))
        if totals.output_bytes[-1] != p.out.stat().st_size:
            problems.append(f"{req.label()}: traced cli.output_bytes "
                            f"{totals.output_bytes[-1]} != untraced stdout "
                            f"{p.out.stat().st_size} bytes")
    # How many products a series multiply makes is the program's own
    # choice, so a difference is reported here and tested in
    # test_perfbench.py, not counted against the output.
    print(f"trace: {totals.series_products_counted} coefficient products "
          f"in series.mul spans (expected "
          f"{totals.series_products_expected}); output bytes "
          f"{sum(totals.output_bytes)}", file=sys.stderr)
    values = totals.metrics(import_s, plain_wall, traced_wall)
    metrics = {name: (values[name], unit) for name, unit in UNITS.items()}
    return metrics, plain + traced, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "polygen" / "__main__.py").is_file():
        print(f"error: no polygen sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    reqs = workloads.requests(args.workload, args.seed)
    if args.trace:
        metrics, children, problems = measure_traced(reqs, deadline)
    else:
        metrics, children, problems = measure(reqs, args.seconds, deadline)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    failed = sum(1 for c in children if c.rc != 0)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
