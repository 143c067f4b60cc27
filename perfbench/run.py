"""Benchmark of ``ptl``: three workloads, end-to-end timings, a traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload turan --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off: it times set-up in fresh
interpreters, then runs whole rounds of the workload at workers = 2 until
``--seconds`` have passed, and checks every output.  ``--trace 1`` runs
three rounds at workers = 1, the middle one traced, and reports per-layer
calls, self time and work counters.  Either way the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Lines above it name the workload-specific timings.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 11
TIMED_WORKERS = 2

SETUP_CODE = """\
import ptl.search
from ptl.embedding import Graph, is_planar
from ptl.patterns import as_pattern
for name in {patterns!r}:
    as_pattern(name)
assert is_planar(Graph.complete(4))
"""


def _import_ptl() -> None:
    """Put the checkout's ``src`` first on the path of this process and of
    every interpreter it starts; refuse to run without it."""
    if not (SRC / "ptl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ptl package under {SRC}")
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    import ptl

    if Path(ptl.__file__).resolve().parent != SRC / "ptl":
        sys.exit(f"perfbench: imported ptl from {ptl.__file__}, not {SRC}")


def _setup_seconds(patterns: tuple[str, ...]) -> float:
    """Median wall time of a fresh interpreter doing the workload's set-up."""
    code = SETUP_CODE.format(patterns=patterns)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    """Largest RSS of this process and of any child it has waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def _run_round(ops):
    """Run every op once; returns wall seconds and (op, seconds, out, error)."""
    results = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # an op that raises counts as failed
            out, err = None, exc
            traceback.print_exc(file=sys.stderr)
        results.append((op, time.perf_counter() - t0, out, err))
    return time.perf_counter() - start, results


class Ledger:
    """Checks rounds of one workload and counts attempted and failed ops.

    The first round is checked in full; a later round passes an op when it
    reproduces the first round's signature for an op that passed.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first = None
        self.first_sigs: list[str | None] = []
        self.later: list[list[str | None]] = []
        self.problems: list[str] = workload.setup_problems()
        self.attempted = 0
        self.failed = 0

    def _sigs(self, results) -> list[str | None]:
        return [
            None if err else self.workload.signature(op, out)
            for op, _, out, err in results
        ]

    def add(self, results) -> None:
        self.attempted += len(results)
        if self.first is None:
            self.first = results
            self.first_sigs = self._sigs(results)
        else:
            self.later.append(self._sigs(results))

    def finish(self) -> dict[str, object]:
        """Checks everything added; returns the first round's good outputs."""
        w = self.workload
        passed = []
        good: dict[str, object] = {}
        for op, _, out, err in self.first:
            bad = [f"{op.name}: raised {err!r}"] if err else w.check(op, out)
            for line in bad:
                print(f"FAIL {line}", file=sys.stderr)
            passed.append(not bad)
            if not bad:
                good[op.name] = out
        self.failed += passed.count(False)
        for sigs in self.later:
            for i, sig in enumerate(sigs):
                if sig is None or sig != self.first_sigs[i] or not passed[i]:
                    self.failed += 1
        self.problems += w.cross_check(good)
        return good


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload, seconds: int) -> dict:
    setup_s = _setup_seconds(workload.patterns)
    ops = workload.ops(workers=TIMED_WORKERS)
    ledger = Ledger(workload)
    walls = []
    timings = []
    start = time.perf_counter()
    while True:
        wall, results = _run_round(ops)
        walls.append(wall)
        timings.append([(op, sec) for op, sec, _, _ in results])
        ledger.add(results)
        del results
        if time.perf_counter() - start >= seconds:
            break
    peak = _peak_rss_mb()
    ledger.finish()
    print(f"rounds {len(walls)} wall_s {walls}")
    for name, (value, unit) in workload.details(timings).items():
        print(f"detail {name} {value} {unit}")
    return {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "metrics": {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "peak_rss_mb": _metric(peak, "MB"),
        },
    }


def traced_run(workload, seed: int) -> dict:
    from tracing import Tracer

    ops = workload.ops(workers=1)
    ledger = Ledger(workload)
    # Untraced rounds before and after the traced one, so that drift over
    # the run does not read as tracing overhead.
    before, first_plain = _run_round(ops)
    with Tracer() as tracer:
        traced_wall, traced = _run_round(ops)
    ledger.add(traced)
    ledger.add(first_plain)
    del first_plain, traced
    after, second_plain = _run_round(ops)
    ledger.add(second_plain)
    del second_plain
    plain_wall = (before + after) / 2
    good = ledger.finish()
    if len(good) == len(ops):
        ledger.problems += workload.determinism(good)
    counters = workload.counters(good)

    totals = tracer.layer_totals()
    metrics = {}
    for layer, row in totals.items():
        if layer != "search":
            metrics[f"{layer}.calls"] = _metric(row["calls"], "count")
        metrics[f"{layer}.self_s"] = _metric(row["self_s"], "s")
    build = totals["embedding.plane_build"]
    match_at = totals["patterns.match_at"]
    metrics["embedding.plane_build.kept_ratio"] = _metric(
        (build["calls"] - build["raised"]) / build["calls"] if build["calls"] else 0.0,
        "ratio",
    )
    metrics["patterns.match_at.hit_ratio"] = _metric(
        match_at["hits"] / match_at["calls"] if match_at["calls"] else 0.0,
        "ratio",
    )
    metrics["search.enumerated"] = _metric(counters["enumerated"], "count")
    metrics["search.pruned"] = _metric(counters["pruned"], "count")
    metrics["search.yielded"] = _metric(totals["search"]["items"], "count")
    metrics["trace.overhead_s"] = _metric(traced_wall - plain_wall, "s")
    print(f"untraced_s {plain_wall} traced_s {traced_wall} spans {len(tracer.start)}")
    for layer, row in totals.items():
        print(f"layer {layer} calls {row['calls']} self_s {row['self_s']:.4f}")
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "metrics": metrics,
    }
    tracer.dump(OUT / f"trace-{workload.name}-{seed}.txt.gz", result)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_ptl()
    from workloads import WORKLOADS
    from ptl.embedding import Graph, is_planar

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    is_planar(Graph.complete(4))
    if args.trace:
        result = traced_run(workload, args.seed)
    else:
        result = timed_run(workload, args.seconds)
    for line in result.pop("problems"):
        print(f"PROBLEM {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
