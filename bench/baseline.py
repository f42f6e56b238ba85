#!/usr/bin/env python3
"""Re-measure the per-layer baseline that ROADMAP aim 1 quotes.

    python3 bench/baseline.py

Run from the root of a checkout.  Each call runs under the span recorder
for its counters (the same wrappers as the traced benchmark run) and
again without it for its time; the table reports medians and the range
of the repeats, not a best-of-N.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as W  # noqa: E402
from w9periods import geodesic, periods, w9  # noqa: E402


def plain(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def traced(fn, repeats):
    """Wall seconds of each repeat, the recorder of the last one, its output."""
    times = []
    for _ in range(repeats):
        rec = spans.Recorder()
        restore = spans.install(rec)
        try:
            t0 = time.perf_counter()
            root = rec.begin_item(0)
            out = fn()
            rec.exit(root)
            times.append(time.perf_counter() - t0)
        finally:
            restore()
    return times, rec, out


def process(code, args, repeats):
    """Seconds of `python -c code args`, from spawn to the child's exit stamp."""
    env = W.cli_env()
    times = []
    for _ in range(repeats):
        rc, _, stderr, seconds = W.run_stamped(code, args, env)
        if rc != 0 or seconds is None:
            raise RuntimeError(f"{code} {args} failed: {stderr.strip()[-200:]}")
        times.append(seconds)
    return times


def row(name, times, unit, note="", fn=None):
    """Median and range of the untraced repeats (if fn is given, fn is
    re-run that many times without the recorder) and the traced median."""
    scale = {"ms": 1e3, "s": 1.0}[unit]
    untraced = plain(fn, len(times)) if fn is not None else times
    med = statistics.median(untraced) * scale
    lo, hi = min(untraced) * scale, max(untraced) * scale
    with_spans = f"{statistics.median(times) * scale:.3g} {unit}" if fn is not None else "-"
    print(f"| {name} | {med:.3g} {unit} | {lo:.3g}-{hi:.3g} | {with_spans} | {len(times)} "
          f"| {note} |")


def main():
    s = W.S_SQUARE
    curve = w9.curve_Qs(s)
    cover = w9.double_cover(curve)
    plan2 = periods.build_cycles(curve, periods.LAYOUT_GENUS2)
    plan3 = periods.build_cycles(cover, periods.LAYOUT_COVER)
    W.family_item(0.3)
    print("| call | median | range | traced median | repeats | counters (traced) |")
    print("|---|---|---|---|---|---|")
    for name, c, plan in (("period_matrix genus 2", curve, plan2),
                          ("period_matrix cover", cover, plan3)):
        fn = (lambda c=c, plan=plan: periods.period_matrix(c, plan))
        t, rec, _ = traced(fn, 21)
        levels = rec.counts["quadrature.levels"] / rec.calls["quadrature.integrate_levels"]
        row(name, t, "ms", f"{rec.calls['periods.arc_integrals']} arcs, "
            f"{levels:.2g} levels per arc, {rec.counts['quadrature.nodes']} nodes", fn)
    fn = (lambda: w9.theta_membership_check(W.ZHAT1))
    t, rec, _ = traced(fn, 21)
    row("theta membership on ZHAT1", t, "ms",
        f"{rec.counts['theta.cube_terms']} cube terms, radius {rec.radii[-1]}", fn)
    fn = (lambda: geodesic.main_series(1.0, 4.0 / 3.0))
    t, rec, _ = traced(fn, 51)
    row("main_series(1, 4/3)", t, "ms", f"radius {rec.radii[-1]}", fn)
    fn = (lambda: geodesic.solve_y(1.0))
    t, rec, pt = traced(fn, 7)
    row("solve_y(1)", t, "ms", f"{rec.calls['geodesic.main_series']} series evaluations, "
        f"y - 4/3 = {pt.y - 4 / 3:.1e}", fn)
    fn = (lambda: geodesic.trace(1.0, 10.0, 50))
    t, rec, pts = traced(fn, 3)
    bad = [f"{p.t:.2f}" for p in pts if p.flags]
    row("trace(1, 10, 50)", t, "s", f"{rec.calls['geodesic.main_series']} series evaluations, "
        f"error rows at t = {', '.join(bad)}", fn)
    verify = process(W.CLI_CODE, ["verify", "--s", "2-sqrt(3)"], 7)
    numpy_import = process("import numpy", [], 7)
    cli_import = process("import w9periods.cli", [], 7)
    bare = process("pass", [], 7)
    share = statistics.median(numpy_import) / statistics.median(verify)
    row("verify --s 2-sqrt(3), process", verify, "s",
        f"numpy import {share:.0%} of it")
    row("python -c 'import numpy'", numpy_import, "s")
    row("python -c 'import w9periods.cli'", cli_import, "s")
    row("python -c pass", bare, "s")
    print(f"\npython {sys.version.split()[0]}, numpy {np.__version__}, "
          f"nproc {os.cpu_count()}")


if __name__ == "__main__":
    main()
