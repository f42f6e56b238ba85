#!/usr/bin/env python3
"""w9periods benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
Each workload is a closed loop in this one process: one client, one item
at a time, BLAS threads pinned to 1.  The run

1. sets up: imports, generates the inputs from --seed, makes one warm-up
   call;
2. times items for --seconds seconds (with --trace 1: half the time
   untraced, then half with the span recorder installed, both from the
   first input, so that their ratio is the tracing overhead);
3. checks every item's output in an untimed phase;
4. with --trace 0, times the set-up of nine fresh processes;
5. prints every metric by name with its unit, and as its last line one
   JSON object {"correct", "attempted", "failed", "metrics"} holding the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

Results and spans are also written to .bench_out/ in the checkout.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 9
IMPORT_RUNS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

# (name, unit); fail_ratio is printed but not in the final line: every
# workload keeps to inputs on which nothing fails, so it is 0 unless the
# program regressed, and then "correct" is false anyway.
END_TO_END = (("items_per_s", "1/s"), ("item_p50_ms", "ms"), ("item_tail_ms", "ms"),
              ("fail_ratio", "fraction"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
FINAL_END_TO_END = tuple(m for m in END_TO_END if m[0] != "fail_ratio")

MODULES = ("quadrature", "periods", "siegel", "theta", "w9", "geodesic", "cli")
CLI_SUBCOMMANDS = ("periods", "theta", "verify", "classify", "trace")
PER_LAYER = (
    ("quadrature.tanh_sinh_nodes.calls", "count"),
    ("quadrature.tanh_sinh_nodes.hits", "count"),
    ("quadrature.tanh_sinh_nodes.misses", "count"),
    ("quadrature.tanh_sinh_nodes.self_ms", "ms"),
    ("quadrature.integrate_levels.calls", "count"),
    ("quadrature.integrate_levels.self_ms", "ms"),
    ("quadrature.levels_per_integral", "count"),
    ("quadrature.nodes", "count"),
    ("periods.estimate.self_ms", "ms"),
    ("periods.arc_integrals.calls", "count"),
    ("periods.arc_integrals.self_ms", "ms"),
    ("periods.period_matrix.calls", "count"),
    ("periods.period_matrix.ms", "ms"),
    ("periods.period_matrix.self_ms", "ms"),
    ("periods.build_cycles.self_ms", "ms"),
    ("siegel.lu_solve.calls", "count"),
    ("siegel.lu_solve.self_ms", "ms"),
    ("siegel.is_riemann_matrix.calls", "count"),
    ("siegel.is_riemann_matrix.self_ms", "ms"),
    ("siegel.min_eig_im.calls", "count"),
    ("siegel.min_eig_im.self_ms", "ms"),
    ("theta.theta_char.calls", "count"),
    ("theta.theta_char.ms", "ms"),
    ("theta.theta_char.self_ms", "ms"),
    ("theta.truncation_radius.mean", "count"),
    ("theta.truncation_radius.max", "count"),
    ("theta.cube_terms", "count"),
    ("theta.terms_per_call", "count"),
    ("w9.theta_membership_check.calls", "count"),
    ("w9.theta_membership_check.ms", "ms"),
    ("w9.curve_Qs.self_ms", "ms"),
    ("w9.double_cover.self_ms", "ms"),
    ("w9.cover_shape_extract.self_ms", "ms"),
    ("geodesic.main_series.calls", "count"),
    ("geodesic.main_series.self_ms", "ms"),
    ("geodesic.main_series.us_per_call", "us"),
    ("geodesic.solve_y.cold.calls", "count"),
    ("geodesic.solve_y.cold.ms", "ms"),
    ("geodesic.solve_y.warm.calls", "count"),
    ("geodesic.solve_y.warm.ms", "ms"),
    ("geodesic.series_per_solve.cold", "count"),
    ("geodesic.series_per_solve.warm", "count"),
    ("geodesic.warm_fallbacks", "count"),
    ("cli.import_s", "s"),
    ("cli.main.self_ms", "ms"),
) + tuple((f"cli.process_ms.{c}", "ms") for c in CLI_SUBCOMMANDS) + tuple(
    (f"{m}.self_ms", "ms") for m in MODULES[:-1] + ("bench",)) + (
    ("errors.AccuracyError", "count"),
    ("errors.TruncationError", "count"),
    ("errors.BracketError", "count"),
    ("errors.other", "count"),
    ("probe.fail_ratio", "fraction"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_sum_ratio", "ratio"),
    ("trace.items", "count"),
)
KNOWN_ERRORS = ("AccuracyError", "TruncationError", "BracketError")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# timing


def run_phase(wl, inputs, seconds, rec=None):
    """Closed loop: the next item starts when the previous one has ended,
    while time remains.  Returns (outputs, item seconds, wall seconds)."""
    from spans import install
    restore = install(rec) if rec is not None and wl.in_process else None
    outputs, times = [], []
    start = time.perf_counter()
    deadline = start + seconds
    try:
        for i, inp in enumerate(inputs):
            if time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            root = None
            if rec is not None:
                if wl.in_process:
                    root = rec.begin_item(i)
                else:
                    rec.item = i
            try:
                out = wl.run(inp, rec)
            except Exception as exc:  # noqa: BLE001 - counted as a failed item
                out = exc
            finally:
                if root is not None:
                    rec.exit(root)
            times.append(wl.item_seconds(out, time.perf_counter() - t0))
            outputs.append(out)
    finally:
        if restore is not None:
            restore()
    return outputs, times, time.perf_counter() - start


def check_outputs(wl, inputs, outputs) -> list:
    """Reason per item (None = passed); raised exceptions fail by type."""
    reasons = [f"raised {type(o).__name__}: {o}" if isinstance(o, Exception) else None
               for o in outputs]
    done = [i for i, r in enumerate(reasons) if r is None]
    checked = wl.check([inputs[i] for i in done], [outputs[i] for i in done])
    for i, r in zip(done, checked):
        reasons[i] = r
    return reasons


def tail(values):
    """(value, percentile, n): the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum if there are too few."""
    vals = sorted(values)
    n = len(vals)
    if n <= TAIL_BEYOND:
        return vals[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return vals[k], 100.0 * (k + 1) / n, n


def end_to_end(times, reasons, wall) -> dict:
    passed = [t for t, r in zip(times, reasons) if r is None]
    failed = len(times) - len(passed)
    ms = [1e3 * t for t in passed] or [0.0]
    tail_ms, pct, n = tail(ms)
    return {"items_per_s": len(passed) / wall if wall > 0 else 0.0,
            "item_p50_ms": statistics.median(ms),
            "item_tail_ms": tail_ms,
            "fail_ratio": failed / max(1, len(times)),
            "_tail": (pct, n)}


def measure_setup(args) -> list:
    """Seconds from spawning a fresh process to the end of its set-up, read
    on the shared monotonic clock, so that the wait for its 'ready' line
    does not count."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            word, _, stamp = proc.stdout.readline().partition(" ")
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if word != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with code {code}")
        times.append(float(stamp) - t0)
    return times


def measure_import() -> float:
    """Median seconds of `python -c "import w9periods.cli"`, spawn to exit stamp."""
    from workloads import cli_env, run_stamped
    env = cli_env()
    times = []
    for _ in range(IMPORT_RUNS):
        code, _, stderr, seconds = run_stamped("import w9periods.cli", [], env)
        if code != 0 or seconds is None:
            raise RuntimeError(f"import w9periods.cli failed: {stderr.strip()[-200:]}")
        times.append(seconds)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(rec, items, cache_delta) -> dict:
    """Per traced item unless the name says otherwise (`.ms` is per call)."""
    n = max(1, items)
    calls, total, own, counts = rec.calls, rec.total, rec.self_time, rec.counts
    m = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            m[name] = calls.get(base, 0) / n
        elif field == "self_ms":
            m[name] = 1e3 * own.get(base, 0.0) / n
        elif field == "ms":
            m[name] = 1e3 * total.get(base, 0.0) / max(1, calls.get(base, 0))
    m["quadrature.tanh_sinh_nodes.hits"] = (counts["quadrature.hits"] + cache_delta[0]) / n
    m["quadrature.tanh_sinh_nodes.misses"] = (counts["quadrature.misses"] + cache_delta[1]) / n
    m["quadrature.levels_per_integral"] = (
        counts["quadrature.levels"] / max(1, calls.get("quadrature.integrate_levels", 0)))
    m["quadrature.nodes"] = counts["quadrature.nodes"] / n
    m["theta.truncation_radius.mean"] = statistics.fmean(rec.radii) if rec.radii else 0.0
    m["theta.truncation_radius.max"] = max(rec.radii, default=0)
    m["theta.cube_terms"] = counts["theta.cube_terms"] / n
    m["theta.terms_per_call"] = (
        counts["theta.cube_terms"] / max(1, calls.get("theta.theta_char", 0)))
    ms_calls = calls.get("geodesic.main_series", 0)
    m["geodesic.main_series.us_per_call"] = (
        1e6 * total.get("geodesic.main_series", 0.0) / max(1, ms_calls))
    for kind in ("cold", "warm"):
        m[f"geodesic.series_per_solve.{kind}"] = (
            counts[f"geodesic.series.{kind}"]
            / max(1, calls.get(f"geodesic.solve_y.{kind}", 0)))
    m["geodesic.warm_fallbacks"] = counts["geodesic.warm_fallbacks"] / n
    m["cli.main.self_ms"] = 1e3 * sum(
        v for k, v in own.items() if k.startswith("cli.")) / n
    for module in MODULES[:-1]:
        m[f"{module}.self_ms"] = 1e3 * sum(
            v for k, v in own.items() if k.startswith(module + ".")) / n
    m["bench.self_ms"] = 1e3 * own.get("item", 0.0) / n
    ratios = [s / w for s, w in zip(rec.item_self_sums, rec.item_walls) if w > 0]
    m["trace.self_sum_ratio"] = statistics.median(ratios) if ratios else 0.0
    m["trace.items"] = items
    return m


# ---------------------------------------------------------------------------


def report(name, value, unit, note=""):
    print(f"metric {name} = {value!r} {unit}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready <monotonic time>' and exit")
    args = parser.parse_args(argv)

    if not (SRC / "w9periods" / "__init__.py").is_file():
        return fail(f"no w9periods sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import w9periods
    if Path(w9periods.__file__).resolve().parent != (SRC / "w9periods").resolve():
        return fail(f"imported w9periods from {w9periods.__file__}, not {SRC}")
    import workloads
    from w9periods.quadrature import tanh_sinh_nodes

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.inputs(args.seed, wl.pool_size(args.seconds))
    wl.warmup()
    if args.setup_only:
        print("ready", time.monotonic(), flush=True)
        return 0

    env = environment()
    print(f"env python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    OUT.mkdir(exist_ok=True)
    result = {"env": env, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}

    if args.trace == 0:
        outputs, times, wall = run_phase(wl, inputs, args.seconds)
        rss = peak_rss_mb(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
        reasons = check_outputs(wl, inputs, outputs)
        setups = measure_setup(args)
        e2e = end_to_end(times, reasons, wall)
        e2e["setup_s"] = statistics.median(setups)
        e2e["peak_rss_mb"] = rss
        pct, n = e2e.pop("_tail")
        notes = {"item_tail_ms": f" (p{pct:.2f} of {n} passed items)",
                 "setup_s": f" (median of {len(setups)} fresh processes)"}
        for name, unit in END_TO_END:
            report(name, e2e[name], unit, notes.get(name, ""))
        final = {name: {"value": e2e[name], "unit": unit} for name, unit in FINAL_END_TO_END}
        result["tail"] = {"percentile": pct, "samples": n}
    else:
        half = args.seconds / 2.0
        outputs, times, wall = run_phase(wl, inputs, half)
        from spans import Recorder
        rec = Recorder(child_dir=OUT)
        info0 = tanh_sinh_nodes.cache_info()
        t_outputs, t_times, t_wall = run_phase(wl, inputs, half, rec)
        info1 = tanh_sinh_nodes.cache_info()
        reasons = check_outputs(wl, inputs, outputs)
        t_reasons = check_outputs(wl, inputs, t_outputs)
        plain = end_to_end(times, reasons, wall)
        traced = end_to_end(t_times, t_reasons, t_wall)
        items = len(t_times)
        m = layer_metrics(rec, items, (info1.hits - info0.hits, info1.misses - info0.misses))
        m["trace.overhead_ratio"] = (traced["items_per_s"] / plain["items_per_s"]
                                     if plain["items_per_s"] else 0.0)
        attempted, failed, errors = wl.probes()
        m["probe.fail_ratio"] = failed / attempted if attempted else 0.0
        for kind in KNOWN_ERRORS:
            m[f"errors.{kind}"] = errors.get(kind, 0)
        m["errors.other"] = sum(v for k, v in errors.items() if k not in KNOWN_ERRORS)
        m["cli.import_s"] = measure_import()
        for sub in CLI_SUBCOMMANDS:
            ts = [t for t, inp, r in zip(times, inputs, reasons)
                  if r is None and not wl.in_process and inp[1][0] == sub]
            m[f"cli.process_ms.{sub}"] = 1e3 * statistics.median(ts) if ts else 0.0
        for name, unit in PER_LAYER:
            report(name, m[name], unit)
        print(f"untraced: {len(times)} items, {plain['items_per_s']!r} items/s; "
              f"traced: {items} items, {traced['items_per_s']!r} items/s; "
              f"probes: {failed} of {attempted} failed {errors}")
        final = {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w") as fh:
            json.dump({"env": env, "fields": ["id", "parent", "item", "name", "start", "end"],
                       "dropped": rec.dropped, "spans": rec.spans}, fh)
        print(f"spans: {len(rec.spans)} written to {spans_path.relative_to(ROOT)}"
              f" ({rec.dropped} beyond the cap not kept)")
        times, reasons = times + t_times, reasons + t_reasons

    failures = [r for r in reasons if r is not None]
    for r in failures[:5]:
        print(f"failed item: {r}")
    line = {"correct": not failures, "attempted": len(times), "failed": len(failures),
            "metrics": final}
    result.update(line)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
