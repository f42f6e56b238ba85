"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

They run from the root of a checkout and take about half a minute.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from w9periods import geodesic, siegel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_one_seed_gives_identical_inputs(name):
    wl = W.WORKLOADS[name]()
    first, again, other = wl.inputs(7, 60), wl.inputs(7, 60), wl.inputs(8, 60)
    assert repr(first) == repr(again)
    assert repr(first[1:]) != repr(other[1:])
    assert len(set(repr(x) for x in first)) == len(first)


def test_family_inputs_span_both_cusps():
    s = np.array(W.FamilyPeriods().inputs(5, 2001)[1:])
    assert W.S_RANGE[0] <= s.min() and s.max() <= W.S_RANGE[1]
    assert abs((s < W.SQRT3_3 / 2).mean() - 0.5) < 0.01
    assert abs((s < 0.05).mean() - 0.284) < 0.01 and abs((s > 0.5).mean() - 0.321) < 0.01


def test_lambda_of_generated_theta_inputs():
    for t, y in W.ThetaConstants().inputs(5, 40)[1:]:
        lam = siegel.min_eig_im(geodesic.zhat_of_ty(t, y))
        assert W.LAMBDA_RANGE[0] * (1 - 1e-9) <= lam <= W.LAMBDA_RANGE[1] * (1 + 1e-9)


def test_lattice_oracle_matches_fixture():
    vals = W.lattice_theta(W.ZHAT1[None], [((1, 1, 1), (1, 0, 1)), ((0, 0, 0), (0, 0, 0))], 10)
    assert abs(vals[0, 0]) < 1e-12 and abs(vals[1, 0]) > 0.5


def _fails(wl, inputs, outputs):
    reasons = run.check_outputs(wl, inputs, outputs)
    return run.end_to_end([0.01] * len(outputs), reasons, 1.0)


def test_perturbed_zhat_counts_as_failure():
    wl = W.FamilyPeriods()
    inputs = [W.S_SQUARE, 0.3]
    outputs = [W.family_item(s) for s in inputs]
    assert _fails(wl, inputs, outputs)["fail_ratio"] == 0.0
    Z, Zhat, shape = outputs[1]
    bad = Zhat.copy()
    bad[0, 0] += 1e-4
    m = _fails(wl, inputs, [outputs[0], (Z, bad, shape)])
    assert m["fail_ratio"] == 0.5 and m["items_per_s"] == 1.0


def test_wrong_root_counts_as_failure():
    wl = W.GeodesicTrace()
    inputs = [(1.0, 1.1, 2)]
    pts = geodesic.trace(*inputs[0])
    assert _fails(wl, inputs, [pts])["fail_ratio"] == 0.0
    wrong = [pts[0], geodesic.GeodesicPoint(pts[1].t, pts[1].y + 1e-6, pts[1].Z,
                                            pts[1].Zhat, pts[1].residual)]
    assert _fails(wl, inputs, [wrong])["fail_ratio"] == 1.0


def test_wrong_theta_constant_and_raised_error_count_as_failures():
    wl = W.ThetaConstants()
    inputs = [(1.0, 4.0 / 3.0), (2.0, W.y_for_lambda(2.0, 0.4))]
    outputs = [W.theta_item(*ty) for ty in inputs]
    assert _fails(wl, inputs, outputs)["fail_ratio"] == 0.0
    v3, v2, member = outputs[1]
    v2 = v2.copy()
    v2[0] *= 1 + 1e-6
    assert _fails(wl, inputs, [outputs[0], (v3, v2, member)])["fail_ratio"] == 0.5
    assert _fails(wl, inputs, [outputs[0], ValueError("boom")])["fail_ratio"] == 0.5


def test_cli_check_compares_with_library():
    kind, argv, p = W.cli_command(np.array([0.05, 0.3, 0.5, 0.1]))
    assert kind == "periods_s"
    Z = W.cli_expected(kind, p)
    good = json.dumps({"Z": W.cli.encode_value(Z)})
    assert W.cli_check_one(kind, p, (0, good, "", 0.2)) is None
    bad = json.dumps({"Z": W.cli.encode_value(Z + 1e-6)})
    assert W.cli_check_one(kind, p, (0, bad, "", 0.2)) is not None
    assert W.cli_check_one(kind, p, (2, good, "error", 0.2)) is not None


def test_cli_item_timed_by_child_clock():
    wl = W.CliProcess()
    inp = ("classify_s", ["classify", "--s", "2-sqrt(3)"], {"s": W.S_SQUARE})
    t0 = time.monotonic()
    out = wl.run(inp)
    measured = time.monotonic() - t0
    code, _, stderr, seconds = out
    assert code == 0 and "bench-exit" not in stderr
    assert 0 < seconds < measured and wl.item_seconds(out, measured) == seconds
    assert W.cli_check_one(*inp[::2], out) is None


def test_recorder_self_times_add_up():
    rec = spans.Recorder()

    def leaf():
        return sum(range(20000))

    wrapped_leaf = rec.wrap("theta.leaf", leaf)
    wrapped_mid = rec.wrap("theta.mid", lambda: wrapped_leaf() + wrapped_leaf())
    root = rec.begin_item(0)
    wrapped_mid()
    rec.exit(root)
    assert rec.calls["theta.leaf"] == 2 and rec.calls["theta.mid"] == 1
    total_self = sum(rec.self_time.values())
    assert math.isclose(total_self, rec.total["item"], rel_tol=1e-9)
    assert rec.item_self_sums[0] <= rec.item_walls[0]
    assert [s[1] for s in rec.spans].count(None) == 1


def test_recorder_counts_solve_kinds_and_warm_fallbacks():
    from w9periods.errors import BracketError
    rec = spans.Recorder()

    def solve_y(t, cfg=None, policy=None, scan_window=None):
        if scan_window is not None:
            raise BracketError("no sign change")
        return t

    wrapped = rec.wrap("geodesic.solve_y", solve_y)
    with pytest.raises(BracketError):
        wrapped(2.0, None, None, (2.0, 3.0))
    wrapped(2.0, None, None, None)
    wrapped(3.0, scan_window=None)
    assert rec.calls["geodesic.solve_y.warm"] == 1
    assert rec.calls["geodesic.solve_y.cold"] == 2
    assert rec.counts["geodesic.warm_fallbacks"] == 1


def test_spec_lists_what_run_reports():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.FINAL_END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} <= set(W.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(trace):
    out = _run("family_periods", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["attempted"] >= 1 and final["failed"] == 0
    names = run.END_TO_END if trace == 0 else run.PER_LAYER
    printed = {line.split()[1]: line.split()[4] for line in lines if line.startswith("metric ")}
    for name, unit in names:
        assert printed[name] == unit
    want = run.FINAL_END_TO_END if trace == 0 else run.PER_LAYER
    assert {k: v["unit"] for k, v in final["metrics"].items()} == dict(want)
    if trace:
        assert final["metrics"]["errors.AccuracyError"]["value"] > 0
        assert final["metrics"]["probe.fail_ratio"]["value"] > 0
        assert abs(final["metrics"]["trace.self_sum_ratio"]["value"] - 1) < 0.1


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("family_periods", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
