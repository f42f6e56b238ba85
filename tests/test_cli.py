import functools
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import Z1, ZHAT1
import w9periods
from w9periods import cli, geodesic, periods
from w9periods.errors import TruncationError

SQRT3 = math.sqrt(3.0)
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_matrix(data):
    return cli.decode_matrix(data)


def test_expression_parser():
    assert cli.parse_expr("2-sqrt(3)") == 2 - SQRT3
    assert cli.parse_expr("1/3") == pytest.approx(1.0 / 3.0)
    assert cli.parse_expr("i") == 1j
    assert cli.parse_expr("4i/3") == pytest.approx(4j / 3)
    # the i suffix binds to the literal, so 4/3i means 4/(3i)
    assert cli.parse_expr("4/3i") == pytest.approx(-4j / 3)
    assert cli.parse_expr("-(2+3)*2") == -10
    assert cli.parse_expr("sqrt(2)*sqrt(2)") == pytest.approx(2.0)
    for bad in ("2 +", "foo", "1/0", "2**3", "pi", "sqrt(1,2)",
                "__import__('os')"):
        with pytest.raises(cli.UsageError):
            cli.parse_expr(bad)


def test_matrix_literal_parsing():
    M = cli.parse_matrix("[[i]]")
    assert M.shape == (1, 1) and M[0, 0] == 1j
    M = cli.parse_matrix("[[1+5i/3, 4i/3],[4i/3, 5i/3]]")
    assert np.abs(M - Z1).max() < 1e-15
    with pytest.raises(cli.UsageError):
        cli.parse_matrix("[[1,2],[3]]")
    for bad in ("[[1,2],[3,4]", "[[1,2]],[[3,4]]"):
        with pytest.raises(cli.UsageError):
            cli.parse_matrix(bad)
    assert cli.main(["theta", "--char", "1;1", "--matrix", "[[i],[2]"]) == 1


def test_periods_cover_fixture(capsys, tmp_path):
    out_file = tmp_path / "zhat.json"
    code, _, _ = run(capsys, "periods", "--s", "2-sqrt(3)", "--basis", "cover",
                     "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert np.abs(as_matrix(data["Zhat"]) - ZHAT1).max() < 1e-6
    assert np.abs(as_matrix(data["Z"]) - Z1).max() < 1e-6
    assert data["metadata"]["version"] == w9periods.__version__


def test_periods_usage_errors(capsys):
    code, _, err = run(capsys, "periods", "--s", "0.2", "--u", "-18")
    assert code == 1 and "exactly one of --roots, --s, --u" in err
    # the order-4 subfamily's --lambda is not an option
    code, _, _ = run(capsys, "periods", "--lambda", "2")
    assert code == 1
    code, _, err = run(capsys, "periods", "--roots=-1,0,1,2,3",
                       "--basis", "elliptic")
    assert code == 1 and "3 roots" in err
    code, _, _ = run(capsys, "periods", "--s", "0.2", "--membership-tol", "1e-8")
    assert code == 1
    code, _, _ = run(capsys, "trace", "--from", "1", "--to", "1", "--steps", "1",
                     "--series-tol", "1e-3")
    assert code == 1
    code, _, _ = run(capsys, "trace", "--from", "1", "--to", "1", "--steps", "1",
                     "--root-tol", "1e-9")
    assert code == 1


def test_periods_unwritable_out(capsys, tmp_path, monkeypatch):
    code, out, err = run(capsys, "periods", "--s", "0.2",
                         "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 1 and out == "" and "cannot write" in err

    # an --out in a missing directory is refused before any work
    def period_matrix(*args, **kwargs):
        raise AssertionError("verify ran before --out was refused")
    monkeypatch.setattr(periods, "period_matrix", period_matrix)
    code, out, err = run(capsys, "verify", "--grid", "5",
                         "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 1 and out == "" and "cannot write" in err


def test_periods_csv_cells_are_plain_floats(capsys):
    code, out, _ = run(capsys, "--format", "csv", "periods", "--roots=-1,0,1,2,3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "row,col,re,im" and len(lines) == 5
    Z = np.zeros((2, 2), dtype=complex)
    for line in lines[1:]:
        i, j, re, im = line.split(",")
        Z[int(i), int(j)] = complex(float(re), float(im))
    _, out, _ = run(capsys, "periods", "--roots=-1,0,1,2,3")
    assert np.array_equal(Z, as_matrix(json.loads(out)["Z"]))


def test_csv_refused_before_any_work(capsys, monkeypatch):
    def period_matrix(*args, **kwargs):
        raise AssertionError("verify ran before --format csv was refused")
    monkeypatch.setattr(periods, "period_matrix", period_matrix)
    code, out, err = run(capsys, "verify", "--grid", "5", "--format", "csv")
    assert code == 1 and out == "" and "no CSV form" in err


def test_periods_numerical_error_exit_code(capsys):
    code, _, err = run(capsys, "periods", "--s", "0.9")
    assert code == 2


def test_periods_non_finite_root(capsys):
    # rejected when the curve is built, before any quadrature level
    code, out, err = run(capsys, "periods", "--roots=-1,0,1e400,2,3")
    assert code == 2 and out == "" and "finite" in err


def test_theta_fixture(capsys, tmp_path):
    out_file = tmp_path / "zhat.json"
    run(capsys, "periods", "--s", "2-sqrt(3)", "--basis", "cover",
        "--out", str(out_file))
    code, out, _ = run(capsys, "theta", "--char", "111;101",
                       "--matrix", str(out_file))
    assert code == 0
    data = json.loads(out)
    assert data["abs"] < 1e-7
    assert data["parity"] == "even"
    code, out, _ = run(capsys, "theta", "--char", "000;000",
                       "--matrix", str(out_file))
    assert json.loads(out)["abs"] > 0.5


def test_theta_inline_odd(capsys):
    code, out, _ = run(capsys, "theta", "--char", "1;1", "--matrix", "[[i]]")
    assert code == 0
    data = json.loads(out)
    assert data["abs"] < 1e-12
    assert data["parity"] == "odd"


def test_theta_genus_mismatch(capsys):
    code, _, err = run(capsys, "theta", "--char", "11;11", "--matrix", "[[i]]")
    assert code == 1 and "does not match" in err


def test_theta_non_symmetric_matrix(capsys):
    code, out, err = run(capsys, "theta", "--char", "00;00",
                         "--matrix", "[[i,0.5],[-0.5,i]]")
    assert code == 2 and out == "" and "not symmetric" in err


def test_theta_removed_genus_flag(capsys):
    # the characteristic fixes the genus; there is no separate --g
    code, _, _ = run(capsys, "theta", "--char", "1;1", "--g", "1",
                     "--matrix", "[[i]]")
    assert code == 1


def test_theta_matrix_file_invalid_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"Z": [[1, 2]')
    code, out, err = run(capsys, "theta", "--char", "1;1", "--matrix", str(path))
    assert code == 1 and out == "" and err.startswith("usage error:")


def test_theta_matrix_file_ragged_rows(capsys, tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"Z": [[{"re": 0, "im": 1}, 0], [0]]}))
    code, out, err = run(capsys, "theta", "--char", "11;11", "--matrix", str(path))
    assert code == 1 and out == "" and err.startswith("usage error:")


def test_trace_csv_schema(capsys):
    code, out, _ = run(capsys, "--format", "csv", "trace",
                       "--from", "1", "--to", "1", "--steps", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,y,re_z11,im_z11,re_z12,im_z12,re_z22,im_z22,residual,flags"
    fields = lines[1].split(",")
    assert abs(float(fields[1]) - 4.0 / 3.0) < 1e-8


def test_trace_json_rows(capsys):
    code, out, _ = run(capsys, "trace", "--from", "1", "--to", "3",
                       "--steps", "5")
    assert code == 0
    rows = json.loads(out)["points"]
    assert len(rows) == 5
    assert all(r["residual"] < 1e-10 for r in rows)
    assert all(r["flags"] == "" for r in rows)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_trace_json_is_strict(capsys, monkeypatch):
    def solve_y(*args, **kwargs):
        raise TruncationError("radius")
    monkeypatch.setattr(geodesic, "solve_y", solve_y)
    code, out, _ = run(capsys, "trace", "--from", "1", "--to", "1",
                       "--steps", "1")
    assert code == 2
    data = json.loads(out, parse_constant=_reject_constant)
    (row,) = data["points"]
    assert row["flags"] == "error:TruncationError"
    assert row["t"] == 1.0
    assert all(row[k] is None for k in row if k not in ("t", "flags"))
    assert data["metadata"] == {"version": w9periods.__version__}


def test_trace_beyond_former_limit(capsys):
    code, out, _ = run(capsys, "trace", "--from", "5", "--to", "5",
                       "--steps", "1")
    assert code == 0
    (row,) = json.loads(out, parse_constant=_reject_constant)["points"]
    assert math.isfinite(row["y"]) and row["y"] > 10.0 / 3.0


def test_trace_beyond_t_max(capsys):
    code, out, _ = run(capsys, "trace", "--from", "700", "--to", "700",
                       "--steps", "1")
    assert code == 2
    (row,) = json.loads(out, parse_constant=_reject_constant)["points"]
    assert row["flags"] == "error:ParameterError" and row["y"] is None


def test_trace_rejects_infinite_end(capsys):
    code, out, err = run(capsys, "trace", "--from", "1", "--to", "inf",
                         "--steps", "2")
    assert code == 2 and out == "" and "t_end" in err


def test_trace_bounds_are_expressions(capsys):
    code, out, _ = run(capsys, "trace", "--from", "1/3", "--to", "1",
                       "--steps", "2")
    assert code == 0
    rows = json.loads(out)["points"]
    assert len(rows) == 2 and rows[0]["t"] == 1.0 / 3.0


def test_trace_below_former_limit(capsys):
    code, out, _ = run(capsys, "trace", "--from", "0.3", "--to", "1",
                       "--steps", "8")
    assert code == 0
    rows = json.loads(out, parse_constant=_reject_constant)["points"]
    assert len(rows) == 8 and all(r["flags"] == "" for r in rows)


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "--s", "2-sqrt(3)")
    assert code == 0
    data = json.loads(out)
    assert data["pass"]
    point = [c for c in data["checks"] if c["check"] == "extracted_point"][0]
    assert abs(point["t"] - 1.0) < 1e-9
    assert abs(point["y"] - 4.0 / 3.0) < 1e-9


def test_verify_metadata_lists_applied_settings(capsys):
    code, out, _ = run(capsys, "verify", "--s", "2-sqrt(3)")
    assert code == 0
    assert json.loads(out)["metadata"] == {"version": w9periods.__version__}
    # no quadrature tolerance is left to set: --quad-tol is an unknown flag
    code, _, err = run(capsys, "verify", "--s", "2-sqrt(3)", "--quad-tol", "1e-9")
    assert code == 1 and "--quad-tol" in err


def test_verify_grid(capsys):
    code, out, _ = run(capsys, "verify", "--grid", "3")
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_near_low_cusp(capsys):
    # the cover's arc from i to -i passes between -s and s
    code, out, _ = run(capsys, "verify", "--s", "0.001")
    assert code == 0
    assert json.loads(out)["pass"]


def test_verify_out_of_range(capsys):
    code, _, err = run(capsys, "verify", "--s", "0.9")
    assert code == 2 and "outside (0, sqrt(3)/3)" in err


def test_classify_abc(capsys):
    code, out, _ = run(capsys, "classify", "--abc", "1/3,1/2,2/3")
    assert code == 0
    data = json.loads(out)
    assert data["real_group"] == "D6"
    assert data["complex_group"] == "G24"


def test_classify_s(capsys):
    code, out, _ = run(capsys, "classify", "--s", "2-sqrt(3)")
    assert code == 0
    assert json.loads(out)["satisfied"] == ["A", "D"]


def test_module_entry_point():
    # python -m w9periods.cli: the __main__ path a shell user runs
    src = str(README.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "w9periods.cli", "classify", "--s", "0.1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["satisfied"] == []


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # quadrature.graded_nodes imports leggauss when first called, so a CLI
    # process that integrates no graded arc does not load numpy.polynomial
    src = str(README.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, w9periods.cli; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_classify_ordering_error(capsys):
    code, _, err = run(capsys, "classify", "--abc", "0.5,0.4,0.7")
    assert code == 2
    code, _, err = run(capsys, "classify", "--s", "0.9")
    assert code == 2 and "outside (0, sqrt(3)/3)" in err


def test_json_matrix_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "z.json"
    run(capsys, "periods", "--roots=-1,0,1,2,3", "--out", str(out_file))
    code, out, _ = run(capsys, "theta", "--char", "00;00",
                       "--matrix", str(out_file))
    assert code == 0
    M = cli.parse_matrix(str(out_file), prefer_g=2)
    curve = periods.HyperellipticCurve((-1.0, 0.0, 1.0, 2.0, 3.0))
    Z = periods.period_matrix(curve, periods.build_cycles(curve, periods.LAYOUT_GENUS2))
    assert np.array_equal(M, Z)


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# global flags\nformat=json\n")
    code, out, _ = run(capsys, "--config", str(cfg), "classify", "--s", "0.1")
    assert code == 0
    assert json.loads(out)["satisfied"] == []
    # a key that is no flag exits 1, as the flag itself does
    cfg.write_text("quad-tol=1e-9\nformat=json\n")
    code, _, _ = run(capsys, "--config", str(cfg), "classify", "--s", "0.1")
    assert code == 1


def test_config_file_equals_form(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=csv\n")
    code, out, _ = run(capsys, f"--config={cfg}", "periods", "--s", "0.2")
    assert code == 0
    assert out.startswith("row,col,re,im\n")
    # the command line wins over the file, --config may come last
    code, out, _ = run(capsys, "periods", "--u", "-18", "--format", "json",
                       "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["metadata"] == {"version": w9periods.__version__}


def test_determinism(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "trace", "--from", "1", "--to", "2",
                        "--steps", "3")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_readme_examples_parse():
    # every example of the README's "Command line" section is a valid
    # command line; parsed only, nothing runs
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("w9periods ")]
    assert len(lines) == 12
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])


def test_readme_library_names_exist():
    # every backticked name in a "- `w9periods.<module>`:" bullet of the
    # README's "Library entry points" section is an attribute of that
    # module; a dotted name is read from the package
    section = README.read_text().split("\n## Library entry points\n", 1)[1]
    bullets = re.findall(r"^- `w9periods\.(\w+)`:(.*?)(?=^- |\Z)",
                         section.split("\n## ", 1)[0], re.M | re.S)
    assert len(bullets) == 6
    for module_name, text in bullets:
        module = importlib.import_module(f"w9periods.{module_name}")
        for name in re.findall(r"`([\w.]+)`", text):
            if "." in name:
                functools.reduce(getattr, name.split("."), w9periods)
            else:
                assert hasattr(module, name), (module_name, name)
