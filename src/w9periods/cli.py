"""Command-line front end: periods, theta, trace, verify, classify.

Exit codes: 0 success, 1 usage error, 2 numerical failure.  Complex
numbers serialize as {"re": ..., "im": ...}; matrices as nested arrays.
Irrational parameters are accepted through a small expression evaluator
(numbers, + - * /, parentheses, sqrt(), the imaginary unit i), so exact
fixtures like 2-sqrt(3) can be passed without decimal truncation.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import os
import re
import sys

import numpy as np

from . import __version__, geodesic, periods, w9
from .errors import W9Error
from .siegel import min_eig_im
from .theta import (DEFAULT_POLICY, ThetaCharacteristic, parity, theta_char,
                    truncation_radius)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# expression evaluator

# "<number>i" and a lone "i" become Python imaginary literals ("4i" -> "4j")
_IMAGINARY = re.compile(r"(?<![\w.])((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?\s*i(?!\w)")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _eval_node(node) -> complex:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex):
        return complex(node.value)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_eval_node(node.left), _eval_node(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_eval_node(node.operand))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sqrt" and len(node.args) == 1
            and not node.keywords):
        val = _eval_node(node.args[0])
        if val.imag == 0 and val.real >= 0:
            return complex(math.sqrt(val.real))  # exact fixtures: 2-sqrt(3)
        return val ** 0.5
    raise UsageError(f"unsupported expression {ast.unparse(node)!r}")


def _parse(text: str):
    """The Python expression tree of text, read with i as the imaginary unit."""
    source = _IMAGINARY.sub(lambda m: (m.group(1) or "1") + "j", text).strip()
    return ast.parse(source, mode="eval").body


def parse_expr(text: str) -> complex:
    """Numeric expression over the complex numbers: literals, + - * / and
    unary signs, parentheses, sqrt(x), the imaginary unit i."""
    try:
        return _eval_node(_parse(text))
    except (SyntaxError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"cannot evaluate expression {text!r}: {exc}") from exc


def parse_real(text: str, what: str) -> float:
    val = parse_expr(text)
    if abs(val.imag) > 1e-15:
        raise UsageError(f"{what} must be real, got {text!r}")
    return val.real


def parse_matrix(text: str, prefer_g: int | None = None) -> np.ndarray:
    """A matrix given inline ([[...],[...]] with expression entries) or as
    a path to a JSON file using the {"re": ..., "im": ...} convention.

    A file written by the periods command may hold both Z and Zhat; when
    prefer_g is given the one with matching size wins.
    """
    text = text.strip()
    if not text.startswith("["):
        try:
            with open(text) as fh:
                data = json.load(fh)
            options = ([decode_matrix(data[k]) for k in ("Z", "Zhat") if k in data]
                       if isinstance(data, dict) else [decode_matrix(data)])
        except OSError as exc:
            raise UsageError(f"cannot read matrix file {text!r}: {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise UsageError(f"malformed matrix file {text!r}: {exc}") from exc
        if not options:
            raise UsageError(f"no matrix found in {text!r}")
        for M in options:
            if prefer_g is not None and M.shape == (prefer_g, prefer_g):
                return M
        return options[0]
    try:
        node = _parse(text)
        if not (isinstance(node, ast.List) and node.elts
                and all(isinstance(row, ast.List) for row in node.elts)):
            raise UsageError(f"matrix literal {text!r} is not a list of rows")
        rows = [[_eval_node(cell) for cell in row.elts] for row in node.elts]
    except (SyntaxError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"malformed matrix literal {text!r}: {exc}") from exc
    if not rows[0] or any(len(r) != len(rows[0]) for r in rows):
        raise UsageError("matrix rows must be nonempty and equally long")
    return np.array(rows, dtype=complex)


# ---------------------------------------------------------------------------
# serialization


def encode_value(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    return [[encode_value(complex(x)) for x in row] for row in v]


def decode_matrix(data) -> np.ndarray:
    def cell(c):
        if isinstance(c, dict):
            return complex(c.get("re", 0.0), c.get("im", 0.0))
        return complex(c)
    return np.array([[cell(c) for c in row] for row in data], dtype=complex)


def matrix_csv(M: np.ndarray) -> str:
    lines = ["row,col,re,im"]
    for i, row in enumerate(M.tolist()):  # Python floats: plain repr
        for j, v in enumerate(row):
            lines.append(f"{i},{j},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"


def emit(args, payload: dict, csv_text: str | None = None) -> None:
    """Write csv_text for --format csv (checked in main), else payload as
    JSON with a "metadata" object naming the package version."""
    out = (csv_text if args.format == "csv"
           else json.dumps({**payload, "metadata": {"version": __version__}},
                           indent=2, allow_nan=False) + "\n")
    if not args.out:
        sys.stdout.write(out)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(out)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _base_curve_from_args(args) -> periods.HyperellipticCurve:
    if args.s is not None:
        return w9.curve_Qs(parse_real(args.s, "--s"))
    if args.u is not None:
        shifted = [p - 1.0 for p
                   in w9.curve_Pu(parse_real(args.u, "--u")).branch_points]
        return periods.HyperellipticCurve(tuple(shifted))
    roots = [parse_expr(r) for r in args.roots.split(",") if r.strip()]
    return periods.HyperellipticCurve(tuple(roots))


# basis -> (number of base roots, cycle layout of the curve integrated)
BASES = {"genus2_w9": (5, periods.LAYOUT_GENUS2),
         "cover": (5, periods.LAYOUT_COVER),
         "elliptic": (3, periods.LAYOUT_ELLIPTIC)}


def cmd_periods(args) -> int:
    curve = _base_curve_from_args(args)
    count, layout = BASES[args.basis]
    if len(curve.branch_points) != count:
        raise UsageError(f"{args.basis} basis needs exactly {count} roots")
    if args.basis == "cover":
        curve = w9.double_cover(curve)
    M = periods.period_matrix(curve, periods.build_cycles(curve, layout))
    # the cover also emits the base matrix it determines, first
    payload = ({"Z": encode_value(w9.base_from_cover(M)), "Zhat": encode_value(M)}
               if args.basis == "cover" else {"Z": encode_value(M)})
    emit(args, payload, matrix_csv(M))
    return 0


def _parse_char(text: str) -> ThetaCharacteristic:
    parts = text.split(";")
    if len(parts) != 2:
        raise UsageError('characteristic must look like "111;101"')
    try:
        m = tuple(int(c) for c in parts[0].strip())
        n = tuple(int(c) for c in parts[1].strip())
        return ThetaCharacteristic(m, n)
    except (ValueError, W9Error) as exc:
        raise UsageError(f"bad characteristic {text!r}: {exc}") from exc


def cmd_theta(args) -> int:
    ch = _parse_char(args.char)
    Z = parse_matrix(args.matrix, prefer_g=ch.g)
    if Z.shape != (ch.g, ch.g):
        raise UsageError(f"matrix shape {Z.shape} does not match g = {ch.g}")
    value = theta_char(ch, np.zeros(ch.g), Z, DEFAULT_POLICY)
    radius = truncation_radius(min_eig_im(Z), ch.g, DEFAULT_POLICY)
    payload = {
        "value": encode_value(value),
        "abs": abs(value),
        "parity": parity(ch),
        "truncation_radius": radius,
        "tail_bound": DEFAULT_POLICY.tail_tol,
    }
    emit(args, payload)
    return 0


TRACE_HEADER = "t,y,re_z11,im_z11,re_z12,im_z12,re_z22,im_z22,residual,flags"


def _parse_t(text: str, what: str) -> float:
    """A float literal (inf included, for trace to reject) or an expression."""
    try:
        return float(text)
    except ValueError:
        return parse_real(text, what)


def cmd_trace(args) -> int:
    pts = geodesic.trace(_parse_t(args.t_start, "--from"),
                         _parse_t(args.t_end, "--to"), args.steps)
    rows = []
    for p in pts:
        z11, z12, z22 = p.Z[0, 0], p.Z[0, 1], p.Z[1, 1]
        rows.append({
            "t": p.t, "y": p.y,
            "re_z11": z11.real, "im_z11": z11.imag,
            "re_z12": z12.real, "im_z12": z12.imag,
            "re_z22": z22.real, "im_z22": z22.imag,
            "residual": p.residual, "flags": ";".join(p.flags),
        })
    lines = [TRACE_HEADER]
    for r in rows:
        lines.append(",".join(
            (r[k] if k == "flags" else repr(float(r[k])))
            for k in TRACE_HEADER.split(",")))
    # the NaN values of a failed point are written as JSON null
    points = [{k: v if k == "flags" or math.isfinite(v) else None
               for k, v in r.items()} for r in rows]
    emit(args, {"points": points}, "\n".join(lines) + "\n")
    return 2 if any(p.flags and p.flags[0].startswith("error:") for p in pts) else 0


def _verify_one(s: float) -> tuple[list[dict], bool]:
    tol = 1e-6
    checks = []

    def record(name, residual, ok=None):
        ok = residual < tol if ok is None else ok
        checks.append({"s": s, "check": name, "residual": residual, "pass": ok})
        return ok

    curve = w9.curve_Qs(s)  # first, so an s out of range is the error reported
    cover = w9.double_cover(curve)
    Zhat = periods.period_matrix(
        cover, periods.build_cycles(cover, periods.LAYOUT_COVER))
    Z2 = periods.period_matrix(
        curve, periods.build_cycles(curve, periods.LAYOUT_GENUS2))
    shape = w9.cover_shape_extract(Zhat, tol)
    record("cover_shape", float(np.abs(Zhat - shape.matrix()).max()))
    record("theta_membership",
           w9.theta_membership_check(Zhat, shape_tol=tol))
    t, y = geodesic.extract_ty_from_cover(Zhat, shape_tol=tol)
    record("main_series", abs(geodesic.main_series(t, y)))
    record("base_from_cover_vs_direct",
           float(np.abs(Z2 - w9.base_from_cover(Zhat)).max()))
    checks.append({"s": s, "check": "extracted_point", "t": t, "y": y,
                   "pass": True})
    return checks, all(c["pass"] for c in checks)


def cmd_verify(args) -> int:
    if args.s is not None:
        s_values = [parse_real(args.s, "--s")]
    else:
        if args.grid < 1:
            raise UsageError("--grid must be at least 1")
        s_values = list(np.linspace(0.05, 0.5, args.grid))
    all_checks, ok = [], True
    for s in s_values:
        checks, good = _verify_one(float(s))
        all_checks.extend(checks)
        ok = ok and good
    emit(args, {"pass": ok, "checks": all_checks})
    return 0 if ok else 2


def cmd_classify(args) -> int:
    if args.abc is not None:
        parts = [parse_real(p, "--abc") for p in args.abc.split(",")]
        if len(parts) != 3:
            raise UsageError("--abc needs three comma-separated values")
        report = w9.cirre_classify(*parts)
        payload = {
            "real_group": report.real_group,
            "complex_group": report.complex_group,
            "matched_conditions": [
                {"condition": name, "residual": r}
                for name, r in report.matched_conditions
            ],
        }
    else:
        s = parse_real(args.s, "--s")
        residuals = w9.involution_residuals(s)
        satisfied = [name for name, _ in w9.w9_involution_conditions(s)]
        payload = {
            "s": s,
            "satisfied": satisfied,
            "residuals": residuals,
        }
    emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# --format and --out, taken by parse_args from either side of the subcommand
_GLOBAL_FLAGS = _Parser(add_help=False)
_GLOBAL_FLAGS.add_argument("--format", choices=("json", "csv"), default="json")
_GLOBAL_FLAGS.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="w9periods", description=__doc__, parents=[_GLOBAL_FLAGS])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("periods", help="period matrix of a family curve")
    form = p.add_mutually_exclusive_group(required=True)
    form.add_argument("--roots")
    form.add_argument("--s")
    form.add_argument("--u")
    p.add_argument("--basis", choices=tuple(BASES), default="genus2_w9")
    p.set_defaults(func=cmd_periods, csv=True)

    p = sub.add_parser("theta", help="theta constant with a characteristic")
    p.add_argument("--char", required=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("trace", help="trace the geodesic over a t grid")
    p.add_argument("--from", dest="t_start", required=True)
    p.add_argument("--to", dest="t_end", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_trace, csv=True)

    p = sub.add_parser("verify", help="end-to-end family checks at s")
    form = p.add_mutually_exclusive_group(required=True)
    form.add_argument("--s")
    form.add_argument("--grid", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="automorphism classification")
    form = p.add_mutually_exclusive_group(required=True)
    form.add_argument("--abc")
    form.add_argument("--s")
    p.set_defaults(func=cmd_classify)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The command line as main reads it: the global flags from either side
    of the subcommand, then the rest.  Any other flag before the subcommand
    is refused by its name, where the parser would take the flag's value
    for the subcommand."""
    flags, rest = _GLOBAL_FLAGS.parse_known_args(argv)
    command = next((i for i, a in enumerate(rest) if not a.startswith("-")), len(rest))
    if unknown := [a for a in rest[:command] if a not in ("-h", "--help")]:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return build_parser().parse_args(rest, namespace=flags)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        if args.format == "csv" and not getattr(args, "csv", False):
            raise UsageError(f"{args.command} has no CSV form; use --format json")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise UsageError(f"cannot write {args.out!r}: no such directory")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except W9Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
