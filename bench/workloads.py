"""The four benchmark workloads: seeded inputs, the timed call, the checks.

Inputs come from a rotated Halton sequence: the seed picks the rotation
(and the command strings of `cli_process`), the sequence index picks the
point.  Any prefix of the sequence covers the input distribution evenly,
so a run that is cut off by its time limit still sees the whole mix, and
every seed sees the same mix.  Every item has its own input; nothing is
repeated, so no cache inside the program can serve an item from an
earlier one.

Each workload keeps its inputs inside the domain where the current
library succeeds, so that an item that fails is a regression.  The known
failures just outside that domain are run as untimed probes in the traced
run and reported as `probe.fail_ratio` and `errors.<Type>`.

The checks run after the timed phase and use oracles that do not share
the timed code path: a plain numpy transcription of the theta series
(`lattice_theta`), exact fixtures, a fresh `main_series` evaluation, and
for CLI processes the in-process library result for the same input.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from w9periods import cli, geodesic, periods, theta, w9
from w9periods.errors import W9Error

BENCH = Path(__file__).resolve().parent
SQRT3_3 = math.sqrt(3.0) / 3.0
S_SQUARE = 2.0 - math.sqrt(3.0)
Z1 = np.array([[1 + 5j / 3, 4j / 3], [4j / 3, 5j / 3]])
ZHAT1 = np.array([[4j / 3, 2j / 3, 1j / 3],
                  [2j / 3, 0.5 + 5j / 6, 2j / 3],
                  [1j / 3, 2j / 3, 4j / 3]])
README_TOL = 1e-6   # the README's verification tolerance
THETA_TOL = 1e-9    # oracle agreement for theta constants and series roots
ORACLE_RADIUS = 22  # above the largest library radius (19) at lambda >= 0.05

# s is log-uniform in its distance to the nearer end of the family
# interval (0, sqrt(3)/3), half of the items on each side of its midpoint.
# Near a cusp the tanh-sinh cost grows with the log of that distance, so
# every decade of distance gets the same share of items, and the share
# near each cusp follows from the range instead of being chosen.  The
# range is where the current quadrature passes: the cusp failures start
# below s ~ 0.0025 (the lower end is twice that) and above s ~ 0.5745 (the
# upper end is the ROADMAP's passing `--s 0.57`).
S_RANGE = (0.005, 0.57)

# uniform; its median 0.235 sits mid-way along the lambda interval
# [0.206, 0.267] where the g = 3 radius is 10, not on a step of the radius.
# Log-uniform put the median in the narrower radius-12 interval, where few
# items decided it, and its run-to-run spread was larger.
LAMBDA_RANGE = (0.05, 0.42)
COLD_SUM = 5.5  # geodesic items re-scan cold at t = a and 5.5 - a; cold
                # scans fail above t ~ 4.727


def halton(seed: int, count: int, dims: int) -> np.ndarray:
    """Points 1 .. count of the Halton sequence in [0, 1)^dims, rotated by a
    seeded shift (Cranley-Patterson)."""
    shift = np.random.default_rng(seed).random(dims)
    idx = np.arange(1, count + 1, dtype=np.int64)
    out = np.empty((count, dims))
    for d, base in enumerate((2, 3, 5, 7, 11)[:dims]):
        n, f, val = idx.copy(), 1.0, np.zeros(count)
        while n.any():
            f /= base
            val += f * (n % base)
            n //= base
        out[:, d] = val
    return (out + shift) % 1.0


def log_uniform(u, lo: float, hi: float):
    return lo * (hi / lo) ** u


def lattice_theta(Zs: np.ndarray, chars, radius: int) -> np.ndarray:
    """theta[m;n](0, Z) for a batch of g x g matrices and a list of (m, n),
    summed over the whole cube |k|_inf <= radius.

    With v = k + m/2 the phase exp(i pi v.n) is i^(m.n) (-1)^(k.n), so the
    terms exp(i pi v^T Z v) are summed once per parity class of k and the
    characteristics n follow by signs.  Returns shape (len(chars), batch).
    """
    Zs = np.asarray(Zs, dtype=complex)
    g = Zs.shape[-1]
    ax = np.arange(-radius, radius + 1)
    k = np.stack(np.meshgrid(*([ax] * g), indexing="ij"), -1).reshape(-1, g)
    parity = (k % 2) @ (1 << np.arange(g - 1, -1, -1))
    classes = (parity[None, :] == np.arange(2 ** g)[:, None]).astype(complex)
    pbits = np.array([_bits(p, g) for p in range(2 ** g)])
    # v^T Z v = k^T Z k + 2 k^T Z h + h^T Z h with h = m/2
    kzk = (k[:, :, None] * k[:, None, :]).reshape(len(k), g * g) @ Zs.reshape(-1, g * g).T
    out = np.empty((len(chars), Zs.shape[0]), dtype=complex)
    sums = {}
    for j, (m, n) in enumerate(chars):
        m, n = tuple(m), np.asarray(n)
        if m not in sums:
            h = np.asarray(m, dtype=float) / 2.0
            zh = Zs @ h
            quad = kzk + 2.0 * (k @ zh.T) + (zh @ h)[None, :]
            expo = 1j * math.pi * quad
            terms = np.zeros_like(expo)
            live = expo.real > -70.0  # the rest add below 1e-25 in all
            terms[live] = np.exp(expo[live])
            sums[m] = classes @ terms
        signs = (-1.0) ** (pbits @ n)
        out[j] = 1j ** int(np.dot(m, n)) * (signs @ sums[m])
    return out


def _bits(value: int, g: int) -> tuple[int, ...]:
    return tuple((value >> j) & 1 for j in reversed(range(g)))


def y_for_lambda(t: float, lam: float) -> float:
    """The y at which lambda_min(Im zhat_of_ty(t, y)) equals lam (lam < t/2).

    Im Zhat has the eigenvalue 1.5y - t on (1, 0, -1) and the smaller
    eigenvalue of [[y/2 + t, y/sqrt2], [y/sqrt2, y - t/2]] on the symmetric
    plane; both grow with y, so y is the larger of their two solutions.
    """
    y_anti = (t + lam) / 1.5
    y_sym = (0.5 * t * t + 0.5 * t * lam - lam * lam) / (0.75 * t - 1.5 * lam)
    return max(y_anti, y_sym)


class Workload:
    """One workload: `inputs` is deterministic in the seed, `run` is timed."""

    name = ""
    in_process = True
    min_item_s = 1e-3  # sizes the input pool: items never repeat in a run

    def pool_size(self, seconds: float) -> int:
        return int(math.ceil(seconds / self.min_item_s)) + 1

    def inputs(self, seed: int, count: int) -> list:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, inp, rec=None):
        raise NotImplementedError

    def item_seconds(self, out, measured: float) -> float:
        """The item's time; `measured` is the wall time around `run`."""
        return measured

    def check(self, inputs: list, outputs: list) -> list[str | None]:
        """One entry per item: None if it passed, else the reason."""
        raise NotImplementedError

    def probes(self) -> tuple[int, int, dict]:
        """Known-defect inputs outside the workload's domain:
        (attempted, failed, {exception type: count})."""
        return 0, 0, {}


# ---------------------------------------------------------------------------


def s_from_unit(u: np.ndarray) -> np.ndarray:
    """Map [0, 1) onto S_RANGE: u < 1/2 onto the lower half of the family
    interval, u >= 1/2 onto the upper, log-uniform in the distance to the
    interval's end on that side."""
    mid = SQRT3_3 / 2.0
    low = log_uniform(np.clip(2.0 * u, 0, 1), S_RANGE[0], mid)
    high = SQRT3_3 - log_uniform(np.clip(2.0 - 2.0 * u, 0, 1), SQRT3_3 - S_RANGE[1],
                                 SQRT3_3 - mid)
    return np.where(u < 0.5, low, high)


def family_item(s: float):
    curve = w9.curve_Qs(s)
    cover = w9.double_cover(curve)
    Z = periods.period_matrix(curve, periods.build_cycles(curve, periods.LAYOUT_GENUS2))
    Zhat = periods.period_matrix(cover, periods.build_cycles(cover, periods.LAYOUT_COVER))
    shape = w9.cover_shape_extract(Zhat, README_TOL)
    return Z, Zhat, shape


class FamilyPeriods(Workload):
    name = "family_periods"
    min_item_s = 1e-4

    def inputs(self, seed, count):
        return [S_SQUARE] + s_from_unit(halton(seed, count - 1, 1)[:, 0]).tolist()

    def warmup(self):
        family_item(0.3)

    def run(self, s, rec=None):
        return family_item(s)

    def check(self, inputs, outputs):
        reasons = [None] * len(outputs)
        pending = []
        for i, (s, out) in enumerate(zip(inputs, outputs)):
            Z, Zhat, _ = out
            if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(Zhat))):
                reasons[i] = "non-finite period matrix"
                continue
            try:
                base = w9.base_from_cover(Zhat)
            except W9Error as exc:
                reasons[i] = f"base_from_cover(Zhat) raised {type(exc).__name__}"
                continue
            if np.abs(Z - base).max() > README_TOL:
                reasons[i] = "genus-2 Z disagrees with base_from_cover(Zhat)"
                continue
            if np.abs(Zhat - w9.cover_shape_pattern(Zhat[0, 0], Zhat[0, 2])).max() > README_TOL:
                reasons[i] = "cover-shape residual too large"
                continue
            if s == S_SQUARE and (np.abs(Z - Z1).max() > README_TOL
                                  or np.abs(Zhat - ZHAT1).max() > README_TOL):
                reasons[i] = "Z, Zhat differ from the exact Z1, ZHAT1"
                continue
            lam = float(np.linalg.eigvalsh(Zhat.imag)[0])
            if lam <= 0:
                reasons[i] = "Im Zhat not positive definite"
                continue
            pending.append((math.ceil(0.5 + math.sqrt(40.0 / (math.pi * lam))), i))
        # |theta[111;101](Zhat)| by the lattice oracle, batched by radius
        pending.sort()
        char = [((1, 1, 1), (1, 0, 1))]
        j = 0
        while j < len(pending):
            radius = pending[j][0]
            batch = max(1, 2_000_000 // (2 * radius + 1) ** 3)
            group = [i for r, i in pending[j:j + batch] if r == radius]
            j += len(group)
            vals = lattice_theta(np.array([outputs[i][1] for i in group]), char, radius)[0]
            for i, v in zip(group, vals):
                if abs(v) > README_TOL:
                    reasons[i] = f"|theta[111;101](Zhat)| = {abs(v):.2e}"
        return reasons

    def probes(self):
        """s approaching each cusp, where quadrature fails today."""
        near = np.geomspace(1e-4, 0.05, 16)
        ss = list(near) + [SQRT3_3 - d for d in near]
        errors = {}
        for s in ss:
            try:
                family_item(float(s))
            except W9Error as exc:
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
        return len(ss), sum(errors.values()), errors


# ---------------------------------------------------------------------------

CHARS3 = [(_bits(a, 3), _bits(b, 3)) for a in range(8) for b in range(8)]
CHARS2 = [(_bits(a, 2), _bits(b, 2)) for a in range(4) for b in range(4)]


def theta_item(t: float, y: float):
    Zhat = geodesic.zhat_of_ty(t, y)
    Z = geodesic.z_of_ty(t, y)
    v3 = [theta.theta_char(theta.ThetaCharacteristic(m, n), np.zeros(3), Zhat)
          for m, n in CHARS3]
    v2 = [theta.theta_char(theta.ThetaCharacteristic(m, n), np.zeros(2), Z)
          for m, n in CHARS2]
    member = w9.theta_membership_check(Zhat)
    return np.array(v3), np.array(v2), member


def _is_odd(m, n) -> bool:
    return sum(a * b for a, b in zip(m, n)) % 2 == 1


class ThetaConstants(Workload):
    name = "theta_constants"
    min_item_s = 5e-3

    def inputs(self, seed, count):
        out = [(1.0, 4.0 / 3.0)]
        for u, w in halton(seed, count - 1, 2):
            t = 1.0 + 9.0 * float(u)
            hi = min(LAMBDA_RANGE[1], 0.45 * t)
            lam = LAMBDA_RANGE[0] + (hi - LAMBDA_RANGE[0]) * float(w)
            out.append((t, y_for_lambda(t, lam)))
        return out

    def warmup(self):
        theta_item(2.0, y_for_lambda(2.0, 0.3))

    def run(self, ty, rec=None):
        return theta_item(*ty)

    def check(self, inputs, outputs):
        reasons = []
        for (t, y), (v3, v2, member) in zip(inputs, outputs):
            reasons.append(self._check_one(t, y, v3, v2, member))
        return reasons

    @staticmethod
    def _check_one(t, y, v3, v2, member):
        Zhat = geodesic.zhat_of_ty(t, y)
        Z = geodesic.z_of_ty(t, y)
        for vals, chars, M in ((v3, CHARS3, Zhat), (v2, CHARS2, Z)):
            ref = lattice_theta(M[None], chars, ORACLE_RADIUS)[:, 0]
            for (m, n), v, r in zip(chars, vals, ref):
                if _is_odd(m, n) and abs(v) > THETA_TOL:
                    return f"odd constant [{m};{n}] = {abs(v):.2e}"
                if not _is_odd(m, n) and abs(v - r) > THETA_TOL:
                    return f"even constant [{m};{n}] off by {abs(v - r):.2e}"
        j = CHARS3.index(((1, 1, 1), (1, 0, 1)))
        if abs(member - abs(v3[j])) > THETA_TOL:
            return "membership value differs from theta[111;101]"
        if (t, y) == (1.0, 4.0 / 3.0) and member > THETA_TOL:
            return f"membership at (1, 4/3) = {member:.2e}"
        return None


# ---------------------------------------------------------------------------


class GeodesicTrace(Workload):
    name = "geodesic_trace"
    min_item_s = 5e-3

    def inputs(self, seed, count):
        """(a, b, n): n in 11..19 rows, so rows 0 and 10 are cold scans, at
        t = a and t = COLD_SUM - a, both in [1, 4.5]; warm rows reach b <= 7.3.
        A cold scan costs more the larger t is (0.1 s at t = 1, 0.5 s at
        t = 4.5), so pairing a cheap cold scan with a dear one keeps item
        times within a factor of 1.5 of each other."""
        out = [(1.0, COLD_SUM - 1.0, 11)]
        for u, v in halton(seed, count - 1, 2):
            a = 1.0 + (0.5 * COLD_SUM - 1.0) * float(u)
            n = 11 + int(9 * float(v))
            out.append((a, a + (COLD_SUM - 2.0 * a) * (n - 1) / 10.0, n))
        return out

    def warmup(self):
        geodesic.trace(1.0, 1.2, 2)

    def run(self, abn, rec=None):
        return geodesic.trace(*abn)

    def check(self, inputs, outputs):
        reasons = []
        for (a, b, n), pts in zip(inputs, outputs):
            reasons.append(self._check_one(a, b, n, pts))
        return reasons

    @staticmethod
    def _check_one(a, b, n, pts):
        if len(pts) != n:
            return f"{len(pts)} rows for {n} steps"
        for p in pts:
            if p.flags:
                return f"row t={p.t:.4f} flagged {';'.join(p.flags)}"
            if not p.y > 2.0 * p.t / 3.0:
                return f"row t={p.t:.4f}: y={p.y} not above 2t/3"
            r = abs(geodesic.main_series(p.t, p.y))
            if not r < THETA_TOL:
                return f"row t={p.t:.4f}: |main_series| = {r:.2e}"
            if p.t == 1.0 and abs(p.y - 4.0 / 3.0) > 1e-8:
                return f"y(1) = {p.y!r}, expected 4/3"
        return None

    def probes(self):
        """Cold re-scans above t ~ 4.73: two rows of trace(1, 10, 50) and
        every row of a request starting at t = 5."""
        rows, errors = 0, {}
        for a, b, n in ((1.0, 10.0, 50), (5.0, 6.0, 11)):
            for p in geodesic.trace(a, b, n):
                rows += 1
                for f in p.flags:
                    if f.startswith("error:"):
                        kind = f.split(":", 1)[1]
                        errors[kind] = errors.get(kind, 0) + 1
        return rows, sum(errors.values()), errors


# ---------------------------------------------------------------------------


def _fixed(x: float) -> str:
    return f"{x:.17f}".rstrip("0").rstrip(".")


def _matrix_text(M: np.ndarray) -> str:
    def cell(z):
        im = _fixed(z.imag) + "i"
        return im if z.real == 0 else f"{_fixed(z.real)}+{im}"
    return "[" + ",".join("[" + ",".join(cell(z) for z in row) + "]" for row in M) + "]"


def _s_expr(kind: int, u: float) -> tuple[str, float]:
    """An s in the middle of the family as an expression and its value."""
    if kind == 0:
        x = round(0.09 + 0.77 * u, 6)
        return f"{_fixed(x)}*sqrt(3)/3", x * math.sqrt(3.0) / 3.0
    if kind == 1:
        q = 20 + int(79 * u)
        p = max(1, int(round(q * (0.05 + 0.45 * u))))
        return f"{p}/{q}", p / q
    val = round(0.05 + 0.45 * u, 6)
    return _fixed(val), val


# (kind, weight): one weight per example command in the README's "Command
# line" section, 12 in all.  Its five `periods` examples go to the five
# periods kinds; the closed-form `--lambda` example runs no quadrature, so
# its place goes to `--basis elliptic`, the layout no example shows.  Both
# `verify` places go to `verify --s` (`--grid 5` is five of them), and the
# two `trace` examples are one command written as JSON or as CSV.
CLI_MIX = (
    ("periods_s", 1), ("periods_cover", 1), ("periods_u", 1), ("periods_roots", 1),
    ("periods_elliptic", 1), ("theta", 2), ("verify", 2), ("classify_s", 1),
    ("classify_abc", 1), ("trace", 1),
)


def cli_command(u: np.ndarray) -> tuple[str, list[str], dict]:
    """(kind, argv, parameters) for one point of [0, 1)^4."""
    acc, kind = 0, CLI_MIX[-1][0]
    total = sum(weight for _, weight in CLI_MIX)
    for name, weight in CLI_MIX:
        acc += weight
        if u[0] * total < acc:
            kind = name
            break
    a, b, c = (float(x) for x in u[1:4])
    form = int(3 * c)
    if kind in ("periods_s", "periods_cover", "verify", "classify_s"):
        expr, s = _s_expr(form, a)
        argv = {"periods_s": ["periods", "--s", expr],
                "periods_cover": ["periods", "--s", expr, "--basis", "cover"],
                "verify": ["verify", "--s", expr],
                "classify_s": ["classify", "--s", expr]}[kind]
        return kind, argv, {"s": s}
    if kind == "periods_u":
        q = 2 + int(8 * b)
        p = int(q * (10.0 + 50.0 * a))
        return kind, ["periods", f"--u=-{p}/{q}"], {"u": -p / q}
    if kind == "periods_roots":
        r = sorted((round(0.05 + 0.9 * a, 4), round(1.1 + 2.0 * b, 4),
                    round(3.5 + 6.0 * c, 4)))
        text = ",".join(_fixed(x) for x in [-1.0, 0.0] + r)
        return kind, ["periods", f"--roots={text}"], {"roots": [-1.0, 0.0] + r}
    if kind == "periods_elliptic":
        r = round(0.2 + 4.0 * a, 4)
        return kind, ["periods", f"--roots=-1,0,{_fixed(r)}", "--basis", "elliptic"], \
            {"roots": [-1.0, 0.0, r]}
    if kind == "theta":
        g = 3 if b < 0.5 else 2
        t = 1.0 + 9.0 * a
        y = y_for_lambda(t, float(log_uniform(c, 0.15, min(0.5, 0.45 * t))))
        M = geodesic.zhat_of_ty(t, y) if g == 3 else geodesic.z_of_ty(t, y)
        bits = int(b * 1e6) % (4 ** g)
        m, n = _bits(bits >> g, g), _bits(bits & (2 ** g - 1), g)
        char = "".join(map(str, m)) + ";" + "".join(map(str, n))
        return kind, ["theta", "--char", char, "--matrix", _matrix_text(M)], \
            {"m": m, "n": n, "M": M}
    if kind == "classify_abc":
        lo = round(0.05 + 0.25 * a, 4)
        mid = round(lo + 0.05 + 0.3 * b, 4)
        hi = round(mid + 0.05 + (0.9 - mid) * c, 4)
        text = ",".join(_fixed(x) for x in (lo, mid, hi))
        return kind, ["classify", "--abc", text], {"abc": (lo, mid, hi)}
    t0 = round(1.0 + a, 4)
    t1 = round(t0 + 0.1 + 0.4 * b, 4)
    return kind, ["trace", "--from", _fixed(t0), "--to", _fixed(t1), "--steps", "3"], \
        {"abn": (t0, t1, 3)}


def cli_expected(kind: str, p: dict):
    """The in-process library result for one CLI command."""
    if kind in ("periods_s", "periods_cover", "verify"):
        curve = w9.curve_Qs(p["s"])
        if kind == "periods_s":
            return periods.period_matrix(curve, periods.build_cycles(curve, periods.LAYOUT_GENUS2))
        cover = w9.double_cover(curve)
        Zhat = periods.period_matrix(cover, periods.build_cycles(cover, periods.LAYOUT_COVER))
        if kind == "verify":
            return geodesic.extract_ty_from_cover(Zhat, shape_tol=README_TOL)
        return Zhat
    if kind in ("periods_u", "periods_roots", "periods_elliptic"):
        if kind == "periods_u":
            pts = tuple(z - 1.0 for z in w9.curve_Pu(p["u"]).branch_points)
        else:
            pts = tuple(complex(x) for x in p["roots"])
        curve = periods.HyperellipticCurve(pts)
        layout = periods.LAYOUT_ELLIPTIC if kind == "periods_elliptic" else periods.LAYOUT_GENUS2
        return periods.period_matrix(curve, periods.build_cycles(curve, layout))
    if kind == "theta":
        g = len(p["m"])
        return theta.theta_char(theta.ThetaCharacteristic(p["m"], p["n"]), np.zeros(g), p["M"])
    if kind == "classify_s":
        return [name for name, _ in w9.w9_involution_conditions(p["s"])]
    if kind == "classify_abc":
        rep = w9.cirre_classify(*p["abc"])
        return rep.real_group, rep.complex_group
    return [pt.y for pt in geodesic.trace(*p["abn"])]


def cli_check_one(kind: str, p: dict, out) -> str | None:
    code, stdout, stderr, _ = out
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-200:]}"
    try:
        data = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    want = cli_expected(kind, p)
    if kind in ("periods_s", "periods_u", "periods_roots", "periods_elliptic"):
        err = float(np.abs(cli.decode_matrix(data["Z"]) - want).max())
    elif kind == "periods_cover":
        err = max(float(np.abs(cli.decode_matrix(data["Zhat"]) - want).max()),
                  float(np.abs(cli.decode_matrix(data["Z"]) - w9.base_from_cover(want)).max()))
    elif kind == "theta":
        got = complex(data["value"]["re"], data["value"]["im"])
        err = abs(got - want)
    elif kind == "verify":
        if data.get("pass") is not True:
            return "verify did not pass"
        point = [c for c in data["checks"] if c["check"] == "extracted_point"][0]
        err = max(abs(point["t"] - want[0]), abs(point["y"] - want[1]))
    elif kind == "classify_s":
        return None if data["satisfied"] == want else "satisfied conditions differ"
    elif kind == "classify_abc":
        got = (data["real_group"], data["complex_group"])
        return None if got == tuple(want) else f"groups {got} != {want}"
    else:
        if any(row["flags"] for row in data["points"]):
            return "trace row flagged"
        err = max(abs(row["y"] - y) for row, y in zip(data["points"], want))
    return None if err <= THETA_TOL else f"{kind}: differs from library by {err:.2e}"


# Prefixed to the code of a timed child process: the child prints its
# monotonic clock to stderr as it exits.  The parent's wait for a child
# returns late by a varying amount (the interpreter's teardown and the
# wake-up), so a process is timed from just before its spawn to this stamp.
EXIT_STAMP = ("import atexit, sys, time; "
              "atexit.register(lambda: print('bench-exit', time.monotonic(), file=sys.stderr)); ")
CLI_CODE = ("import runpy; sys.argv[0] = 'w9periods'; "
            "runpy.run_module('w9periods.cli', run_name='__main__')")  # python -m w9periods.cli


def run_stamped(code: str, args: list[str], env: dict):
    """Run `python -c code args`; returns (exit code, stdout, stderr without
    the stamp line, seconds from spawn to the exit stamp or None)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", EXIT_STAMP + code] + args,
                          capture_output=True, text=True, env=env, timeout=120)
    stderr, _, last = proc.stderr.rstrip("\n").rpartition("\n")
    word, _, stamp = last.partition(" ")
    if word != "bench-exit":
        return proc.returncode, proc.stdout, proc.stderr, None
    return proc.returncode, proc.stdout, stderr, float(stamp) - t0


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(BENCH.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliProcess(Workload):
    name = "cli_process"
    in_process = False
    min_item_s = 0.05

    def __init__(self):
        self.env = cli_env()

    def inputs(self, seed, count):
        first = ("verify", ["verify", "--s", "2-sqrt(3)"], {"s": S_SQUARE})
        return [first] + [cli_command(u) for u in halton(seed, count - 1, 4)]

    def warmup(self):
        self.run(("classify_s", ["classify", "--s", "2-sqrt(3)"], {"s": S_SQUARE}))

    def run(self, inp, rec=None):
        """(exit code, stdout, stderr, seconds from spawn to the child's
        exit stamp); seconds is None for traced items, which have no stamp."""
        _, argv, _ = inp
        if rec is not None:
            cmd = [sys.executable, str(BENCH / "tracecli.py"), rec.child_path(rec.item),
                   "--"] + argv
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  timeout=120)
            rec.merge_child(rec.item)
            return proc.returncode, proc.stdout, proc.stderr, None
        return run_stamped(CLI_CODE, argv, self.env)

    def item_seconds(self, out, measured):
        return out[3] if isinstance(out, tuple) and out[3] is not None else measured

    def check(self, inputs, outputs):
        return [cli_check_one(kind, p, out) for (kind, _, p), out in zip(inputs, outputs)]


WORKLOADS = {w.name: w for w in (FamilyPeriods, ThetaConstants, GeodesicTrace, CliProcess)}
