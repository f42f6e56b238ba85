"""Tracing the real geodesic of the 3-square-tiled surface in period space.

Stretching the surface by diag(1, t) moves its period matrix along

    Z_t = [[1 + i(2 y_t - t), i y_t], [i y_t, i(y_t / 2 + t)]],

where y_t is pinned down by a scalar equation: the even theta constant
theta[1,1,1; 0,0,0](0, Zhat'_t) of the transformed cover matrix must vanish.
main_series(t, y) is that constant, computed by theta.theta_char, times the
nonzero factor exp(pi(3t/8 - 9i/8)) that makes it real; its unique root
y_t > 2t/3 is found by a sign scan plus regula falsi.  The bound y > 2t/3
is exactly positive definiteness of all the period matrices involved; the
family runs over all t > 0, and so does every function here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ParameterError, W9Error
from .theta import ThetaCharacteristic, theta_char

SERIES_CHAR = ThetaCharacteristic((1, 1, 1), (0, 0, 0))
SCAN_STEP = 0.05
SCAN_MAX_FACTOR = 5.0  # the cold scan reaches y = SCAN_MAX_FACTOR * t


def _require_domain(t: float, y: float) -> None:
    if not t > 0:
        raise ParameterError(f"t = {t} must be > 0")
    if not y > 2.0 * t / 3.0:
        raise ParameterError(
            f"y = {y} <= 2t/3 = {2*t/3:g}: imaginary part not positive definite"
        )


def zhat_of_ty(t: float, y: float) -> np.ndarray:
    """Cover period matrix along the geodesic:
    [[iy, iy/2, i(t - y/2)], [iy/2, 1/2 + i(y - t/2), iy/2],
     [i(t - y/2), iy/2, iy]]."""
    _require_domain(t, y)
    return np.array([
        [1j * y, 0.5j * y, 1j * (t - 0.5 * y)],
        [0.5j * y, 0.5 + 1j * (y - 0.5 * t), 0.5j * y],
        [1j * (t - 0.5 * y), 0.5j * y, 1j * y],
    ])


def zhat_prime(t: float, y: float) -> np.ndarray:
    """The cover matrix in the twisted basis: diagonal 1/2 + i(y - t/2),
    all off-diagonal entries 1/2 - (1/2) i (y - t)."""
    _require_domain(t, y)
    d = 0.5 + 1j * (y - 0.5 * t)
    o = 0.5 - 0.5j * (y - t)
    return np.array([[d, o, o], [o, d, o], [o, o, d]])


def z_of_ty(t: float, y: float) -> np.ndarray:
    """Genus-2 period matrix [[1 + i(2y - t), iy], [iy, i(y/2 + t)]]."""
    _require_domain(t, y)
    return np.array([[1.0 + 1j * (2.0 * y - t), 1j * y],
                     [1j * y, 1j * (0.5 * y + t)]])


def main_series(t: float, y: float) -> complex:
    """The scalar geodesic series exp(pi(3t/8 - 9i/8)) theta[111;000](0, Zhat'_t).

    Expanded, it is the triple sum

        sum_{k in Z^3} exp pi[(t/2 - y + i/2) sum k_l^2
                              + (y - t + i) sum_{l<m} k_l k_m
                              + (3i/2 - t/2) sum k_l].

    Real-valued on the domain: every term's imaginary exponent part is
    pi ((1/2) sum k^2 + sum kk + (3/2) sum k) = (pi/2) sum k_l(k_l + 3)
    + pi sum_{l<m} k_l k_m, an integer multiple of pi.  Convergence needs
    y > 2t/3 (Im Zhat'_t has eigenvalues t/2 and 3y/2 - t).  theta_char's
    tail bound sets the truncation; with z = 0 its radius depends only on
    min(t/2, 3y/2 - t).
    """
    theta = theta_char(SERIES_CHAR, np.zeros(3), zhat_prime(t, y))
    return cmath.exp(math.pi * (0.375 * t - 1.125j)) * theta


@dataclass(frozen=True)
class SolverConfig:
    series_tol: float = 1e-12
    root_tol: float = 1e-10

    def __post_init__(self):
        if self.series_tol <= 0 or self.root_tol <= 0:
            raise ParameterError("series_tol and root_tol must be positive")


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True)
class GeodesicPoint:
    """One solved point: y is the root of main_series(t, .) above 2t/3."""

    t: float
    y: float
    Z: np.ndarray
    Zhat: np.ndarray
    residual: float
    flags: tuple[str, ...] = ()


def _series_value(t: float, y: float) -> float:
    return main_series(t, y).real


def _refine(t: float, lo: float, hi: float, f_lo: float, f_hi: float,
            cfg: SolverConfig) -> float:
    """Illinois regula falsi (Dowell and Jarratt, BIT 11, 1971) on a sign
    change bracket: every iterate stays inside it, and halving the value at
    an end kept twice in a row makes convergence superlinear.  Stops at
    |f| < series_tol, at bracket width <= root_tol, or after 100 steps."""
    stale = 0
    for _ in range(100):
        y = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        f = _series_value(t, y)
        if abs(f) < cfg.series_tol:
            break
        if (f > 0) == (f_hi > 0):
            hi, f_hi = y, f
            if stale == -1:
                f_lo *= 0.5
            stale = -1
        else:
            lo, f_lo = y, f
            if stale == 1:
                f_hi *= 0.5
            stale = 1
        if hi - lo <= cfg.root_tol:
            break
    return y


def _scan_brackets(t: float, lo: float, hi: float):
    """All sign-change brackets (lo, hi, f_lo, f_hi) of the series on the
    scan grid [lo, hi]."""
    brackets = []
    y_prev = lo
    f_prev = _series_value(t, y_prev)
    n = max(1, math.ceil((hi - lo) / SCAN_STEP))
    for i in range(1, n + 1):
        y = min(lo + i * SCAN_STEP, hi)
        f = _series_value(t, y)
        if f == 0.0 or (f > 0) != (f_prev > 0):
            brackets.append((y_prev, y, f_prev, f))
        y_prev, f_prev = y, f
    return brackets


def solve_y(t: float, cfg: SolverConfig = DEFAULT_SOLVER,
            scan_window: tuple[float, float] | None = None) -> GeodesicPoint:
    """Root of main_series(t, .) in y > 2t/3 by sign scan plus regula falsi.

    The scan covers scan_window, (2t/3, SCAN_MAX_FACTOR * t) by default
    (trace narrows it for warm starts), clipped to start at 2t/3 + SCAN_STEP
    and to span at least one step.  Every sign change found is audited:
    extra ones are flagged, never dropped.  Raises ParameterError unless
    t > 0, and BracketError when the scan finds no sign change, as for
    t up to about 0.035, where the root lies below 2t/3 + SCAN_STEP.
    """
    floor = 2.0 * t / 3.0
    w0, w1 = scan_window or (floor, SCAN_MAX_FACTOR * t)
    lo = max(w0, floor + SCAN_STEP)
    hi = max(w1, lo + SCAN_STEP)
    brackets = _scan_brackets(t, lo, hi)
    if not brackets:
        raise BracketError(
            f"no sign change of the series for t = {t} in y in ({lo:g}, {hi:g})"
        )
    flags = ()
    if len(brackets) > 1:
        flags = ("multiple_sign_changes",)
    y = _refine(t, *brackets[0], cfg)
    residual = abs(main_series(t, y))
    return GeodesicPoint(t, y, z_of_ty(t, y), zhat_of_ty(t, y), residual, flags)


def trace(t_start: float, t_end: float, steps: int,
          cfg: SolverConfig = DEFAULT_SOLVER) -> list[GeodesicPoint]:
    """solve_y over a uniform t grid, warm-starting from the previous root.

    Every 10th point runs the full cold scan as a drift guard.  A point
    that fails is recorded with an error flag and NaN values, not dropped.
    """
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    if not 0 < t_start <= t_end:
        raise ParameterError("need 0 < t_start <= t_end")
    points = []
    y_prev = None
    for i, t in enumerate(np.linspace(t_start, t_end, steps)):
        window = None
        if y_prev is not None and i % 10 != 0:
            width = 10 * SCAN_STEP
            window = (y_prev - width, y_prev + width)
        try:
            try:
                pt = solve_y(t, cfg, scan_window=window)
            except BracketError:
                if window is None:
                    raise
                pt = solve_y(t, cfg)
        except W9Error as exc:  # recorded, not dropped
            nan2 = np.full((2, 2), complex(math.nan, math.nan))
            nan3 = np.full((3, 3), complex(math.nan, math.nan))
            points.append(GeodesicPoint(t, math.nan, nan2, nan3, math.nan,
                                        (f"error:{type(exc).__name__}",)))
            continue
        points.append(pt)
        y_prev = pt.y
    return points


def extract_ty_from_cover(Zhat, shape_tol: float = 1e-9,
                          reality_tol: float = 1e-7) -> tuple[float, float]:
    """(t, y) read off a cover period matrix: y = Im z1, t = Im z13 + y/2.

    The matrix must match the cover pattern and have purely imaginary
    z1, z13 (the M-curve reality condition).
    """
    from .w9 import cover_shape_extract

    shape = cover_shape_extract(Zhat, shape_tol)
    if abs(shape.z1.real) > reality_tol or abs(shape.z13.real) > reality_tol:
        raise ParameterError(
            "z1 or z13 has a real part: matrix is not on the real locus"
        )
    y = shape.z1.imag
    t = shape.z13.imag + 0.5 * y
    return t, y
