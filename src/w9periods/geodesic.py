"""Tracing the real geodesic of the 3-square-tiled surface in period space.

Stretching the surface by diag(1, t) moves its period matrix along

    Z_t = [[1 + i(2 y_t - t), i y_t], [i y_t, i(y_t / 2 + t)]],

where y_t is pinned down by a scalar equation: the even theta constant
theta[1,1,1; 0,0,0](0, Zhat'_t) of the transformed cover matrix must vanish.
main_series(t, y) is that constant, computed by theta.theta_char, times the
nonzero factor exp(pi(3t/8 - 9i/8)) that makes it real; its unique root
y_t > 2t/3 is found by a sign scan plus bisection.  The bound y > 2t/3 is
exactly positive definiteness of all the period matrices involved.
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
MAX_BISECTIONS = 200


def _require_domain(t: float, y: float) -> None:
    if t < 1:
        raise ParameterError(f"t = {t} must be >= 1")
    if y <= 2.0 * t / 3.0:
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
    return _zhat_prime(t, y)


def _zhat_prime(t: float, y: float) -> np.ndarray:
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
    min(t/2, 3y/2 - t).  Defined for all t > 0, unlike zhat_prime.
    """
    if t <= 0 or y <= 2.0 * t / 3.0:
        raise ParameterError(
            f"series diverges at (t, y) = ({t}, {y}): need t > 0 and y > 2t/3"
        )
    theta = theta_char(SERIES_CHAR, np.zeros(3), _zhat_prime(t, y))
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


def _bisect(t: float, lo: float, hi: float, f_lo: float,
            cfg: SolverConfig) -> float:
    for _ in range(MAX_BISECTIONS):
        if hi - lo <= cfg.root_tol:
            break
        mid = 0.5 * (lo + hi)
        f_mid = _series_value(t, mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    # secant polish: the bracket is already tiny, a couple of steps push
    # the residual to series level without leaving it
    y0, y1 = lo, hi
    f0, f1 = _series_value(t, y0), _series_value(t, y1)
    for _ in range(8):
        if f1 == f0:
            break
        y2 = y1 - f1 * (y1 - y0) / (f1 - f0)
        if not lo - cfg.root_tol <= y2 <= hi + cfg.root_tol:
            break
        y0, f0, y1, f1 = y1, f1, y2, _series_value(t, y2)
        if abs(f1) < cfg.series_tol:
            break
    return y1


def _scan_brackets(t: float, lo: float, hi: float):
    """All sign-change brackets of the series on the scan grid [lo, hi]."""
    brackets = []
    y_prev = lo
    f_prev = _series_value(t, y_prev)
    n = max(1, math.ceil((hi - lo) / SCAN_STEP))
    for i in range(1, n + 1):
        y = min(lo + i * SCAN_STEP, hi)
        f = _series_value(t, y)
        if f == 0.0 or (f > 0) != (f_prev > 0):
            brackets.append((y_prev, y, f_prev))
        y_prev, f_prev = y, f
    return brackets


def solve_y(t: float, cfg: SolverConfig = DEFAULT_SOLVER,
            scan_window: tuple[float, float] | None = None) -> GeodesicPoint:
    """Root of main_series(t, .) in y > 2t/3 by sign scan plus bisection.

    The scan covers (2t/3 + SCAN_STEP, SCAN_MAX_FACTOR * t) unless an
    explicit scan_window narrows it (used for warm starts).  Every sign
    change found is audited: extra ones are flagged, never dropped.
    Raises BracketError when the scan finds no sign change.
    """
    if t < 1:
        raise ParameterError(f"t = {t} must be >= 1")
    floor = 2.0 * t / 3.0
    if scan_window is None:
        lo, hi = floor + SCAN_STEP, SCAN_MAX_FACTOR * t
    else:
        lo = max(scan_window[0], floor + SCAN_STEP)
        hi = max(scan_window[1], lo + SCAN_STEP)
    brackets = _scan_brackets(t, lo, hi)
    if not brackets:
        raise BracketError(
            f"no sign change of the series for t = {t} in y in ({lo:g}, {hi:g})"
        )
    flags = ()
    if len(brackets) > 1:
        flags = ("multiple_sign_changes",)
    y = _bisect(t, *brackets[0], cfg)
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
    if t_start < 1 or t_end < t_start:
        raise ParameterError("need 1 <= t_start <= t_end")
    if steps == 1:
        ts = [t_start]
    else:
        ts = list(np.linspace(t_start, t_end, steps))
    points = []
    y_prev = None
    for i, t in enumerate(ts):
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
