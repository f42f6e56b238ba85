"""Tracing the real geodesic of the 3-square-tiled surface in period space.

Stretching the surface by diag(1, t) moves its period matrix along

    Z_t = [[1 + i(2 y_t - t), i y_t], [i y_t, i(y_t / 2 + t)]],

where y_t is pinned down by a scalar equation: the even theta constant
theta[1,1,1; 0,0,0](0, Zhat'_t) of the transformed cover matrix must vanish.
main_series(t, y) is that constant, computed by theta.theta_char, times the
nonzero factor exp(pi(3t/8 - 9i/8)) that makes it real.  solve_y finds its
unique root y_t > 2t/3 in a few evaluations from two facts: y_t - t tends
to ln3/pi, and the surfaces at t and 1/t are isomorphic.  The bound
y > 2t/3 is exactly positive definiteness of all the period matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ParameterError, W9Error
from .theta import ThetaCharacteristic, theta_char

SERIES_CHAR = ThetaCharacteristic((1, 1, 1), (0, 0, 0))
ASYMPTOTE = math.log(3.0) / math.pi  # y_t - t -> ln 3 / pi as t -> inf
SCAN_STEP = 0.05
SCAN_MAX_FACTOR = 5.0  # the fallback scan reaches y = SCAN_MAX_FACTOR * t
T_MAX = 600.0  # exp(3 pi t / 8) in main_series overflows at t ~ 602.6


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
    min(t/2, 3y/2 - t).  Raises ParameterError for t > T_MAX.
    """
    if t > T_MAX:
        raise ParameterError(f"t = {t} > T_MAX = {T_MAX:g}: the series overflows")
    theta = theta_char(SERIES_CHAR, np.zeros(3), zhat_prime(t, y))
    return cmath.exp(math.pi * (0.375 * t - 1.125j)) * theta


@dataclass(frozen=True)
class SolverConfig:
    root_tol: float = 1e-10

    def __post_init__(self):
        if not self.root_tol > 0:
            raise ParameterError("root_tol must be positive")


DEFAULT_SOLVER = SolverConfig()


@dataclass(frozen=True)
class GeodesicPoint:
    """One solved point: y is the root of main_series(t, .) above 2t/3;
    evaluations counts the series evaluations it cost, residual included."""

    t: float
    y: float
    Z: np.ndarray
    Zhat: np.ndarray
    residual: float
    flags: tuple[str, ...] = ()
    evaluations: int = 0


def _secant(f, t: float, tol: float) -> float | None:
    """Secant from t + ln3/pi and that minus the gap 0.377 exp(-pi t), floored
    at 1e-7 to keep the seeds apart at large t.  None if an iterate leaves
    (2t/3, inf) or 10 steps do not bring the step in y down to tol."""
    y0 = t + ASYMPTOTE
    y1 = y0 - max(0.377 * math.exp(-math.pi * t), 1e-7)
    f0 = f(y0)
    for _ in range(10):
        f1 = f(y1)
        if f1 == f0:
            return None
        y0, y1, f0 = y1, y1 - f1 * (y1 - y0) / (f1 - f0), f1
        if not y1 > 2.0 * t / 3.0:
            return None
        if abs(y1 - y0) <= tol:
            return y1
    return None


def _refine(f, a: float, b: float, f_a: float, f_b: float, tol: float) -> float:
    """Illinois regula falsi (Dowell and Jarratt, BIT 11, 1971) on a sign
    change bracket [a, b]: every iterate stays inside it, and halving the
    kept end's value when two iterates in a row fall on one side makes it
    superlinear.  Stops at an exact zero, width <= tol, or 100 steps."""
    for _ in range(100):
        y = b - f_b * (b - a) / (f_b - f_a)
        f_y = f(y)
        if f_y == 0.0:
            return y
        if (f_y > 0) == (f_b > 0):
            f_a *= 0.5
        else:
            a, f_a = b, f_b
        b, f_b = y, f_y
        if abs(b - a) <= tol:
            break
    return b


def _scan_brackets(f, t: float):
    """All sign-change brackets (lo, hi, f_lo, f_hi) of f on the grid from
    2t/3 + SCAN_STEP in steps of SCAN_STEP up to SCAN_MAX_FACTOR t."""
    hi = SCAN_MAX_FACTOR * t
    ys = np.append(np.arange(2.0 * t / 3.0 + SCAN_STEP, hi, SCAN_STEP), hi)
    fs = [f(y) for y in ys]
    return [(ys[i - 1], ys[i], fs[i - 1], fs[i]) for i in range(1, len(ys))
            if fs[i] == 0.0 or (fs[i] > 0) != (fs[i - 1] > 0)]


def solve_y(t: float, cfg: SolverConfig = DEFAULT_SOLVER) -> GeodesicPoint:
    """Root y_t of main_series(t, .) in y > 2t/3, for t in [1/T_MAX, T_MAX].

    For t >= 1 a secant runs from y_t's asymptote until its step in y is
    at most root_tol.  The surface at t < 1 is the one at 1/t, so y_t comes
    from (3y_t/2 - t)(3y_{1/t}/2 - 1/t) = 1, and residual is that of the
    solve at 1/t: at small t the series is flat in y and costly.  If the
    secant fails, the sign scan with regula falsi takes over and flags
    every extra sign change, or raises BracketError if it finds none.
    """
    if not 1.0 / T_MAX <= t <= T_MAX:
        raise ParameterError(f"t = {t} outside [1/T_MAX, T_MAX] = "
                             f"[{1 / T_MAX:g}, {T_MAX:g}]")
    t_up = max(t, 1.0 / t)
    evaluations = 1  # the residual's

    def f(y):
        nonlocal evaluations
        evaluations += 1
        return main_series(t_up, y).real

    flags = ()
    y = _secant(f, t_up, cfg.root_tol)
    if y is None:
        brackets = _scan_brackets(f, t_up)
        if not brackets:
            raise BracketError(f"no sign change of the series for t = {t_up}")
        if len(brackets) > 1:
            flags = ("multiple_sign_changes",)
        y = _refine(f, *brackets[0], cfg.root_tol)
    residual = abs(main_series(t_up, y))
    if t < 1.0:
        y = 2.0 / 3.0 * (t + 1.0 / (1.5 * y - t_up))
    return GeodesicPoint(t, y, z_of_ty(t, y), zhat_of_ty(t, y), residual,
                         flags, evaluations)


def trace(t_start: float, t_end: float, steps: int,
          cfg: SolverConfig = DEFAULT_SOLVER) -> list[GeodesicPoint]:
    """One solve_y per point of a uniform t grid.  A point that fails is
    recorded with an error flag and NaN values, not dropped."""
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    if not 0 < t_start <= t_end:
        raise ParameterError("need 0 < t_start <= t_end")
    points = []
    for t in np.linspace(t_start, t_end, steps):
        try:
            points.append(solve_y(t, cfg))
        except W9Error as exc:  # recorded, not dropped
            nan2 = np.full((2, 2), complex(math.nan, math.nan))
            nan3 = np.full((3, 3), complex(math.nan, math.nan))
            points.append(GeodesicPoint(t, math.nan, nan2, nan3, math.nan,
                                        (f"error:{type(exc).__name__}",)))
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
