"""Tracing the real geodesic of the 3-square-tiled surface in period space.

Stretching the surface by diag(1, t) moves its period matrix along

    Z_t = [[1 + i(2 y_t - t), i y_t], [i y_t, i(y_t / 2 + t)]],

where y_t is pinned down by a scalar equation: the even theta constant
theta[1,1,1; 0,0,0](0, Zhat'_t) of the transformed cover matrix must vanish.
main_series(t, y) is that constant, computed by theta.theta_char, times the
nonzero factor exp(pi(3t/8 - 9i/8)) that makes it real.  The series
factors through the Borweins' cubic theta functions, so solve_y computes
its unique root y_t > 2t/3 from an explicit formula for t >= 1 and the
isomorphism of the surfaces at t and 1/t below.  The bound y > 2t/3 is
exactly positive definiteness of all the period matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, W9Error
from .theta import ThetaCharacteristic, theta_char
from .w9 import CoverShape, cover_shape_extract

SERIES_CHAR = ThetaCharacteristic((1, 1, 1), (0, 0, 0))
ASYMPTOTE = math.log(3.0) / math.pi  # y_t - t -> ln 3 / pi as t -> inf
T_MAX = 600.0  # exp(3 pi t / 8) in main_series overflows at t ~ 602.6


def _require_domain(t: float, y: float) -> None:
    if not t > 0:
        raise ParameterError(f"t = {t} must be > 0")
    if not y > 2.0 * t / 3.0:
        raise ParameterError(
            f"y = {y} <= 2t/3 = {2*t/3:g}: imaginary part not positive definite"
        )


def zhat_of_ty(t: float, y: float) -> np.ndarray:
    """Cover period matrix along the geodesic: the cover pattern with
    z1 = iy, z13 = i(t - y/2), so its center is 1/2 + i(y - t/2)."""
    _require_domain(t, y)
    return CoverShape(1j * y, 1j * (t - 0.5 * y)).matrix()


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
class GeodesicPoint:
    """One solved point: y is the root of main_series(t, .) above 2t/3."""

    t: float
    y: float
    Z: np.ndarray
    Zhat: np.ndarray
    residual: float
    flags: tuple[str, ...] = ()


def _rho(t: float) -> float:
    """rho(t) = -F1(t)/F0(t) exp(-pi t / 3) for t >= 1, where

        F_j(t) = sum_n (-1)^(n(n+3)/2) exp(-pi t (n + 3/2)^2 / 6)

    over n = 0 (mod 3) for j = 0 and over the other n for j = 1.  The terms
    of n and -3 - n are equal, so both sums run over n >= -1, each scaled
    by its largest term; the first terms left out are exp(-18 pi t) in F0
    and exp(-22 pi t) in F1."""
    f0 = f1 = 0.0
    for n in range(-1, 9):
        sign = -1.0 if n * (n + 3) // 2 % 2 else 1.0
        if n % 3:
            f1 += sign * math.exp(-math.pi * t * (n + 1) * (n + 2) / 6)
        else:
            f0 += sign * math.exp(-math.pi * t * n * (n + 3) / 6)
    return -f1 / f0


# exponents of the cubic theta sums a(q) and C(q) of solve_y over |m|, |n| <= 3;
# the first terms left out are q^12 and q^10, and q < exp(-2 pi) when t >= 1
_BOX = [(m, n) for m in range(-3, 4) for n in range(-3, 4)]
_A_EXPONENTS = tuple(m * m + m * n + n * n for m, n in _BOX)
_C_EXPONENTS = tuple(m * m + m * n + n * n + m + n for m, n in _BOX)


def solve_y(t: float) -> GeodesicPoint:
    """Root y_t of main_series(t, .) in y > 2t/3, for t in [1/T_MAX, T_MAX].

    Grouped by k_1 + k_2 + k_3 mod 3, the series is
    exp(3 pi t / 8) [a(q) F0(t) + c(q) F1(t)] with q = exp(-2 pi (3y/2 - t)),
    where a(q) = sum_{m,n} q^(m^2+mn+n^2) and c(q) = q^(1/3) sum_{m,n}
    q^(m^2+mn+n^2+m+n) are the Borweins' cubic theta functions (Trans.
    AMS 323, 1991).  c/a increases from 0 to 1 on 0 < q < 1 and
    r(t) = -F1/F0 > 1, so the root, a(q)/c(q) = r(t), is unique.  For
    t >= 1 it is the fixed point of

        y - t = (1/pi) ln(rho(t) C(q) / a(q)),   q = exp(-pi (t + 3 (y - t))),

    with C = c q^(-1/3), iterated from y - t = ln3/pi; the map contracts
    by about 15 q.  The surface at t < 1 is the one at 1/t, so y_t comes
    from (3y_t/2 - t)(3y_{1/t}/2 - 1/t) = 1.  residual is |main_series| at
    the root for max(t, 1/t), an independent check of the formula.
    """
    if not 1.0 / T_MAX <= t <= T_MAX:
        raise ParameterError(f"t = {t} outside [1/T_MAX, T_MAX] = "
                             f"[{1 / T_MAX:g}, {T_MAX:g}]")
    t_up = max(t, 1.0 / t)
    rho = _rho(t_up)
    gap = ASYMPTOTE
    for _ in range(40):
        q = math.exp(-math.pi * (t_up + 3.0 * gap))
        a = sum(q ** e for e in _A_EXPONENTS)
        c = sum(q ** e for e in _C_EXPONENTS)
        gap, prev = math.log(rho * c / a) / math.pi, gap
        if abs(gap - prev) <= 1e-16:  # about 2 ulp of gap ~ 0.35
            break
    residual = abs(main_series(t_up, t_up + gap))
    if t < 1.0:
        y = 2.0 / 3.0 * (t + 1.0 / (0.5 * t_up + 1.5 * gap))
    else:
        y = t + gap
    return GeodesicPoint(t, y, z_of_ty(t, y), zhat_of_ty(t, y), residual)


def trace(t_start: float, t_end: float, steps: int) -> list[GeodesicPoint]:
    """One solve_y per point of a uniform t grid.  A point that fails is
    recorded with an error flag and NaN values, not dropped."""
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    if not (0 < t_start <= t_end and math.isfinite(t_end)):
        raise ParameterError("need 0 < t_start <= t_end < inf")
    points = []
    for t in np.linspace(t_start, t_end, steps):
        try:
            points.append(solve_y(t))
        except W9Error as exc:  # recorded, not dropped
            nan2 = np.full((2, 2), complex(math.nan, math.nan))
            nan3 = np.full((3, 3), complex(math.nan, math.nan))
            points.append(GeodesicPoint(t, math.nan, nan2, nan3, math.nan,
                                        (f"error:{type(exc).__name__}",)))
    return points


def extract_ty_from_cover(Zhat, shape_tol: float = 1e-9) -> tuple[float, float]:
    """(t, y) read off a cover period matrix: y = Im z1, t = Im z13 + y/2.

    The matrix must match the cover pattern and have purely imaginary
    z1, z13 (the M-curve reality condition): real parts above 1e-7 are refused.
    """
    shape = cover_shape_extract(Zhat, shape_tol)
    if abs(shape.z1.real) > 1e-7 or abs(shape.z13.real) > 1e-7:
        raise ParameterError(
            "z1 or z13 has a real part: matrix is not on the real locus"
        )
    y = shape.z1.imag
    t = shape.z13.imag + 0.5 * y
    return t, y
