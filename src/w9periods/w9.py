"""The discriminant-9 family of genus-2 M-curves and its genus-3 double covers.

One-parameter description: for s in (0, sqrt(3)/3) the curve

    y^2 = Q_s(x) = x (x + 1) (x - a(s)) (x - b(s)) (x - c(s))

with a(s) = s^2, b(s) = f3(f3(s))^2, c(s) = f3(s)^2, where f3 is the
order-3 Moebius map (x + sqrt(3)) / (-sqrt(3) x + 1).  Equivalently the
family is cut out by u = g(s) < -9 through the quintic

    y^2 = P_u(x) = x (x - 1) (x^3 + u x^2 - (8/3) u x + (16/9) u),

whose roots are those of Q_s shifted by +1.  The genus-3 double cover
branched over +-a, +-b, +-c, +-i carries the period-level membership
test: the cover period matrix has the rigid 2-parameter shape checked by
cover_shape_extract, and membership in the family is equivalent to the
vanishing of the single even theta constant theta[1,1,1; 1,0,1].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegeneracyError, LayoutError, ParameterError,
                     ShapeMismatchError)
from .periods import NEAR_REAL, HyperellipticCurve
from .siegel import is_riemann_matrix
from .theta import ThetaCharacteristic, theta_char

SQRT3 = math.sqrt(3.0)

# Residual tolerance for coincidence conditions on exact parameters.
EXACT_TOL = 1e-9

MEMBERSHIP_CHAR = ThetaCharacteristic((1, 1, 1), (1, 0, 1))


def f3(x: complex) -> complex:
    """The order-3 Moebius map (x + sqrt(3)) / (1 - sqrt(3) x), fixing +-i.

    The pole x = 1/sqrt(3) maps to complex infinity (not an exception).
    """
    den = 1.0 - SQRT3 * x
    if den == 0:
        return complex(math.inf, 0.0)
    return (x + SQRT3) / den


def g_of_s(s: float) -> float:
    """u = g(s) = -81 (s^2 + 1)^3 / ((3s + sqrt(3))^2 (3s - sqrt(3))^2).

    Even in s and invariant under f3; g < -9 away from the poles
    s = +-sqrt(3)/3, where a ParameterError is raised.
    """
    den = (3 * s + SQRT3) ** 2 * (3 * s - SQRT3) ** 2
    if den == 0 or abs(3 * abs(s) - SQRT3) < 1e-15:
        raise ParameterError(f"g has a pole at s = +-sqrt(3)/3 (got s = {s})")
    return -81.0 * (s * s + 1.0) ** 3 / den


def u_dual(u: float) -> float:
    """The involution u -> -9u / (u + 9) exchanging isomorphic curves."""
    if u == -9:
        raise ParameterError("u_dual has a pole at u = -9")
    return -9.0 * u / (u + 9.0)


def _branch_abc(s: float) -> tuple[float, float, float]:
    """(a(s), b(s), c(s)) = (s^2, f3(f3(s))^2, f3(s)^2) for s in (0, sqrt(3)/3)."""
    if not 0.0 < s < SQRT3 / 3.0:
        raise ParameterError(f"s = {s} outside (0, sqrt(3)/3)")
    return s * s, f3(f3(s)).real ** 2, f3(s).real ** 2


def curve_Pu(u) -> HyperellipticCurve:
    """The quintic curve y^2 = x (x - 1) (x^3 + u x^2 - (8/3) u x + (16/9) u).

    For complex u != 0, -9 the cubic's roots are sec^2(pi/6 - eps),
    sec^2(pi/6 + eps) and 1/sin^2(eps), eps = asin(3 / sqrt(-u)) / 3.  For
    u < -9, eps is the real angle to the far cusp and each root has full
    relative accuracy; no cubic is formed, so none overflows, and the
    curve's modulus bound refuses |u| > 2.82e+102.
    """
    if u in (0, -9) or not cmath.isfinite(u):
        raise ParameterError(f"u = {u} is excluded: need finite u != 0, -9")
    eps = cmath.asin(3.0 / cmath.sqrt(-u)) / 3.0
    cubic = (1.0 / cmath.cos(math.pi / 6.0 - eps) ** 2,
             1.0 / cmath.cos(math.pi / 6.0 + eps) ** 2,
             1.0 / cmath.sin(eps) ** 2)
    return HyperellipticCurve((0.0 + 0j, 1.0 + 0j) + cubic)


def curve_Qs(s: float) -> HyperellipticCurve:
    """The quintic curve y^2 = x (x + 1) (x - a(s)) (x - b(s)) (x - c(s)).

    DegeneracyError for s <= 1e-6, where a = s^2 is within 1e-12 of 0.
    """
    a, b, c = _branch_abc(s)
    return HyperellipticCurve((-1.0 + 0j, 0.0 + 0j, complex(a), complex(b), complex(c)))


def double_cover(curve: HyperellipticCurve) -> HyperellipticCurve:
    """Genus-3 cover y^2 = (z^2 - p)(z^2 - a^2)(z^2 - b^2)(z^2 - c^2).

    Expects the genus-2 branch points {p, 0, a^2, b^2, c^2}, p within 1e-9
    of -1, with positive squares; under the covering map (z, w) ->
    (z^2, z w) each root other than 0 lifts to its pair of square roots,
    and 0 to the unramified point z = 0.  Every root is lifted as given,
    imaginary parts within NEAR_REAL included; the negatives are formed as
    0.0 - z, which keeps a real root's +0.0 imaginary part.  A nonzero
    root near 0 has no lift in this layout and raises LayoutError.
    """
    pts = sorted(curve.branch_points, key=lambda p: p.real)
    if len(pts) != 5 or any(abs(p.imag) > NEAR_REAL for p in pts):
        raise LayoutError("double cover needs 5 real branch points")
    if abs(pts[0] + 1) > 1e-9 or pts[1] != 0 or pts[2].real <= 0:
        raise LayoutError(
            "double cover expects branch points -1, exactly 0 and three positive reals"
        )
    i, a, b, c = (cmath.sqrt(p) for p in (pts[0], *pts[2:]))
    return HyperellipticCurve((0.0 - c, 0.0 - b, 0.0 - a, i, 0.0 - i, a, b, c))


@dataclass(frozen=True, slots=True)
class CoverShape:
    """Parameters (z1, z13) of the rigid cover period-matrix pattern."""

    z1: complex
    z13: complex

    @property
    def z12(self) -> complex:
        return self.z1 / 2.0

    @property
    def center(self) -> complex:
        return 0.5 + 0.75 * self.z1 - 0.5 * self.z13

    def matrix(self) -> np.ndarray:
        z1, z13, z12, z2 = self.z1, self.z13, self.z12, self.center
        return np.array([[z1, z12, z13], [z12, z2, z12], [z13, z12, z1]])


def cover_shape_pattern(z1: complex, z13: complex) -> np.ndarray:
    return CoverShape(z1, z13).matrix()


def cover_shape_extract(Zhat, tol: float = EXACT_TOL) -> CoverShape:
    """Match Zhat against the 2-parameter cover pattern and return (z1, z13).

    The pattern is [[z1, z1/2, z13], [z1/2, 1/2 + (3/4) z1 - (1/2) z13,
    z1/2], [z13, z1/2, z1]]; a residual above tol raises
    ShapeMismatchError (the matrix is not a family cover in this basis).
    """
    Zhat = np.asarray(Zhat, dtype=complex)
    if Zhat.shape != (3, 3):
        raise ShapeMismatchError(f"expected a 3x3 matrix, got {Zhat.shape}")
    shape = CoverShape(complex(Zhat[0, 0]), complex(Zhat[0, 2]))
    residual = float(np.abs(Zhat - shape.matrix()).max())
    if residual > tol:
        raise ShapeMismatchError(
            f"pattern residual {residual:.3e} exceeds tol {tol:g}"
        )
    return shape


def base_from_cover(Zhat) -> np.ndarray:
    """Genus-2 period matrix from the cover's: [[2 z2, 2 z12], [2 z12, z1 + z13]].

    Reads z2 (center), z12 (off-diagonal), z1, z13 directly from the full
    3x3 matrix; the result is validated in Siegel space.
    """
    Zhat = np.asarray(Zhat, dtype=complex)
    if Zhat.shape != (3, 3):
        raise ShapeMismatchError(f"expected a 3x3 matrix, got {Zhat.shape}")
    Z = np.array([
        [2.0 * Zhat[1, 1], 2.0 * Zhat[0, 1]],
        [2.0 * Zhat[0, 1], Zhat[0, 0] + Zhat[0, 2]],
    ])
    if not is_riemann_matrix(Z):
        raise ShapeMismatchError("derived 2x2 matrix is not a Riemann matrix")
    return Z


@dataclass(frozen=True)
class AutomorphismReport:
    """Cirre classification of a genus-2 M-curve with branch points
    0 < a < b < c < 1 (plus 0 and 1)."""

    real_group: str
    complex_group: str
    matched_conditions: tuple[tuple[str, float], ...]


def cirre_classify(a: float, b: float, c: float) -> AutomorphismReport:
    """Real and complex automorphism groups from branch-point coincidences.

    Evaluates the residuals of a = bc, a = (b - c)/(c - 1), a = 1 + c - c/b
    and a = b(c - 1)/(b - 1); the last decides whether the real and
    complex groups coincide, the count of the first three selects the
    case (0: generic, 1: one extra involution, >=2: the order-6 locus).
    """
    if not 0.0 < a < b < c < 1.0:
        raise ParameterError(f"need 0 < a < b < c < 1, got ({a}, {b}, {c})")
    residuals = (
        ("a=bc", abs(a - b * c)),
        ("a=(b-c)/(c-1)", abs(a - (b - c) / (c - 1.0))),
        ("a=1+c-c/b", abs(a - (1.0 + c - c / b))),
        ("a=b(c-1)/(b-1)", abs(a - b * (c - 1.0) / (b - 1.0))),
    )
    matched = tuple((name, r) for name, r in residuals if r < EXACT_TOL)
    held = sum(1 for name, r in residuals[:3] if r < EXACT_TOL)
    real_eq_complex = residuals[3][1] >= EXACT_TOL
    if real_eq_complex:
        group = "Z2" if held == 0 else ("D2" if held == 1 else "D6")
        return AutomorphismReport(group, group, matched)
    if held == 0:
        return AutomorphismReport("Z2", "D2", matched)
    if held == 1:
        return AutomorphismReport("D2", "D4", matched)
    return AutomorphismReport("D6", "G24", matched)


def involution_residuals(s: float) -> dict[str, float]:
    """Residuals of the four extra-involution conditions at (a(s), b(s), c(s)).

    A: a = b - 1 + b/c,  B: a = bc / (1 + b + c),
    C: a = (c - b) / (1 + b),  D: a = b / (1 - b + c).
    """
    a, b, c = _branch_abc(s)
    return {
        "A": abs(a - (b - 1.0 + b / c)),
        "B": abs(a - b * c / (1.0 + b + c)),
        "C": abs(a - (c - b) / (1.0 + b)),
        "D": abs(a - b / (1.0 - b + c)),
    }


def w9_involution_conditions(s: float):
    """Labels and residuals of the involution conditions below EXACT_TOL."""
    return [(name, r) for name, r in involution_residuals(s).items()
            if r < EXACT_TOL]


def theta_membership_check(Zhat, shape_tol: float = EXACT_TOL) -> float:
    """|theta[1,1,1; 1,0,1](0, Zhat)| after the cover-shape test.

    Vanishing of this single even theta constant characterizes the
    period matrices of family covers among shape-conforming matrices.
    """
    cover_shape_extract(Zhat, shape_tol)
    return abs(theta_char(MEMBERSHIP_CHAR, np.zeros(3), Zhat))
