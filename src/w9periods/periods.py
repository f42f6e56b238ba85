"""Numerical period matrices of hyperelliptic curves y^2 = P(x).

The three supported homology layouts follow one construction: order the
branch points, join consecutive ones by simple arcs eps_j, and take the
cycles delta_j lying over them.  Arcs through infinity are never
integrated; they are eliminated with the relations
sum delta_{2j} = sum delta_{2j-1} = 0, so every basis row below is an
integer combination of finite arcs only.

Orientation convention: each arc is integrated from its start to its end
point, in the order build_cycles lists the arcs, and the square root on
it is anchored at the arc midpoint by the principal-branch product
prod_j sqrt(x - x_j), then extended along the arc by continuity
tracking.  On the real axis approached from above this product is the
unique determination that is continuous on the upper half-plane, so the
anchors of all real arcs are consistent without any per-arc sign.  The
convention reproduces the exactly known period matrices of the
3-square-tiled surface (s = 2 - sqrt(3)) and tau = i for y^2 = x^3 - x;
test_period_matrix_genus2_fixture, test_period_matrix_cover_fixture,
test_period_ratio_elliptic and acceptance criteria 3 and 8 pin it, and the
chain-tracking test in tests/test_periods.py checks that the midpoint
anchors of the genus-2 arcs agree with continuation between arcs.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyError, DegeneracyError, LayoutError,
                     ParameterError, PathError)
from .quadrature import (DEFAULT_QUAD, MIN_LEVEL, QuadConfig, integrate_levels,
                         tanh_sinh_nodes)
from .siegel import is_riemann_matrix, lu_solve

MIN_ROOT_SEPARATION = 1e-12
CLEARANCE_FACTOR = 1e-3

LAYOUT_GENUS2 = "real_mcurve_genus2"
LAYOUT_COVER = "cover_genus3"
LAYOUT_ELLIPTIC = "elliptic"


@dataclass(frozen=True)
class HyperellipticCurve:
    """Finite branch points of y^2 = prod (x - x_j); infinity implicit if odd."""

    branch_points: tuple[complex, ...]

    def __post_init__(self):
        pts = self.branch_points
        if len(pts) < 3:
            raise ParameterError("need at least 3 branch points")
        if not all(map(cmath.isfinite, pts)):
            raise ParameterError(f"branch points must be finite, got {pts}")
        sep, i, j = min((abs(pts[i] - pts[j]), i, j)
                        for i in range(len(pts)) for j in range(i + 1, len(pts)))
        if sep <= MIN_ROOT_SEPARATION:
            raise DegeneracyError(f"branch points {pts[i]} and {pts[j]} coincide")
        # computed once per curve: every arc's clearance check reads it
        object.__setattr__(self, "_min_separation", sep)

    @property
    def genus(self) -> int:
        return (len(self.branch_points) - 1) // 2

    def min_separation(self) -> float:
        return self._min_separation

    def clearance(self) -> float:
        return CLEARANCE_FACTOR * self._min_separation


@dataclass(frozen=True)
class ArcPath:
    """A straight segment between two branch points."""

    start: complex
    end: complex


@dataclass(frozen=True)
class CyclePlan:
    """Arcs and integer basis rows for one layout.

    Rows are integer vectors over the full cyclic arc list delta_1..delta_n
    (n = 2g + 2); entries over infinite arcs (stored as None) are zero.
    Each finite arc is oriented from start to end and carries the square
    root anchored at its midpoint (see the module docstring), so a row
    is the plain integer combination of arc integrals.
    """

    layout: str
    arcs: tuple[ArcPath | None, ...]
    alpha_rows: tuple[tuple[int, ...], ...]
    beta_rows: tuple[tuple[int, ...], ...]

    @property
    def genus(self) -> int:
        return len(self.alpha_rows)

    def used_arcs(self) -> list[int]:
        used = set()
        for row in self.alpha_rows + self.beta_rows:
            used.update(i for i, c in enumerate(row) if c != 0)
        return sorted(used)

    def intersection_matrix(self) -> np.ndarray:
        """Intersection form of the basis rows from (delta_j . delta_j+1) = 1."""
        n = len(self.arcs)
        E = np.zeros((n, n), dtype=int)
        for i in range(n):
            E[i, (i + 1) % n] = 1
            E[(i + 1) % n, i] = -1
        rows = np.array(self.alpha_rows + self.beta_rows, dtype=int)
        return rows @ E @ rows.T


def _segment_distance(z0: complex, z1: complex, p: complex) -> float:
    d = z1 - z0
    L2 = abs(d) ** 2
    if L2 == 0:
        return abs(p - z0)
    t = ((p - z0) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (z0 + t * d))


def _check_clearance(curve: HyperellipticCurve, path: ArcPath) -> None:
    clear = curve.clearance()
    for r in curve.branch_points:
        if abs(r - path.start) <= MIN_ROOT_SEPARATION:
            continue
        if abs(r - path.end) <= MIN_ROOT_SEPARATION:
            continue
        if _segment_distance(path.start, path.end, r) < clear:
            raise PathError(
                f"arc {path.start}->{path.end} passes within {clear:g} "
                f"of branch point {r}"
            )


def _track_signs(w: np.ndarray, anchor_index: int,
                 anchor_value: complex) -> np.ndarray:
    """Sign table making the square-root samples w continuous from the anchor."""
    ratio_flip = np.where((w[1:] / w[:-1]).real < 0, -1.0, 1.0)
    cum = np.concatenate(([1.0], np.cumprod(ratio_flip)))
    signs = cum / cum[anchor_index]
    if abs(w[anchor_index] - anchor_value) > abs(w[anchor_index] + anchor_value):
        signs = -signs
    return signs


def _principal_anchor(roots, x0: complex) -> complex:
    val = complex(1.0)
    for r in roots:
        val *= np.sqrt(complex(x0 - r))
    return val


def _sqrt_p_on_nodes(curve: HyperellipticCurve, path: ArcPath,
                     u, one_minus, one_plus):
    """Stable node positions x and the principal (untracked) sqrt(P) there."""
    z0, z1 = path.start, path.end
    half = 0.5 * (z1 - z0)
    x = 0.5 * (z1 + z0) + half * u
    P = np.ones(len(u), dtype=complex)
    for r in curve.branch_points:
        if abs(r - z0) <= MIN_ROOT_SEPARATION:
            P *= half * one_plus
        elif abs(r - z1) <= MIN_ROOT_SEPARATION:
            P *= -half * one_minus
        else:
            P *= x - r
    return x, np.sqrt(P)


def _moments(x: np.ndarray, f: np.ndarray, kmax: int) -> np.ndarray:
    """Sums of f * x^(k-1) for k = 1..kmax, powers by running product."""
    sums = [f.sum()]
    for _ in range(kmax - 1):
        f = f * x
        sums.append(f.sum())
    return np.array(sums)


def arc_integrals(curve: HyperellipticCurve, path: ArcPath, ks,
                  quad: QuadConfig = DEFAULT_QUAD) -> np.ndarray:
    """Integrals of x^(k-1) dx / sqrt(P) along the arc, one entry per k.

    The tanh-sinh levels nest (see quadrature), so sqrt(P) is evaluated
    once per node: the first estimate samples level MIN_LEVEL + 1 and
    reads level MIN_LEVEL off its even nodes; each deeper level samples
    only its new odd nodes, gives each the sign continuous with its left
    neighbour, and adds their sum to half the previous one.
    """
    ks = list(ks)
    if not ks:
        raise ParameterError("no k given")
    for k in ks:
        if k not in range(1, curve.genus + 1):
            raise ParameterError(f"k={k} outside 1..{curve.genus}")
    _check_clearance(curve, path)
    pick = np.array(ks, dtype=int) - 1
    kmax = int(pick.max()) + 1
    half = 0.5 * (path.end - path.start)
    mid = 0.5 * (path.end + path.start)
    # sq: tracked sqrt(P) at every node of the deepest level sampled;
    # acc: moment sums of the level last returned, without the factor half;
    # odd: the odd-node sums of level MIN_LEVEL + 1, sampled by the first call
    sq = acc = odd = None

    def estimate(level: int) -> np.ndarray:
        nonlocal sq, acc, odd
        if level == MIN_LEVEL:
            u, one_minus, one_plus, w = tanh_sinh_nodes(level + 1)
            x, sq = _sqrt_p_on_nodes(curve, path, u, one_minus, one_plus)
            anchor = _principal_anchor(curve.branch_points, mid)
            sq = sq * _track_signs(sq, len(u) // 2, anchor)  # u[len // 2] = 0
            f = w / sq
            acc = 2.0 * _moments(x[::2], f[::2], kmax)
            odd = _moments(x[1::2], f[1::2], kmax)
        elif level == MIN_LEVEL + 1:
            acc = 0.5 * acc + odd
        else:
            u, one_minus, one_plus, w = tanh_sinh_nodes(level)
            x, new = _sqrt_p_on_nodes(curve, path, u[1::2], one_minus[1::2],
                                      one_plus[1::2])
            new = np.where((new / sq[:-1]).real < 0, -new, new)
            merged = np.empty(2 * len(sq) - 1, dtype=complex)
            merged[::2] = sq
            merged[1::2] = new
            sq = merged
            acc = 0.5 * acc + _moments(x, w[1::2] / new, kmax)
        return half * acc[pick]

    return integrate_levels(estimate, quad)


def build_cycles(curve: HyperellipticCurve, layout: str) -> CyclePlan:
    """Arcs and symplectic basis rows for one of the supported layouts."""
    pts = list(curve.branch_points)
    if layout == LAYOUT_GENUS2:
        if len(pts) != 5 or any(abs(p.imag) > 1e-9 for p in pts):
            raise LayoutError("genus-2 M-curve layout needs 5 real branch points")
        xs = sorted(p.real for p in pts)
        if abs(xs[0] + 1) > 1e-6 or abs(xs[1]) > 1e-6 or xs[2] <= 0:
            raise LayoutError(
                "genus-2 layout expects roots -1, 0 and three positive reals"
            )
        ordered = [complex(v) for v in xs]
        arcs = tuple(ArcPath(ordered[i], ordered[i + 1]) for i in range(4)) + (None, None)
        alpha = ((1, 1, 0, 1, 0, 0), (0, 0, 0, 1, 0, 0))
        beta = ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))
        return CyclePlan(layout, arcs, alpha, beta)

    if layout == LAYOUT_COVER:
        if len(pts) != 8:
            raise LayoutError("cover layout needs 8 branch points")
        if not all(any(abs(p - v) <= 1e-6 for p in pts) for v in (1j, -1j)):
            raise LayoutError("cover layout needs branch points at +i and -i")
        reals = sorted(p.real for p in pts if abs(p.imag) < 1e-9)
        if len(reals) != 6 or reals[0] >= 0 or reals[3] <= 0:
            raise LayoutError("cover layout needs six real branch points +-a, +-b, +-c")
        a, b, c = reals[3], reals[4], reals[5]
        for v, w_ in zip(reals[:3], (-c, -b, -a)):
            if abs(v - w_) > 1e-6:
                raise LayoutError("cover branch points must be symmetric about 0")
        order = [-c, -b, -a, 1j, -1j, a, b, c]
        arcs = tuple(ArcPath(complex(order[i]), complex(order[i + 1]))
                     for i in range(7)) + (None,)
        alpha = (
            (1, 0, 0, 0, 0, 0, 0, 0),
            (1, 0, 1, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 1, 0),
        )
        beta = (
            (0, -1, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 1, 0, 0),
        )
        return CyclePlan(layout, arcs, alpha, beta)

    if layout == LAYOUT_ELLIPTIC:
        if len(pts) != 3 or any(abs(p.imag) > 1e-9 for p in pts):
            raise LayoutError("elliptic layout needs 3 real branch points")
        xs = sorted(p.real for p in pts)
        arcs = (ArcPath(complex(xs[0]), complex(xs[1])),
                ArcPath(complex(xs[1]), complex(xs[2])), None, None)
        return CyclePlan(layout, arcs, ((0, 1, 0, 0),), ((1, 0, 0, 0),))

    raise LayoutError(f"unknown layout {layout!r}")


@dataclass(frozen=True)
class PeriodPair:
    """A = integrals over alpha cycles, B over beta cycles (arc normalization)."""

    A: np.ndarray
    B: np.ndarray


def period_matrices(curve: HyperellipticCurve, plan: CyclePlan,
                    quad: QuadConfig = DEFAULT_QUAD) -> PeriodPair:
    """Assemble A and B from the plan's integer combinations of arc integrals."""
    g = plan.genus
    if curve.genus != g:
        raise LayoutError(f"curve genus {curve.genus} != plan genus {g}")
    ks = range(1, g + 1)
    integrals = np.zeros((len(plan.arcs), g), dtype=complex)
    for i in plan.used_arcs():
        integrals[i] = arc_integrals(curve, plan.arcs[i], ks, quad)
    return PeriodPair(np.array(plan.alpha_rows) @ integrals,
                      np.array(plan.beta_rows) @ integrals)


def period_matrix(curve: HyperellipticCurve, plan: CyclePlan,
                  quad: QuadConfig = DEFAULT_QUAD) -> np.ndarray:
    """Z = A B^-1, validated as a Riemann matrix at quadrature tolerance."""
    pair = period_matrices(curve, plan, quad)
    Z = lu_solve(pair.B.T, pair.A.T).T
    tol = max(1e-10, 100 * quad.tol)
    if not is_riemann_matrix(Z, tol):
        raise AccuracyError("computed A B^-1 is not a Riemann matrix")
    return Z
