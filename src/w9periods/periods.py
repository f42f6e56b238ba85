"""Numerical period matrices of hyperelliptic curves y^2 = P(x).

The three supported homology layouts follow one construction: order the
branch points, join consecutive ones by simple arcs eps_j, and take the
cycles delta_j lying over them.  Arcs through infinity are never
integrated; they are eliminated with the relations
sum delta_{2j} = sum delta_{2j-1} = 0, so every basis row below is an
integer combination of finite arcs only.

Orientation convention: each arc is integrated from its start to its end
point, in the order build_cycles lists the arcs, and the square root on
it is anchored at the arc midpoint m by the principal-branch product
A = prod_j sqrt(m - x_j), then extended along the arc by continuity
(below).  A's end factors m - z0 and m - z1 are h = (z1 - z0) / 2 and
0.0 - h, exact and with their zero signs; from the rounded m they lose
1.5e-11 on the cover's arc a -> b, 2e-11 long at s = sqrt(3)/3 - 1e-11.
On the real axis approached from above A is the determination continuous
on the upper half-plane, so the anchors of all real arcs are consistent
without any per-arc sign; a factor within 2 NEAR_REAL below the negative
real axis, where the layouts' nearly real branch points can put it, is
taken from above.  It reproduces the exact period matrices of the
3-square-tiled surface (s = 2 - sqrt(3)) and tau = i for y^2 = x^3 - x,
and test_sqrt_determination_chain checks the genus-2 midpoint anchors
against continuation between arcs.

Mirror pairs: when the branch points are exactly closed under x -> -x,
P(-x) = (-1)^n P(x) for n = len(branch_points); a curve closed only to
a tolerance has no such relation and integrates every arc.  Let arc j
run from z0 to z1 and arc i be its negated reverse, from -z1 to -z0.
Substituting x = -y turns I_j,k = int_j x^(k-1) dx / S_j(x) into
(-1)^(k+1) times int_i y^(k-1) dy / S_j(-y).  S_j(-y) squares to
(-1)^n P(y) and is continuous on arc i, so it is eps * S_i(y) for a
constant eps, read off at the midpoints: eps = S_j(m_j) / S_i(-m_j) =
A_j / A_i.  Hence I_j,k = (-1)^(k+1) I_i,k / eps, where eps^2 = (-1)^n
makes eps = +-1 for even degree and +-i for odd degree; it is rounded to
that unit.  period_matrices integrates arc i and derives arc j: on the
cover the arcs -c -> -b and -b -> -a give b -> c and a -> b.  The
mirror of an arc has the clearance of the arc, so no clearance check is
lost.

The integrand in theta: on the arc from z0 to z1 put x = m + h u,
u = cos(theta), m = (z0 + z1) / 2, h = (z1 - z0) / 2.  Over the foreign
branch points r, x - r = (m - r)(1 + c_r u), c_r = h / (m - r), so
P(x) = A^2 (1 - u^2) prod_r (1 + c_r u), A the midpoint anchor.  For u in
[-1, 1] each factor runs along a segment through 1, which meets the
closed negative real axis only if r lies on the arc, which the clearance
test refuses.  So each principal sqrt(1 + c_r u) is continuous on the
arc, no sign needs tracking, and
I_k = (h / A) int_0^pi x^(k-1) / prod_r sqrt(1 + c_r cos(theta)) dtheta,
with no end-point singularity.  It is analytic but at theta_r =
arccos(u_r), u_r = (r - m) / h, and the images -theta_r, 2 pi - theta_r;
|Im theta_r| = ln rho_r for the Bernstein ellipse
rho_r = |u_r + sqrt(u_r^2 - 1)| through r (the root on u_r's side,
Re(conj(u_r) sqrt) >= 0, as the other cancels for a root far along the
arc's line).

Gauss-Chebyshev arcs: the midpoint rule in theta, N nodes
u_j = cos((2j - 1) pi / (2N)) of weight pi / N, errs by O(rho^(-2N)) for
rho = min_r rho_r, so N = ceil(ln(1e15) / (2 ln rho)) is known before
any evaluation (Molin and Neurohr, Math. Comp. 88 (2019)).  arc_integrals
rounds N up to a multiple of 8, so that few node sets are cached, and
takes this rule while N <= CHEBYSHEV_MAX_NODES, x formed from the end
point nearer 0.

Graded arcs: a larger N, or a rho that rounds to 1, means a root close
to [0, pi] in theta.  Such an arc takes 12-node Gauss-Legendre panels
graded toward the roots (Trefethen and Weideman, SIAM Rev. 56 (2014);
Schwab, p- and hp-Finite Element Methods (1998)).  [0, pi] is cut into
quarters, each the offset phi in [0, pi/4] from its anchor, which x and
x - r = (anchor - r) + (x - anchor) are formed from, exact beside it:
x = z1 - h (1 - cos phi), m + h sin phi, m - h sin phi or
z0 + h (1 - cos phi).  theta_r comes from the exact offset of the
nearer end, 2 asin(sqrt((z1 - r) / (2h))) or
pi - 2 asin(sqrt((r - z0) / (2h))), as u_r + 1 rounds to 0 next to the
far cusp.  In a quarter, a root at distance w < pi/4 sets a grading
point p, Re phi_r clamped into the quarter and moved to its end if
within w of it; the panels run [p, p + 2^-d l], doubling to the piece's
end l away, for the least d with 2^-d l <= w, and several points cut
the quarter at their midpoints.  So every panel sees every root and
image outside its Bernstein ellipse of parameter 2 + sqrt(5) = 4.24, the
worst cases being a root pi/4 over the middle of a panel pi/4 wide and
one moved to an end from w/2 (over 3,436 graded arcs of the family the
least is 4.28).  Gauss-Legendre's error on a panel of half-width delta
is then at most (64/15) delta M 4^(-24) / 15 = 1.0e-15 delta M, M the
bound of the integrand on the panel's ellipse of parameter 4 (Trefethen,
ATAP, Thm. 19.3): an arc's error is at most their sum, known a priori.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (AccuracyError, DegeneracyError, LayoutError,
                     ParameterError, PathError)
from .quadrature import QUARTER, chebyshev_nodes, graded_nodes
from .siegel import is_riemann_matrix, lu_solve

MIN_ROOT_SEPARATION = 1e-12
# the layouts take a branch point within NEAR_REAL of the real axis as real
NEAR_REAL = 1e-9
CLEARANCE_FACTOR = 1e-3
# Gauss-Chebyshev arcs: N nodes for an error of rho^(-2N) <= 1e-15, taken
# up to the N where the graded rule becomes the faster of the two
CHEBYSHEV_LOG_TARGET = math.log(1e15)
CHEBYSHEV_MAX_NODES = 552
_NEAR_RHO = math.exp(QUARTER)  # graded toward roots with |Im theta_r| < pi/4

LAYOUT_GENUS2 = "real_mcurve_genus2"
LAYOUT_COVER = "cover_genus3"
LAYOUT_ELLIPTIC = "elliptic"


@dataclass(frozen=True)
class HyperellipticCurve:
    """Finite branch points of y^2 = prod (x - x_j); infinity implicit if odd.

    ParameterError if (2 max |x_j|)^max(3, n - 2) > DBL_MAX, n points: an
    arc's anchor has n roots of |m - x_j| <= 2 max |x_j| (moments fewer),
    and its clearance test squares rho_r <= 4 |r - m| / MIN_ROOT_SEPARATION.
    n - 2, above n/2, keeps the set of accepted curves as it was."""

    branch_points: tuple[complex, ...]

    def __post_init__(self):
        pts = self.branch_points
        if len(pts) < 3:
            raise ParameterError("need at least 3 branch points")
        if not all(map(cmath.isfinite, pts)):
            raise ParameterError(f"branch points must be finite, got {pts}")
        bound = 0.5 * sys.float_info.max ** (1.0 / max(3, len(pts) - 2))
        if max(map(abs, pts)) > bound:
            raise ParameterError(f"branch points must have modulus <= {bound:.3g}")
        sep, i, j = min((abs(pts[i] - pts[j]), i, j)
                        for i in range(len(pts)) for j in range(i + 1, len(pts)))
        if sep <= MIN_ROOT_SEPARATION:
            raise DegeneracyError(f"branch points {pts[i]} and {pts[j]} coincide")
        # computed once per curve: every arc's clearance check reads it
        object.__setattr__(self, "_clearance", CLEARANCE_FACTOR * sep)

    @property
    def genus(self) -> int:
        return (len(self.branch_points) - 1) // 2

    def clearance(self) -> float:
        return self._clearance


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
    t = ((p - z0) * d.conjugate()).real / abs(d) ** 2
    t = min(1.0, max(0.0, t))
    return abs(p - (z0 + t * d))


def _foreign(pts, path: ArcPath) -> list[complex]:
    """The branch points farther than MIN_ROOT_SEPARATION from both ends."""
    z0, z1 = path.start, path.end
    return [r for r in pts if abs(r - z0) > MIN_ROOT_SEPARATION < abs(r - z1)]


def _anchor(path: ArcPath, foreign) -> complex:
    """The arc's midpoint anchor A = prod_j sqrt(m - x_j), formed as the
    module docstring says: end factors from h, nearly real factors from above."""
    m, h = 0.5 * (path.start + path.end), 0.5 * (path.end - path.start)
    val = complex(1.0)
    for w in [h, 0.0 - h] + [m - r for r in foreign]:
        root = cmath.sqrt(w)
        if root.imag < 0 and w.real < 0 and w.imag >= -2.0 * NEAR_REAL:
            root = -root
        val *= root
    return val


def _moments(x: np.ndarray, f: np.ndarray, kmax: int) -> np.ndarray:
    """Sums of f * x^(k-1) for k = 1..kmax, powers by running product."""
    terms = np.empty((kmax, len(x)), dtype=np.result_type(x, f))
    terms[0] = f
    for k in range(1, kmax):
        np.multiply(terms[k - 1], x, out=terms[k])
    return terms.sum(axis=1)


def arc_integrals(curve: HyperellipticCurve, path: ArcPath) -> np.ndarray:
    """Integrals of x^(k-1) dx / sqrt(P) along the arc for k = 1..genus.

    Refuses an arc within the curve's clearance of a foreign branch point,
    then takes Gauss-Chebyshev with N nodes if N <= CHEBYSHEV_MAX_NODES,
    else the graded rule (see the module docstring for both)."""
    z0, z1 = path.start, path.end
    m, h = 0.5 * (z0 + z1), 0.5 * (z1 - z0)
    clear = curve.clearance()
    rho = math.inf
    foreign = _foreign(curve.branch_points, path)
    near = []  # (r, u_r) of the foreign roots with |Im theta_r| = ln(rho_r) < QUARTER
    for r in foreign:
        u = (r - m) / h
        # the root of u^2 - 1 on u's side, so |u + root| >= 1 without cancellation
        root = cmath.sqrt(u * u - 1.0)
        if (u.conjugate() * root).real < 0:
            root = -root
        rho_r = abs(u + root)
        # r is on the Bernstein ellipse rho_r, at least |h| (rho_r - 1)^2 / (2 rho_r)
        # from the arc; the exact distance decides where that is below 2 clear
        if (abs(h) * (rho_r - 1.0) ** 2 < 4.0 * clear * rho_r
                and _segment_distance(z0, z1, r) < clear):
            raise PathError(
                f"arc {z0}->{z1} passes within {clear:g} of branch point {r}"
            )
        rho = min(rho, rho_r)
        if rho_r < _NEAR_RHO:
            near.append((r, u))
    if rho > 1.0:
        n = 8 * math.ceil(CHEBYSHEV_LOG_TARGET / (2.0 * math.log(rho)) / 8)
        if n <= CHEBYSHEV_MAX_NODES:
            one_minus, one_plus = chebyshev_nodes(n)
            # from the end point nearer 0, where x and x - r then keep their accuracy
            if abs(z0) <= abs(z1):
                return _sums(curve, path, z0, None, one_plus, math.pi / n, foreign)
            return _sums(curve, path, z1, None, -one_minus, math.pi / n, foreign)
    return _graded_integrals(curve, path, foreign, near)


def _sums(curve: HyperellipticCurve, path: ArcPath, anchors, index,
          offsets: np.ndarray, weights, foreign: list[complex]) -> np.ndarray:
    """(h / A) sum_j w_j x_j^(k-1) / prod_r sqrt((x_j - r) / (m - r)), k =
    1..genus, at x_j = anchor + h offsets[j], anchor = anchors[index[j]]
    (or the one anchor, if index is None), with x_j - r formed as
    (anchor - r) + h offsets[j] in one row per root."""
    m, h = 0.5 * (path.start + path.end), 0.5 * (path.end - path.start)
    roots = np.array(foreign)
    dx = h * offsets
    if index is None:
        x = anchors + dx
        ratios = np.add.outer(anchors - roots, dx)
    else:
        x = anchors[index] + dx
        ratios = np.subtract.outer(anchors, roots).T[:, index] + dx
    ratios /= (m - roots)[:, None]
    f = weights / np.sqrt(ratios, out=ratios).prod(axis=0)
    return h / _anchor(path, foreign) * _moments(x, f, curve.genus)


def _theta(path: ArcPath, h: complex, r: complex, u: complex) -> complex:
    """theta_r = arccos(u_r), Re theta_r in [0, pi], for the root r at
    u_r = (r - m) / h; beside an end from the exact offset
    1 -+ u_r = 2 sin^2(phi / 2) = (z1 - r) / h or (r - z0) / h, whose
    digits u_r itself has lost."""
    if abs(u.real) <= 0.5:
        return 0.5 * math.pi - cmath.asin(u)
    sign = 1.0 if u.real > 0 else -1.0
    end = path.end if sign > 0 else path.start
    phi = 2.0 * cmath.asin(cmath.sqrt(sign * (end - r) / (2.0 * h)))
    return phi if sign > 0 else math.pi - phi


# the four quarters of theta in [0, pi], each the offset phi in [0, pi/4]
# from its anchor z1, m, m or z0: theta = base - step phi, and
# x = anchor + step h g(phi) with g = 1 - cos phi (omc) or sin phi
_QUARTERS = ((-1.0, True, 0.0), (1.0, False, 0.5 * math.pi),
             (-1.0, False, 0.5 * math.pi), (1.0, True, math.pi))


def _depth(length: float, width: float) -> int:
    """The grading depth whose first panel, 2^-depth length, is at most width."""
    return max(0, math.ceil(math.log2(length / width)))


def _graded_integrals(curve: HyperellipticCurve, path: ArcPath,
                      foreign: list[complex], near: list) -> np.ndarray:
    """arc_integrals by Gauss-Legendre panels in theta, graded toward the
    roots (r, u_r) in near (see the module docstring)."""
    z0, z1 = path.start, path.end
    m, h = 0.5 * (z0 + z1), 0.5 * (z1 - z0)
    points = ({}, {}, {}, {})  # per quarter: grading point p -> least width
    for r, u in near:
        theta = _theta(path, h, r, u)
        a, b = theta.real, abs(theta.imag)
        # quarter j spans [j, j + 1] pi/4; b < pi/4 leaves only j0 - 1 .. j0 + 1 in reach
        j0 = int(a / QUARTER)
        for j in range(max(0, j0 - 1), min(4, j0 + 2)):
            step, _, base = _QUARTERS[j]
            # phi_r = step (base - theta_r); p its real part clamped into the quarter
            re = step * (base - a)
            p = min(max(re, 0.0), QUARTER)
            width = math.hypot(re - p, b)
            if width < QUARTER:
                p = 0.0 if p <= width else QUARTER if QUARTER - p <= width else p
                points[j][p] = min(width, points[j].get(p, width))
    offsets, weights, index = _layout(tuple(map(_pieces, points)))
    return _sums(curve, path, np.array([z1, m, m, z0]), index, offsets,
                 weights, foreign)


def _pieces(points: dict) -> tuple:
    """The pieces (p, length, depth) of a quarter with grading points
    p -> width: cut at the midpoints between the points, each piece runs
    from p over the signed length, graded toward p to the depth whose
    first panel is no wider than the width; with no points, one panel."""
    points = points or {0.0: QUARTER}
    ps = sorted(points)
    cuts = [0.0] + [0.5 * (a + b) for a, b in zip(ps, ps[1:])] + [QUARTER]
    return tuple((p, length, _depth(abs(length), points[p]))
                 for p, lo, hi in zip(ps, cuts, cuts[1:])
                 for length in (lo - p, hi - p) if length)


@lru_cache(maxsize=256)
def _layout(quarters: tuple):
    """Signed offsets step g(phi), weights and quarter index 0..3 of the
    nodes of the four quarters, given as their pieces."""
    offsets, weights, index = [], [], []
    for j, (pieces, (step, omc, _)) in enumerate(zip(quarters, _QUARTERS)):
        for p, length, depth in pieces:
            phi, w = graded_nodes(depth)
            ratio = length / QUARTER
            phi = p + ratio * phi
            offsets.append(step * (2.0 * np.sin(0.5 * phi) ** 2 if omc else np.sin(phi)))
            weights.append(abs(ratio) * w)
            index.append(np.full(len(phi), j))
    return tuple(map(np.concatenate, (offsets, weights, index)))


def build_cycles(curve: HyperellipticCurve, layout: str) -> CyclePlan:
    """Arcs and symplectic basis rows for one of the supported layouts.

    The arcs join the curve's own branch points, those the layout's checks
    matched, so no arc end is off its branch point by the checks' tolerance."""
    pts = sorted(map(complex, curve.branch_points), key=lambda p: p.real)
    if layout == LAYOUT_GENUS2:
        if len(pts) != 5 or any(abs(p.imag) > NEAR_REAL for p in pts):
            raise LayoutError("genus-2 M-curve layout needs 5 real branch points")
        if abs(pts[0].real + 1) > 1e-6 or abs(pts[1].real) > 1e-6 or pts[2].real <= 0:
            raise LayoutError(
                "genus-2 layout expects roots -1, 0 and three positive reals"
            )
        arcs = tuple(ArcPath(pts[i], pts[i + 1]) for i in range(4)) + (None, None)
        alpha = ((1, 1, 0, 1, 0, 0), (0, 0, 0, 1, 0, 0))
        beta = ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))
        return CyclePlan(layout, arcs, alpha, beta)

    if layout == LAYOUT_COVER:
        if len(pts) != 8:
            raise LayoutError("cover layout needs 8 branch points")
        i_pts = [min(pts, key=lambda p: abs(p - v)) for v in (1j, -1j)]
        if any(abs(p - v) > 1e-6 for p, v in zip(i_pts, (1j, -1j))):
            raise LayoutError("cover layout needs branch points at +i and -i")
        reals = [p for p in pts if abs(p.imag) < NEAR_REAL]
        if len(reals) != 6 or reals[0].real >= 0 or reals[3].real <= 0:
            raise LayoutError("cover layout needs six real branch points +-a, +-b, +-c")
        if any(abs(v.real + w.real) > 1e-6 for v, w in zip(reals[:3], reals[:2:-1])):
            raise LayoutError("cover branch points must be symmetric about 0")
        order = reals[:3] + i_pts + reals[3:]
        arcs = tuple(ArcPath(order[i], order[i + 1]) for i in range(7)) + (None,)
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
        if len(pts) != 3 or any(abs(p.imag) > NEAR_REAL for p in pts):
            raise LayoutError("elliptic layout needs 3 real branch points")
        arcs = (ArcPath(pts[0], pts[1]), ArcPath(pts[1], pts[2]), None, None)
        return CyclePlan(layout, arcs, ((0, 1, 0, 0),), ((1, 0, 0, 0),))

    raise LayoutError(f"unknown layout {layout!r}")


@dataclass(frozen=True)
class PeriodPair:
    """A = integrals over alpha cycles, B over beta cycles (arc normalization)."""

    A: np.ndarray
    B: np.ndarray


def period_matrices(curve: HyperellipticCurve, plan: CyclePlan) -> PeriodPair:
    """Assemble A and B from the plan's integer combinations of arc integrals.

    On a curve exactly closed under x -> -x an arc whose negated reverse
    is already integrated is derived from it (see the module docstring).
    """
    g = plan.genus
    if curve.genus != g:
        raise LayoutError(f"curve genus {curve.genus} != plan genus {g}")
    pts = curve.branch_points
    mirror = {-p for p in pts} == set(pts)
    integrals = np.zeros((len(plan.arcs), g), dtype=complex)
    integrated = {}  # (start, end) of each integrated arc -> its row
    for j in plan.used_arcs():
        arc = plan.arcs[j]
        i = integrated.get((-arc.end, -arc.start)) if mirror else None
        if i is None:
            integrals[j] = arc_integrals(curve, arc)
            integrated[arc.start, arc.end] = j
            continue
        # I_j,k = (-1)^(k+1) I_i,k / eps, eps = A_j / A_i rounded to its unit,
        # both anchors as arc_integrals forms them (the principal root of a
        # negative real depends on the sign of its zero); the twin's foreign
        # points are the negatives of the arc's
        foreign = _foreign(pts, arc)
        ratio = _anchor(arc, foreign) / _anchor(plan.arcs[i], [-r for r in foreign])
        integrals[j] = integrals[i] / complex(round(ratio.real), round(ratio.imag))
        integrals[j, 1::2] *= -1.0
    return PeriodPair(np.array(plan.alpha_rows) @ integrals,
                      np.array(plan.beta_rows) @ integrals)


def period_matrix(curve: HyperellipticCurve, plan: CyclePlan) -> np.ndarray:
    """Z = A B^-1, validated as a Riemann matrix to 1e-10."""
    pair = period_matrices(curve, plan)
    # an owned C-contiguous copy, not a view pinning LAPACK's output
    Z = np.ascontiguousarray(lu_solve(pair.B.T, pair.A.T).T)
    if not is_riemann_matrix(Z, 1e-10):
        raise AccuracyError("computed A B^-1 is not a Riemann matrix")
    return Z
