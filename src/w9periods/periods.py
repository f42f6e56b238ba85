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
prod_j sqrt(x - x_j), then extended along the arc by continuity:
tracked node to node on a tanh-sinh arc, a product of continuous factors
on a Gauss-Chebyshev arc (see below).  On the real axis approached from
above this product is the unique determination that is continuous on the
upper half-plane, so the anchors of all real arcs are consistent without
any per-arc sign.  The convention reproduces the exactly known period matrices of the
3-square-tiled surface (s = 2 - sqrt(3)) and tau = i for y^2 = x^3 - x;
test_period_matrix_genus2_fixture, test_period_matrix_cover_fixture,
test_period_ratio_elliptic and acceptance criteria 3 and 8 pin it, and the
chain-tracking test in tests/test_periods.py checks that the midpoint
anchors of the genus-2 arcs agree with continuation between arcs.

Conjugate half (tanh-sinh): an arc from z0 to conj(z0), on a curve whose branch
points are closed under conjugation, is integrated from z0 to its real
midpoint m only, with the square root anchored at m to the same
principal product A.  As P(conj x) = conj P(x), the root on the other
half is sigma * conj(sqrt(P(conj x))) with sigma = A / conj(A), so the
arc integral is I = I_half - sigma * conj(I_half).  P(m) is real, so A
is real or imaginary and sigma = +1 or -1, read off |Re A| >= |Im A|.
This is the cover's arc from i to -i, which crosses the real axis
between -a and a: the half puts that near-singularity at an end point,
where the tanh-sinh nodes crowd, and stops at level 6 down to s = 1e-4.

Mirror pairs: when the branch points are closed under x -> -x,
P(-x) = (-1)^n P(x) for n = len(branch_points).  Let arc j run from z0
to z1 and arc i be its negated reverse, from -z1 to -z0.  Substituting
x = -y turns I_j,k = int_j x^(k-1) dx / S_j(x) into (-1)^(k+1) times
int_i y^(k-1) dy / S_j(-y).  S_j(-y) squares to (-1)^n P(y) and is
continuous on arc i, so it is eps * S_i(y) for a constant eps, read off
at the midpoints: eps = S_j(m_j) / S_i(-m_j) = A_j / A_i.  Hence
I_j,k = (-1)^(k+1) I_i,k / eps, where eps^2 = (-1)^n makes eps = +-1 for
even degree and +-i for odd degree (y^2 = x^3 - x); it is rounded to that
unit.  period_matrices integrates arc i and derives arc j: on the cover
the arcs -c -> -b and -b -> -a give b -> c and a -> b.  The mirror of an
arc has the clearance of the arc, so no clearance check is lost.

Real arcs (tanh-sinh): on a real arc of a conjugation-closed curve P is real and
nonzero, so P(x) / P(m) is positive on the whole arc and the continuous
root is sqrt(P(x)) = A * sqrt(P(x) / P(m)), a constant phase A times a
positive float64 function.  No sign table is needed.  The end-point
factors of the ratio are exactly one_plus and one_minus, a real root r
gives (x - r) / (m - r) and a conjugate pair r, conj(r) gives
|x - r|^2 / |m - r|^2.  This covers all genus-2 arcs and the cover's
arcs -c -> -b and -b -> -a; the cover's arcs through +-i keep the
complex tracked root.

Gauss-Chebyshev arcs: put x = m + h u on the arc from z0 to z1, with
m = (z0 + z1) / 2 and h = (z1 - z0) / 2.  Over the foreign branch points r
(all but z0 and z1), c_r = h / (m - r) gives x - r = (m - r)(1 + c_r u),
so P(x) = P(m) (1 - u^2) prod_r (1 + c_r u) and P(m) = A^2 for the
midpoint anchor A.  For u in [-1, 1] each factor 1 + c_r u runs along a
straight segment through 1 (at u = 0).  Such a segment meets the closed
negative real axis only if it passes through 0, that is, only if r lies
on the arc, which the clearance test refuses.  So each principal root
sqrt(1 + c_r u) is continuous on the arc and equals 1 at the midpoint, and
the root anchored at m to A is A sqrt(1 - u^2) prod_r sqrt(1 + c_r u),
with no sign tracking.  Hence
I_k = (h / A) int x^(k-1) / prod_r sqrt(1 + c_r u) du / sqrt(1 - u^2),
the Gauss-Chebyshev weight: with u_j = cos((2j - 1) pi / (2N)),
I_k ~ (h / A) (pi / N) sum_j x_j^(k-1) / prod_r sqrt(1 + c_r u_j).  The
integrand is analytic inside the Bernstein ellipse through the nearest
foreign root, rho = min_r |u_r + sqrt(u_r^2 - 1)| with u_r = (r - m) / h
and the root on u_r's side (Re(conj(u_r) sqrt) >= 0; the other one
cancels for a root far along the arc's line), so the error falls like
rho^(-2N) and N = ceil(ln(1e15) / (2 ln rho)) is known before any
evaluation (Molin and Neurohr, Math. Comp. 88 (2019), arXiv:1707.07249).
arc_integrals rounds N up to a multiple of 8, so that the node sets it
caches are few (69, 155 KB, against 546 and 1.2 MB for every N from 8
to 553), and takes this rule while N <= 553, tanh-sinh's node count at
level MIN_LEVEL + 1, the fewest any tanh-sinh arc evaluates; a larger N,
or a rho that rounds to 1, goes to tanh-sinh, and QuadConfig.tol governs
those arcs only.  In floating point 1 + c_r u is evaluated as
(x - r) / (m - r), with x formed from the end point nearer 0
(z0 + h (1 + u) or z1 - h (1 - u)), so that x and x - r keep their
relative accuracy beside that end: m + h u lost 1.4e-14 on the genus-2 arc
from b to c at s = 0.5.  On a real arc of a conjugation-closed curve every
factor is positive, or a conjugate pair's |x - r|^2 / |m - r|^2, so the
root is A sqrt(1 - u^2) sqrt(prod_r |x - r| / prod_r |m - r|), a product
of float64 moduli.  The per-root loop that finds rho also runs the
clearance test: r lies on the ellipse rho_r, at least
|h| (rho_r - 1)^2 / (2 rho_r) from the arc, so the segment distance is
computed only where that bound does not already clear it twice over.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import (AccuracyError, DegeneracyError, LayoutError,
                     ParameterError, PathError)
from .quadrature import (DEFAULT_QUAD, MIN_LEVEL, QuadConfig, chebyshev_nodes,
                         integrate_levels, tanh_sinh_nodes)
from .siegel import is_riemann_matrix, lu_solve

MIN_ROOT_SEPARATION = 1e-12
CLEARANCE_FACTOR = 1e-3
# Gauss-Chebyshev arcs: N nodes for an error of rho^(-2N) <= 1e-15, rounded
# up to a multiple of 8 so that at most 69 node sets are ever cached, taken
# while N is at most the fewest nodes a tanh-sinh arc evaluates (level 6)
CHEBYSHEV_LOG_TARGET = math.log(1e15)
CHEBYSHEV_MAX_NODES = len(tanh_sinh_nodes(MIN_LEVEL + 1)[0])

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
        object.__setattr__(self, "_clearance", CLEARANCE_FACTOR * sep)

    @property
    def genus(self) -> int:
        return (len(self.branch_points) - 1) // 2

    def clearance(self) -> float:
        return self._clearance

    @cached_property
    def closed_under_conjugation(self) -> bool:
        return _closed_under(self.branch_points, lambda r: r.conjugate())

    @cached_property
    def closed_under_negation(self) -> bool:
        return _closed_under(self.branch_points, lambda r: -r)


def _closed_under(pts, image) -> bool:
    """True iff image(r) is a branch point, to MIN_ROOT_SEPARATION, for all r."""
    return all(min(abs(q - p) for q in pts) <= MIN_ROOT_SEPARATION
               for p in map(image, pts))


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
        val *= cmath.sqrt(x0 - r)
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


def _real_root_on_nodes(curve: HyperellipticCurve, path: ArcPath,
                        u, one_minus, one_plus):
    """Real node positions x and sqrt(P(x) / P(m)) there, m the midpoint,
    for a real arc of a conjugation-closed curve (see the module docstring)."""
    z0, z1 = path.start.real, path.end.real
    m = 0.5 * (z1 + z0)
    x = m + 0.5 * (z1 - z0) * u
    R = one_plus * one_minus
    scale = 1.0
    for r in curve.branch_points:
        if abs(r - z0) <= MIN_ROOT_SEPARATION or abs(r - z1) <= MIN_ROOT_SEPARATION:
            continue
        if abs(r.imag) <= MIN_ROOT_SEPARATION:
            R *= x - r.real
            scale *= m - r.real
        elif r.imag > 0:  # with its conjugate, which the curve holds too
            R *= (x - r.real) ** 2 + r.imag ** 2
            scale *= abs(m - r) ** 2
    return x, np.sqrt(R / scale)


def _moments(x: np.ndarray, f: np.ndarray, kmax: int) -> np.ndarray:
    """Sums of f * x^(k-1) for k = 1..kmax, powers by running product."""
    sums = [f.sum()]
    for _ in range(kmax - 1):
        f = f * x
        sums.append(f.sum())
    return np.array(sums)


def _real_arc(curve: HyperellipticCurve, path: ArcPath) -> bool:
    """True iff the arc lies on the real axis and the branch points are
    closed under conjugation."""
    return path.start.imag == 0 == path.end.imag and curve.closed_under_conjugation


def _conjugate_ends(curve: HyperellipticCurve, path: ArcPath) -> bool:
    """True iff the arc's ends are a conjugate pair off the real axis and
    the branch points are closed under conjugation."""
    return (path.start.imag != 0 and path.end == path.start.conjugate()
            and curve.closed_under_conjugation)


def arc_integrals(curve: HyperellipticCurve, path: ArcPath,
                  quad: QuadConfig = DEFAULT_QUAD) -> np.ndarray:
    """Integrals of x^(k-1) dx / sqrt(P) along the arc for k = 1..genus.

    Refuses an arc that passes within the curve's clearance of a foreign
    branch point, then predicts the Gauss-Chebyshev node count N from the
    nearest foreign branch point, rounded up to a multiple of 8.  If N is
    at most tanh-sinh's node count at level MIN_LEVEL + 1 the arc takes
    that rule, else _tanh_sinh_integrals.  See the module docstring for
    both.
    """
    z0, z1 = path.start, path.end
    m, h = 0.5 * (z0 + z1), 0.5 * (z1 - z0)
    clear = curve.clearance()
    rho = math.inf
    foreign = []
    for r in curve.branch_points:
        if abs(r - z0) <= MIN_ROOT_SEPARATION or abs(r - z1) <= MIN_ROOT_SEPARATION:
            continue
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
        foreign.append(r)
    if rho > 1.0:
        n = 8 * math.ceil(CHEBYSHEV_LOG_TARGET / (2.0 * math.log(rho)) / 8)
        if n <= CHEBYSHEV_MAX_NODES:
            return _chebyshev_integrals(curve, path, n, foreign)
    return _tanh_sinh_integrals(curve, path, quad)


def _chebyshev_integrals(curve: HyperellipticCurve, path: ArcPath, n: int,
                         foreign: list[complex]) -> np.ndarray:
    """arc_integrals by the n-node Gauss-Chebyshev rule, foreign being the
    branch points other than the arc's ends (see the module docstring)."""
    z0, z1 = path.start, path.end
    m, h = 0.5 * (z0 + z1), 0.5 * (z1 - z0)
    scale = h * math.pi / (n * _principal_anchor(curve.branch_points, m))
    one_minus, one_plus = chebyshev_nodes(n)
    real = _real_arc(curve, path)
    if real:
        z0, z1, h = z0.real, z1.real, h.real
    # from the end point nearer 0, where x and x - r then keep their accuracy
    x = z0 + h * one_plus if abs(z0) <= abs(z1) else z1 - h * one_minus
    if real:
        f = np.abs(np.subtract.outer(x, foreign)).prod(axis=1) ** -0.5
        scale *= math.sqrt(math.prod(abs(m - r) for r in foreign))
    else:
        f = 1.0 / np.sqrt(np.subtract.outer(x, foreign)
                          / np.subtract(m, foreign)).prod(axis=1)
    return scale * _moments(x, f, curve.genus)


def _tanh_sinh_integrals(curve: HyperellipticCurve, path: ArcPath,
                         quad: QuadConfig = DEFAULT_QUAD) -> np.ndarray:
    """arc_integrals by nested tanh-sinh levels, stopping at quad.tol.

    A real arc of a conjugation-closed curve runs the float64 kernel
    sqrt(P) = A * sqrt(P / P(m)).  An arc with conjugate ends on such a
    curve is integrated over its upper half only, from its start to its
    real midpoint m, with sqrt(P) anchored at m; the other half is
    -sigma * conj of it.  See the module docstring for both.
    """
    pts, g = curve.branch_points, curve.genus
    if _conjugate_ends(curve, path):
        m = complex(path.start.real)
        anchor = _principal_anchor(pts, m)
        upper_half = _tracked_root(curve, ArcPath(path.start, m), anchor, True)
        upper = _nested_integrals(upper_half, g, 0.5 * (m - path.start), quad)
        sigma = 1.0 if abs(anchor.real) >= abs(anchor.imag) else -1.0
        return upper - sigma * upper.conj()
    anchor = _principal_anchor(pts, 0.5 * (path.start + path.end))
    half = 0.5 * (path.end - path.start)
    if _real_arc(curve, path):
        return _nested_integrals(partial(_real_root_on_nodes, curve, path), g,
                                 half / anchor, quad)
    return _nested_integrals(_tracked_root(curve, path, anchor, False), g, half, quad)


def _tracked_root(curve: HyperellipticCurve, path: ArcPath, anchor: complex,
                  anchor_at_end: bool):
    """Sampler of sqrt(P) on the arc, anchored to the value anchor at the
    arc's midpoint, or at its end point if anchor_at_end, and continued
    node to node.

    The first call takes every node of a level and tracks the signs from
    the anchor; each later call takes the new odd nodes of the next level
    and gives each the sign continuous with its left neighbour.
    """
    sq = None  # tracked sqrt(P) at every node of the deepest level sampled

    def sample(u, one_minus, one_plus):
        nonlocal sq
        x, new = _sqrt_p_on_nodes(curve, path, u, one_minus, one_plus)
        if sq is None:
            # u[-1] = 1 (x = end) and u[len // 2] = 0 (x = midpoint)
            at = len(u) - 1 if anchor_at_end else len(u) // 2
            sq = new * _track_signs(new, at, anchor)
            return x, sq
        new = np.where((new / sq[:-1]).real < 0, -new, new)
        merged = np.empty(2 * len(sq) - 1, dtype=complex)
        merged[::2] = sq
        merged[1::2] = new
        sq = merged
        return x, new

    return sample


def _nested_integrals(sample, kmax: int, scale: complex,
                      quad: QuadConfig) -> np.ndarray:
    """scale times the tanh-sinh sums of w x^(k-1) / root for k = 1..kmax,
    where sample(u, one_minus, one_plus) -> (x, root) maps nodes of [-1, 1]
    to points of the arc and the arc's root function there.

    The tanh-sinh levels nest (see quadrature), so the root is evaluated
    once per node: the first estimate samples level MIN_LEVEL + 1 and
    reads level MIN_LEVEL off its even nodes; each deeper level samples
    only its new odd nodes and adds their sum to half the previous one.
    """
    # acc: moment sums of the level last returned, without the factor scale;
    # odd: the odd-node sums of level MIN_LEVEL + 1, sampled by the first call
    acc = odd = None

    def estimate(level: int) -> np.ndarray:
        nonlocal acc, odd
        if level == MIN_LEVEL:
            u, one_minus, one_plus, w = tanh_sinh_nodes(level + 1)
            x, root = sample(u, one_minus, one_plus)
            f = w / root
            acc = 2.0 * _moments(x[::2], f[::2], kmax)
            odd = _moments(x[1::2], f[1::2], kmax)
        elif level == MIN_LEVEL + 1:
            acc = 0.5 * acc + odd
        else:
            u, one_minus, one_plus, w = tanh_sinh_nodes(level)
            x, root = sample(u[1::2], one_minus[1::2], one_plus[1::2])
            acc = 0.5 * acc + _moments(x, w[1::2] / root, kmax)
        return scale * acc

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
    """Assemble A and B from the plan's integer combinations of arc integrals.

    On a curve closed under x -> -x an arc whose negated reverse is
    already integrated is derived from it (see the module docstring).
    """
    g = plan.genus
    if curve.genus != g:
        raise LayoutError(f"curve genus {curve.genus} != plan genus {g}")
    pts = curve.branch_points
    mirror = curve.closed_under_negation
    integrals = np.zeros((len(plan.arcs), g), dtype=complex)
    integrated = {}  # (start, end) of each integrated arc -> its row
    for j in plan.used_arcs():
        arc = plan.arcs[j]
        i = integrated.get((-arc.end, -arc.start)) if mirror else None
        if i is None:
            integrals[j] = arc_integrals(curve, arc, quad)
            integrated[arc.start, arc.end] = j
            continue
        # I_j,k = (-1)^(k+1) I_i,k / eps, eps = A_j / A_i rounded to its unit;
        # A_i from arc i as stored, as arc_integrals anchored it (the
        # principal root of a negative real depends on the sign of its zero)
        twin = plan.arcs[i]
        ratio = (_principal_anchor(pts, 0.5 * (arc.start + arc.end))
                 / _principal_anchor(pts, 0.5 * (twin.start + twin.end)))
        integrals[j] = integrals[i] / complex(round(ratio.real), round(ratio.imag))
        integrals[j, 1::2] *= -1.0
    return PeriodPair(np.array(plan.alpha_rows) @ integrals,
                      np.array(plan.beta_rows) @ integrals)


def period_matrix(curve: HyperellipticCurve, plan: CyclePlan,
                  quad: QuadConfig = DEFAULT_QUAD) -> np.ndarray:
    """Z = A B^-1, validated as a Riemann matrix at quadrature tolerance."""
    pair = period_matrices(curve, plan, quad)
    # an owned C-contiguous copy, not a view pinning LAPACK's output
    Z = np.ascontiguousarray(lu_solve(pair.B.T, pair.A.T).T)
    tol = max(1e-10, 100 * quad.tol)
    if not is_riemann_matrix(Z, tol):
        raise AccuracyError("computed A B^-1 is not a Riemann matrix")
    return Z
