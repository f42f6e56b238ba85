"""Node sets of periods.arc_integrals: chebyshev_nodes, the midpoint rule
in theta for u = cos(theta), and graded_nodes, Gauss-Legendre panels in
theta graded toward an end.  Both node counts follow a priori from the
integrand's singularities (see the periods module docstring), so neither
rule has levels or a tolerance.  tanh_sinh_nodes, nested tanh-sinh
levels, has no caller in the library; the benchmark reads its cache.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Beyond this |t| the term bound h*2*pi*cosh(t)*exp(-(pi/2)*sinh(t)) is
# below 1e-20 even against an inverse-sqrt singularity; = 138/32 (nesting).
_T_MAX = 4.3125
PANEL_NODES = 12  # Gauss-Legendre nodes per graded panel
QUARTER = 0.25 * math.pi  # length of the theta interval graded_nodes covers


@lru_cache(maxsize=24)
def tanh_sinh_nodes(level: int):
    """Nodes and weights at step h = 2^-level, sorted by abscissa.

    Returns (u, one_minus_u, one_plus_u, w): u = tanh((pi/2) sinh(j*h)),
    w = h * (pi/2) cosh(j*h) / cosh((pi/2) sinh(j*h))^2, for |j*h| <= 4.3125.
    For level >= 5 these are the [::2] slices of level + 1, with
    w == 2 * w_{level+1}[::2] exactly.
    """
    h = 0.5**level
    j = np.arange(-math.ceil(_T_MAX / h), math.ceil(_T_MAX / h) + 1)
    t = j * h
    v = 0.5 * math.pi * np.sinh(t)
    u = np.tanh(v)
    one_minus = 2.0 / (np.exp(2.0 * v) + 1.0)
    one_plus = 2.0 / (np.exp(-2.0 * v) + 1.0)
    w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(v) ** 2
    return u, one_minus, one_plus, w


@lru_cache(maxsize=None)
def chebyshev_nodes(n: int):
    """The n Gauss-Chebyshev nodes u_j = cos((2j - 1) pi / (2n)), j = 1..n.

    Returns (one_minus_u, one_plus_u), stable near the end points:
    1 - u_j = 2 sin^2((2j - 1) pi / (4n)), of an argument in (0, pi / 2),
    and 1 + u_j is the same array reversed (u_{n+1-j} = -u_j), a view.
    The rule (pi / n) sum_j f(u_j) integrates f(u) / sqrt(1 - u^2) over
    [-1, 1]; its error falls like rho^(-2n) for f analytic inside the
    Bernstein ellipse with parameter rho.  Every n asked is kept: periods
    asks only for multiples of 8 up to CHEBYSHEV_MAX_NODES.
    """
    half_angles = (2 * np.arange(1, n + 1) - 1) * (0.25 * math.pi / n)
    one_minus = 2.0 * np.sin(half_angles) ** 2
    return one_minus, one_minus[::-1]


@lru_cache(maxsize=None)
def graded_nodes(depth: int):
    """PANEL_NODES-node Gauss-Legendre panels on [0, pi/4], graded by
    ratio 2 toward 0: [0, 2^-depth q], [2^-depth q, 2^(1-depth) q], ...,
    [q/2, q] with q = pi/4, depth + 1 panels in all.

    Returns (phi, w), the nodes and weights.  Each panel's rule is exact
    for polynomials of degree 2 PANEL_NODES - 1.
    """
    # imported here: numpy.polynomial is not loaded by numpy itself, and a
    # CLI process that integrates no graded arc does not pay for it
    from numpy.polynomial.legendre import leggauss

    t, w = leggauss(PANEL_NODES)
    edges = QUARTER * np.concatenate(([0.0], 0.5 ** np.arange(depth, -1, -1)))
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (1.0 + t)).ravel(), (half * w).ravel()
