"""Tanh-sinh and Gauss-Chebyshev quadrature on straight complex segments.

The substitution u = tanh((pi/2) sinh(t)) absorbs inverse-square-root
endpoint singularities, which is exactly what the abelian arc integrals
x^(k-1) dx / sqrt(P(x)) need: every arc joins two branch points of P.

Node positions near the endpoints are represented through the stable
quantities 1 -+ u = 2 / (exp(+-2v) + 1) with v = (pi/2) sinh(t), so that
x - endpoint keeps full relative accuracy however close the node gets.

The levels nest: |j*h| <= 4.3125 = 138/32 is a whole number of steps at
every level from 5 on, so the nodes of level L are exactly the even nodes
of level L+1 and w_L == 2 * w_{L+1}[::2] bit for bit.  A caller can then
evaluate each new level at its odd nodes only and halve the previous sum.

chebyshev_nodes gives the Gauss-Chebyshev rule for the weight
1 / sqrt(1 - u^2), with the same stable 1 -+ u.  Its node count follows
a priori from the integrand's nearest singularity, so it has no levels
and no tolerance; periods.arc_integrals takes it where that count is at
most the 553 nodes of level MIN_LEVEL + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, ParameterError

# Beyond this |t| the term bound h*2*pi*cosh(t)*exp(-(pi/2)*sinh(t)) is
# below 1e-20 even against an inverse-sqrt singularity; = 138/32 (nesting).
_T_MAX = 4.3125
MIN_LEVEL = 5  # first level estimated: step 2^-5
MAX_LEVEL = 12  # AccuracyError if levels still disagree here


@dataclass(frozen=True)
class QuadConfig:
    """Tolerance of the adaptive tanh-sinh rule."""

    tol: float = 1e-11

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ParameterError("quadrature tolerance must be positive and finite")


DEFAULT_QUAD = QuadConfig()


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
    asks only for multiples of 8 up to 552, at most 155 KB in all.
    """
    half_angles = (2 * np.arange(1, n + 1) - 1) * (0.25 * math.pi / n)
    one_minus = 2.0 * np.sin(half_angles) ** 2
    return one_minus, one_minus[::-1]


def integrate_levels(eval_terms, cfg: QuadConfig = DEFAULT_QUAD):
    """Drive eval_terms(level) -> vector of integral values to convergence.

    eval_terms must return the full tanh-sinh estimate at the given level
    (an ndarray, one entry per simultaneous integrand).  Refinement stops
    when two successive levels agree within cfg.tol in every component.
    """
    prev = eval_terms(MIN_LEVEL)
    for lev in range(MIN_LEVEL + 1, MAX_LEVEL + 1):
        cur = eval_terms(lev)
        if np.abs(cur - prev).max() <= cfg.tol:
            return cur
        prev = cur
    raise AccuracyError(
        f"tanh-sinh did not reach tol={cfg.tol:g} by level {MAX_LEVEL}"
    )
