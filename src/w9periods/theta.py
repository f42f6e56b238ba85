"""Riemann theta function and order-2 theta characteristics.

Characteristics are stored in the integer convention: a characteristic is a
pair of vectors m, n in {0,1}^g and the series is

    theta[m;n](z, Z) = sum_k exp(pi*i*t(k+m/2) Z (k+m/2) + 2*pi*i*t(k+m/2)(z+n/2))

summed over the cube |k|_inf <= R.  The truncation radius R is the fixed
point of

    R -> ceil( sqrt(g)*b/lam + sqrt((log((2R+1)^g / tail_tol) + pi*g*b^2/lam)
                                    / (pi*lam)) ) + 2

with lam the smallest eigenvalue of Im(Z) and b = |Im z|_inf.  For |k|_inf = r
the summand is bounded by exp(-pi*lam*(r-1/2)^2 + 2*pi*sqrt(g)*b*(r+1/2)), so
with the +2 safety margin the absolute truncation error is below tail_tol.
The terms are summed in the fixed order of the cube, so results are
reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ParameterError, TruncationError
from .siegel import (blocks, lu_solve, min_eig_im, siegel_action,
                     symmetry_residual, symplectic_check)


@dataclass(frozen=True)
class ThetaCharacteristic:
    """An order-2 characteristic: vectors m, n in {0,1}^g."""

    m: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        if len(self.m) != len(self.n):
            raise DimensionError("m and n must have the same length")
        if not all(v in (0, 1) for v in self.m + self.n):
            raise ParameterError("characteristic entries must be 0 or 1")

    @property
    def g(self) -> int:
        return len(self.m)


def parity(ch: ThetaCharacteristic) -> str:
    """'even' iff t(m).n is even."""
    dot = sum(a * b for a, b in zip(ch.m, ch.n))
    return "even" if dot % 2 == 0 else "odd"


def all_characteristics(g: int):
    """All 2^(2g) order-2 characteristics, lexicographic in (m, n)."""
    vecs = [tuple((i >> j) & 1 for j in reversed(range(g))) for i in range(2**g)]
    return [ThetaCharacteristic(m, n) for m in vecs for n in vecs]


MAX_RADIUS = 60  # truncation_radius refuses larger radii with TruncationError


@dataclass(frozen=True)
class TruncationPolicy:
    tail_tol: float = 1e-14

    def __post_init__(self):
        if not 0 < self.tail_tol < math.inf:
            raise ParameterError("tail_tol must be positive and finite")


DEFAULT_POLICY = TruncationPolicy()


def truncation_radius(lam: float, g: int, policy: TruncationPolicy,
                      im_z_norm: float = 0.0) -> int:
    """Fixed point of the documented radius recursion."""
    if lam <= 0:
        raise TruncationError("Im(Z) is not positive definite")
    b = float(im_z_norm)
    R = 2
    while True:
        count = g * math.log(2 * R + 1)
        arg = (count - math.log(policy.tail_tol) + math.pi * g * b * b / lam)
        R_new = math.ceil(math.sqrt(g) * b / lam + math.sqrt(arg / (math.pi * lam))) + 2
        if R_new <= R:
            return R
        R = R_new
        if R > MAX_RADIUS:
            raise TruncationError(
                f"required radius {R} exceeds MAX_RADIUS = {MAX_RADIUS} "
                f"(Im(Z) too small: lambda_min = {lam:.3e})"
            )


@lru_cache(maxsize=32)
def _cube(g: int, R: int) -> np.ndarray:
    """Integer cube |k|_inf <= R, one row per lattice point."""
    axes = np.arange(-R, R + 1)
    return np.stack(np.meshgrid(*([axes] * g), indexing="ij"), axis=-1).reshape(-1, g)


def theta_char(ch: ThetaCharacteristic, z, Z,
               policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Theta with characteristic ch at argument z and period matrix Z.

    The sum reads only (Z + Z^T)/2, so Z must be symmetric: ParameterError
    if max |Z - Z^T| > 1e-6 * max(1, max |Z_ij|), a bound that admits a
    typed `--matrix` whose mirrored entries were rounded apart.
    """
    Z = np.asarray(Z, dtype=complex)
    g = ch.g
    if Z.shape != (g, g):
        raise DimensionError(f"Z has shape {Z.shape}, expected ({g}, {g})")
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape != (g,):
        raise DimensionError(f"z has length {z.shape[0]}, expected {g}")
    if not (np.isfinite(Z).all() and np.isfinite(z).all()):
        raise ParameterError("Z and z must be finite")
    if (asym := symmetry_residual(Z)) > 1e-6 * max(1.0, np.abs(Z).max()):
        raise ParameterError(f"Z is not symmetric: max |Z - Z^T| = {asym:.3e}")
    lam = min_eig_im(Z)
    radius = truncation_radius(lam, g, policy, float(np.abs(z.imag).max()))
    v = _cube(g, radius) + np.asarray(ch.m, dtype=float) / 2.0
    w = z + np.asarray(ch.n, dtype=float) / 2.0
    expo = 1j * math.pi * ((v @ Z + 2.0 * w) * v).sum(axis=1)
    return complex(np.exp(expo).sum())


def theta_null(ch: ThetaCharacteristic, Z,
               policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Theta constant: theta[ch](0, Z)."""
    return theta_char(ch, np.zeros(ch.g), Z, policy)


def char_transform(M, ch: ThetaCharacteristic) -> ThetaCharacteristic:
    """Characteristic ch' such that theta[ch'](M(z, Z)) is proportional to
    theta[ch](z, Z), reduced mod 2.

    With M = [[a, b], [c, d]] and the shift vectors p = diag(c t(d)),
    q = diag(a t(b)):

        m' = d m - c n + p,   n' = -b m + a n + q   (mod 2).

    Raises ParameterError if M is not symplectic.
    """
    M = np.asarray(M)
    if not symplectic_check(M):
        raise ParameterError("char_transform requires a symplectic matrix")
    g = M.shape[0] // 2
    if g != ch.g:
        raise DimensionError(f"matrix genus {g} != characteristic genus {ch.g}")
    a, b, c, d = blocks(np.rint(M).astype(np.int64))
    p = np.diag(c @ d.T)
    q = np.diag(a @ b.T)
    m = np.asarray(ch.m)
    n = np.asarray(ch.n)
    m2 = (d @ m - c @ n + p) % 2
    n2 = (-b @ m + a @ n + q) % 2
    return ThetaCharacteristic(tuple(int(x) for x in m2), tuple(int(x) for x in n2))


def modular_transform_point(M, z, Z):
    """The symplectic action on (z, Z): (t(cZ+d)^-1 z, (aZ+b)(cZ+d)^-1)."""
    Z = np.asarray(Z, dtype=complex)
    z = np.asarray(z, dtype=complex).reshape(-1)
    Z2 = siegel_action(M, Z)  # checks the shapes of M and Z
    a, b, c, d = blocks(np.asarray(M, dtype=complex))
    den = c @ Z + d
    return lu_solve(den.T, z), Z2


def modular_magnitude_check(M, ch: ThetaCharacteristic, z, Z) -> float:
    """Magnitude-level residual of the modular transformation formula.

    Returns | |theta[ch'](M(z,Z))| - |det(cZ+d)|^(1/2) * |exp(pi*i*t(z)(cZ+d)^-1 c z)|
    * |theta[ch](z,Z)| | with ch' = char_transform(M, ch).  The eighth root of
    unity in the exact formula has magnitude one and drops out.
    """
    Z = np.asarray(Z, dtype=complex)
    z = np.asarray(z, dtype=complex).reshape(-1)
    ch2 = char_transform(M, ch)
    z2, Z2 = modular_transform_point(M, z, Z)  # checks the shapes first
    a, b, c, d = blocks(np.asarray(M, dtype=complex))
    den = c @ Z + d
    lhs = abs(theta_char(ch2, z2, Z2))
    factor = math.sqrt(abs(np.linalg.det(den)))
    phase = abs(np.exp(1j * math.pi * (z @ lu_solve(den, c @ z))))
    rhs = factor * phase * abs(theta_char(ch, z, Z))
    return abs(lhs - rhs)
