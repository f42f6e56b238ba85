"""Siegel upper half-space membership and the symplectic action on period matrices.

All matrices are plain numpy arrays: period matrices are complex g x g
(g <= 3), symplectic matrices are integer 2g x 2g.  Values are never
mutated in place, so everything here is safe to share across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError, SingularMatrixError

SYM_TOL = 1e-10

# Condition number (2-norm) at or above which a matrix is declared singular.
_MAX_COND = 1e13


def _as_square(Z) -> np.ndarray:
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {Z.shape}")
    return Z


def lu_solve(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve M X = B by LAPACK's LU with partial pivoting; a 1-D B gives a vector.

    Raises ParameterError when M or B holds inf or NaN, and SingularMatrixError
    when the 2-norm condition number of M is not below 1e13.
    """
    M = _as_square(M)
    B = np.asarray(B, dtype=complex)
    if not (np.isfinite(M).all() and np.isfinite(B).all()):
        raise ParameterError("lu_solve needs finite M and B")
    if not (cond := np.linalg.cond(M)) < _MAX_COND:
        raise SingularMatrixError(f"condition number {cond:.3e} not below 1e13")
    return np.linalg.solve(M, B)


def min_eig_im(Z) -> float:
    """Smallest eigenvalue of Im(Z) for a (nearly) symmetric complex matrix."""
    Z = _as_square(Z)
    Y = Z.imag
    Y = 0.5 * (Y + Y.T)
    return float(np.linalg.eigvalsh(Y)[0])


def symmetry_residual(Z) -> float:
    Z = _as_square(Z)
    return float(np.abs(Z - Z.T).max())


def is_riemann_matrix(Z, tol: float = SYM_TOL) -> bool:
    """True iff Z is symmetric within tol and all eigenvalues of Im(Z) exceed tol."""
    Z = _as_square(Z)
    if not np.all(np.isfinite(Z)):
        return False
    if symmetry_residual(Z) > tol:
        return False
    return min_eig_im(Z) > tol


def standard_j(g: int) -> np.ndarray:
    """The standard symplectic form J = [[0, -I], [I, 0]]."""
    J = np.zeros((2 * g, 2 * g), dtype=int)
    J[:g, g:] = -np.eye(g, dtype=int)
    J[g:, :g] = np.eye(g, dtype=int)
    return J


def symplectic_check(M) -> bool:
    """Exact integer check of t(M) J M = J.

    Raises DimensionError for odd-dimensional input.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] % 2 != 0:
        raise DimensionError(f"odd dimension {M.shape[0]} cannot be symplectic")
    M = np.rint(M).astype(np.int64)
    g = M.shape[0] // 2
    J = standard_j(g)
    return bool(np.array_equal(M.T @ J @ M, J))


def blocks(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split a 2g x 2g matrix into its g x g blocks (alpha, beta, gamma, delta)."""
    M = np.asarray(M)
    g = M.shape[0] // 2
    return M[:g, :g], M[:g, g:], M[g:, :g], M[g:, g:]


def siegel_action(M, Z) -> np.ndarray:
    """Apply M = [[a, b], [c, d]] to Z: M(Z) = (aZ + b)(cZ + d)^-1.

    Raises SingularMatrixError when cZ + d is numerically singular, that is
    when its condition number is not below 1e13 (see lu_solve).
    """
    Z = _as_square(Z)
    a, b, c, d = blocks(np.asarray(M, dtype=complex))
    num = a @ Z + b
    den = c @ Z + d
    return lu_solve(den.T, num.T).T


def base_change(Z, M) -> np.ndarray:
    """Period matrix after the change of homology basis given by M: t(M)(Z)."""
    return siegel_action(np.asarray(M).T, Z)
