"""Shared fixtures and independent oracles for the test suite."""

import cmath
import itertools
import math

import numpy as np

# The 3-square-tiled surface: exact period matrices of the genus-2 curve
# at s = 2 - sqrt(3) and of its genus-3 double cover.
Z1 = np.array([[1 + 5j / 3, 4j / 3], [4j / 3, 5j / 3]])
ZHAT1 = np.array([[4j / 3, 2j / 3, 1j / 3],
                  [2j / 3, 0.5 + 5j / 6, 2j / 3],
                  [1j / 3, 2j / 3, 4j / 3]])

S_SQUARE = 2 - math.sqrt(3)


def theta_brute(m, n, z, Z, radius):
    """Direct triple-loop theta sum, independent of the library's
    vectorized evaluation (plain cmath on scalar terms)."""
    Z = np.asarray(Z, dtype=complex)
    z = np.asarray(z, dtype=complex).reshape(-1)
    g = len(m)
    total = 0j
    for k in itertools.product(range(-radius, radius + 1), repeat=g):
        v = np.array(k, dtype=float) + np.array(m, dtype=float) / 2.0
        w = z + np.array(n, dtype=float) / 2.0
        total += cmath.exp(1j * math.pi * (v @ Z @ v) + 2j * math.pi * (v @ w))
    return total


def agm(x, y):
    """Arithmetic-geometric mean, quadratically convergent."""
    for _ in range(60):
        x, y = 0.5 * (x + y), math.sqrt(x * y)
        if abs(x - y) < 1e-16 * x:
            break
    return 0.5 * (x + y)


def random_riemann_matrix(rng, g, min_im=1.0):
    """Random symmetric matrix with safely positive definite imaginary part."""
    A = rng.normal(size=(g, g))
    S = rng.normal(size=(g, g))
    return 0.5 * (A + A.T) + 1j * (S @ S.T + min_im * g * np.eye(g))


def random_symplectic(rng, g, steps=6):
    """Random integer symplectic matrix built from elementary generators."""
    J = np.zeros((2 * g, 2 * g), dtype=int)
    J[:g, g:] = -np.eye(g, dtype=int)
    J[g:, :g] = np.eye(g, dtype=int)
    M = np.eye(2 * g, dtype=int)
    for _ in range(steps):
        B = rng.integers(-1, 2, size=(g, g))
        B = B + B.T
        G = np.eye(2 * g, dtype=int)
        if rng.integers(0, 2):
            G[:g, g:] = B
        else:
            G[g:, :g] = B
        M = M @ G
        if rng.integers(0, 2):
            M = M @ J
    return M


def series_brute(t, y, radius):
    """The geodesic series as the direct sum over the cube |k|_inf <= radius
    of exp pi[(t/2 - y + i/2) s1 + (y - t + i) s2 + (3i/2 - t/2) s0], with
    s0 = sum k, s1 = sum k^2 and s2 = sum_{l<m} k_l k_m; no library code."""
    axis = np.arange(-radius, radius + 1)
    k = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    s0 = k.sum(axis=1)
    s1 = (k * k).sum(axis=1)
    s2 = (s0 * s0 - s1) // 2
    terms = np.exp(math.pi * ((0.5 * t - y + 0.5j) * s1 + (y - t + 1j) * s2
                              + (1.5j - 0.5 * t) * s0))
    return complex(math.fsum(terms.real), math.fsum(terms.imag))
