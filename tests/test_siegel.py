import numpy as np
import pytest

from conftest import Z1, ZHAT1, random_riemann_matrix, random_symplectic
from w9periods.errors import (DimensionError, ParameterError,
                              SingularMatrixError)
from w9periods.siegel import (base_change, blocks, is_riemann_matrix,
                              lu_solve, min_eig_im, siegel_action,
                              standard_j, symmetry_residual, symplectic_check)

# base-change matrix relating the two exact genus-2 fixtures:
# transpose action of N adds 1 to the (1,1) entry
N = np.array([[1, 0, 0, 0],
              [0, 1, 0, 0],
              [1, 0, 1, 0],
              [0, 0, 0, 1]])


def test_lu_solve_against_numpy():
    rng = np.random.default_rng(1)
    for n in (2, 3, 6):
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        X = lu_solve(M, B)
        assert np.abs(M @ X - B).max() < 1e-11
        v = rng.normal(size=n) + 0j
        assert np.abs(M @ lu_solve(M, v) - v).max() < 1e-11


def test_lu_solve_singular():
    M = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        lu_solve(M, np.eye(2, dtype=complex))
    # condition number 1e14, above the 1e13 bound
    with pytest.raises(SingularMatrixError):
        lu_solve(np.diag([1.0, 1e-14]), np.eye(2))
    # a small pivot alone is not singular: condition number 1
    assert np.allclose(lu_solve([[1e-14, 1.0], [1.0, 0.0]], [1.0, 2.0]),
                       [2.0, 1.0])
    # inf or NaN input is a parameter error, not a NaN result
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError):
            lu_solve([[1.0, 0.0], [0.0, bad]], np.eye(2))
        with pytest.raises(ParameterError):
            lu_solve(np.eye(2), [1.0, bad])
    # mismatched shapes are a dimension error, not numpy's ValueError
    for B in (np.ones(3), np.ones((3, 2)), 1.0):
        with pytest.raises(DimensionError):
            lu_solve(np.eye(2), B)
    with pytest.raises(DimensionError):
        siegel_action(np.eye(4), 1j * np.eye(3))
    with pytest.raises(DimensionError):
        base_change(1j * np.eye(3), np.eye(4))


def test_inv_roundtrip():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.abs(M @ lu_solve(M, np.eye(3)) - np.eye(3)).max() < 1e-12


def test_riemann_matrix_checks():
    assert is_riemann_matrix(Z1)
    assert is_riemann_matrix(ZHAT1)
    assert min_eig_im(Z1) > 0
    assert symmetry_residual(ZHAT1) == 0
    # not symmetric
    assert not is_riemann_matrix(np.array([[1j, 1.0], [0.0, 1j]]))
    # indefinite imaginary part
    assert not is_riemann_matrix(np.array([[1j, 0], [0, -1j]]))
    with pytest.raises(DimensionError):
        is_riemann_matrix(np.ones((2, 3)))


def test_standard_j_and_symplectic_check():
    J = standard_j(2)
    assert symplectic_check(J)
    assert symplectic_check(N)
    assert not symplectic_check(np.eye(4, dtype=int) * 2)
    with pytest.raises(DimensionError):
        symplectic_check(np.eye(3, dtype=int))


def test_random_symplectic_pass_check():
    rng = np.random.default_rng(3)
    for g in (1, 2, 3):
        for _ in range(5):
            assert symplectic_check(random_symplectic(rng, g))


def test_blocks_reassemble():
    M = np.arange(36).reshape(6, 6)
    a, b, c, d = blocks(M)
    assert np.array_equal(np.block([[a, b], [c, d]]), M)


def test_siegel_action_identity_and_group_law():
    rng = np.random.default_rng(4)
    g = 2
    Z = random_riemann_matrix(rng, g)
    assert np.abs(siegel_action(np.eye(2 * g), Z) - Z).max() < 1e-14
    M1 = random_symplectic(rng, g)
    M2 = random_symplectic(rng, g)
    lhs = siegel_action(M1 @ M2, Z)
    rhs = siegel_action(M1, siegel_action(M2, Z))
    assert np.abs(lhs - rhs).max() < 1e-9


def test_siegel_action_preserves_riemann():
    rng = np.random.default_rng(5)
    for g in (1, 2, 3):
        Z = random_riemann_matrix(rng, g)
        M = random_symplectic(rng, g)
        assert is_riemann_matrix(siegel_action(M, Z), 1e-9)


def test_base_change_fixture():
    # starting matrix: the fixture with its (1,1) entry reduced by 1
    Z0 = Z1.copy()
    Z0[0, 0] -= 1.0
    assert np.abs(base_change(Z0, N) - Z1).max() < 1e-14
