import math

import numpy as np
import pytest

from conftest import (ZHAT1, random_riemann_matrix, random_symplectic,
                      theta_brute)
from w9periods import w9
from w9periods.errors import DimensionError, ParameterError, TruncationError
from w9periods.periods import LAYOUT_COVER, build_cycles, period_matrix
from w9periods.quadrature import QuadConfig
from w9periods.siegel import symmetry_residual
from w9periods.theta import (DEFAULT_POLICY, ThetaCharacteristic,
                             TruncationPolicy, all_characteristics,
                             char_transform, modular_magnitude_check,
                             modular_transform_point, parity,
                             theta_char, theta_null, truncation_radius)

CH_VANISHING = ThetaCharacteristic((1, 1, 1), (1, 0, 1))
CH_ZERO3 = ThetaCharacteristic((0, 0, 0), (0, 0, 0))

M2 = np.array([
    [0, 0, -1, 0, 0, 0],
    [0, -1, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, -1, 0],
    [0, 0, 0, -1, 0, 0],
])
M3 = np.array([
    [1, -2, 1, 0, 1, 0],
    [1, -1, 0, 0, 0, -1],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, -1, -2],
    [0, 0, 0, 1, 1, 1],
])
M4 = np.array([
    [0, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, 1],
    [-1, 0, 0, 0, 0, 0],
    [0, 2, 0, 0, -1, 0],
    [0, 0, -1, 0, 0, 0],
])


def test_characteristic_validation():
    with pytest.raises(ParameterError):
        ThetaCharacteristic((0, 2), (0, 0))
    ch = ThetaCharacteristic((1, 0), (0, 1))
    assert ch.g == 2


def test_parity_census():
    chars = all_characteristics(3)
    assert len(chars) == 64
    evens = [ch for ch in chars if parity(ch) == "even"]
    odds = [ch for ch in chars if parity(ch) == "odd"]
    assert len(evens) == 36 and len(odds) == 28


def test_truncation_radius_grows_with_precision():
    r1 = truncation_radius(1.0, 3, TruncationPolicy(tail_tol=1e-8))
    r2 = truncation_radius(1.0, 3, TruncationPolicy(tail_tol=1e-14))
    assert r1 < r2
    with pytest.raises(TruncationError):
        truncation_radius(1e-6, 3, DEFAULT_POLICY)
    with pytest.raises(TruncationError):
        truncation_radius(-1.0, 2, DEFAULT_POLICY)


def test_policy_rejects_non_finite_tail_tol():
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            TruncationPolicy(tail_tol=bad)


def test_theta_rejects_non_finite_input():
    z = np.zeros(3)
    for bad in (complex(0, math.nan), complex(math.nan, 0), complex(0, math.inf)):
        Z = ZHAT1.copy()
        Z[1, 1] += bad
        with pytest.raises(ParameterError, match="finite"):
            theta_char(CH_VANISHING, z, Z)
    with pytest.raises(ParameterError, match="finite"):
        theta_char(CH_VANISHING, [0.0, math.nan, 0.0], ZHAT1)


def test_theta_rejects_non_symmetric_matrix():
    # the quadratic form reads only (Z + Z^T)/2; an asymmetric Z is an error
    ch = ThetaCharacteristic((0, 0), (0, 0))
    with pytest.raises(ParameterError, match="not symmetric"):
        theta_char(ch, np.zeros(2), np.array([[1j, 0.5], [-0.5, 1j]]))
    Z = ZHAT1.copy()
    Z[0, 2] += 1e-5
    with pytest.raises(ParameterError, match="not symmetric"):
        theta_char(CH_VANISHING, np.zeros(3), Z)
    # the bound is relative to max(1, max |Z_ij|): 1e-5 passes at scale 100
    Z = 100.0 * ZHAT1
    Z[0, 2] += 1e-5
    assert abs(theta_char(CH_ZERO3, np.zeros(3), Z) - 1.0) < 1e-12
    # quadrature noise passes: a cover matrix at a loose quad tol, made
    # 1e-9 (relative) off symmetric, above siegel's 1e-10
    cover = w9.double_cover(w9.curve_Qs(0.07))
    Zq = period_matrix(cover, build_cycles(cover, LAYOUT_COVER), QuadConfig(tol=1e-4))
    Zq[0, 2] += 1e-9 * np.abs(Zq).max()
    assert symmetry_residual(Zq) > 1e-10 * np.abs(Zq).max()
    assert w9.theta_membership_check(Zq, shape_tol=1e-6) < 1e-6


def test_theta_against_brute_force_sum():
    rng = np.random.default_rng(10)
    for g in (1, 2, 3):
        Z = random_riemann_matrix(rng, g)
        z = rng.normal(size=g) + 0.2j * rng.normal(size=g)
        m = tuple(int(x) for x in rng.integers(0, 2, g))
        n = tuple(int(x) for x in rng.integers(0, 2, g))
        lib = theta_char(ThetaCharacteristic(m, n), z, Z)
        ref = theta_brute(m, n, z, Z, radius=8)
        assert abs(lib - ref) < 1e-12


def test_plain_theta_large_imaginary_part():
    # dominant correction to 1 comes from the six |k| = 1 lattice points
    val = theta_char(CH_ZERO3, np.zeros(3), 10j * np.eye(3))
    expected = 1.0 + 6.0 * math.exp(-10 * math.pi)
    assert abs(val - expected) < 1e-14


def test_vanishing_theta_null_fixture():
    assert abs(theta_null(CH_VANISHING, ZHAT1)) < 1e-10
    assert abs(theta_null(CH_ZERO3, ZHAT1)) > 0.5


def test_odd_theta_nulls_vanish():
    rng = np.random.default_rng(11)
    Z = random_riemann_matrix(rng, 3)
    for ch in all_characteristics(3):
        if parity(ch) == "odd":
            assert abs(theta_null(ch, Z)) < 1e-11
            assert abs(theta_null(ch, ZHAT1)) < 1e-11


def test_quasi_periodicity():
    rng = np.random.default_rng(12)
    for _ in range(25):
        g = int(rng.integers(1, 4))
        Z = random_riemann_matrix(rng, g)
        z = rng.normal(size=g) + 0.3j * rng.normal(size=g)
        m = tuple(int(x) for x in rng.integers(0, 2, g))
        n = tuple(int(x) for x in rng.integers(0, 2, g))
        ch = ThetaCharacteristic(m, n)
        p = rng.integers(-2, 3, g)
        q = rng.integers(-2, 3, g)
        lhs = theta_char(ch, z + Z @ p + q, Z)
        factor = np.exp(-1j * math.pi * (p @ Z @ p) - 2j * math.pi * (p @ z)
                        + 1j * math.pi * (np.dot(m, q) - np.dot(n, p)))
        rhs = factor * theta_char(ch, z, Z)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_mod2_reduction():
    # shifting a characteristic by even integers only changes the value
    # by the eighth-root-free sign exp(pi*i*m.s)
    rng = np.random.default_rng(13)
    for _ in range(25):
        g = int(rng.integers(1, 4))
        Z = random_riemann_matrix(rng, g)
        z = rng.normal(size=g) + 0.2j * rng.normal(size=g)
        m = rng.integers(0, 2, g)
        n = rng.integers(0, 2, g)
        r = rng.integers(-1, 2, g)
        s = rng.integers(-1, 2, g)
        lhs = theta_brute(m + 2 * r, n + 2 * s, z, Z, radius=8)
        rhs = np.exp(1j * math.pi * np.dot(m, s)) \
            * theta_char(ThetaCharacteristic(tuple(m), tuple(n)), z, Z)
        assert abs(lhs - rhs) < 1e-9


def test_even_odd_symmetry():
    rng = np.random.default_rng(14)
    for _ in range(25):
        g = int(rng.integers(1, 4))
        Z = random_riemann_matrix(rng, g)
        z = rng.normal(size=g) + 0.2j * rng.normal(size=g)
        m = tuple(int(x) for x in rng.integers(0, 2, g))
        n = tuple(int(x) for x in rng.integers(0, 2, g))
        ch = ThetaCharacteristic(m, n)
        sign = -1.0 if parity(ch) == "odd" else 1.0
        assert abs(theta_char(ch, -z, Z) - sign * theta_char(ch, z, Z)) < 1e-9


def test_paper_matrices_are_symplectic():
    from test_siegel import N
    from w9periods.siegel import symplectic_check

    for M in (N, M2, M3, M4):
        assert symplectic_check(M)


def test_char_transform_action_law():
    rng = np.random.default_rng(15)
    for g in (1, 2, 3):
        for _ in range(10):
            A = random_symplectic(rng, g)
            B = random_symplectic(rng, g)
            m = tuple(int(x) for x in rng.integers(0, 2, g))
            n = tuple(int(x) for x in rng.integers(0, 2, g))
            ch = ThetaCharacteristic(m, n)
            assert char_transform(A @ B, ch) == char_transform(A, char_transform(B, ch))


def test_char_transform_fixed_points():
    fixed_by_23 = []
    for ch in all_characteristics(3):
        if parity(ch) != "even":
            continue
        if char_transform(M2, ch) == ch and char_transform(M3, ch) == ch:
            fixed_by_23.append(ch)
    expected = {
        (tuple([0, 0, 0]), tuple([0, 0, 0])),
        (tuple([0, 0, 0]), tuple([0, 1, 0])),
        (tuple([1, 1, 1]), tuple([1, 0, 1])),
    }
    assert {(ch.m, ch.n) for ch in fixed_by_23} == expected
    survivors = [ch for ch in fixed_by_23 if char_transform(M4, ch) == ch]
    assert [(ch.m, ch.n) for ch in survivors] == [((1, 1, 1), (1, 0, 1))]


def _well_conditioned_samples(rng, count):
    from w9periods.siegel import min_eig_im, siegel_action

    samples = []
    while len(samples) < count:
        g = int(rng.integers(1, 4))
        Z = random_riemann_matrix(rng, g)
        M = random_symplectic(rng, g)
        if min_eig_im(siegel_action(M, Z)) < 0.1:
            continue
        z = 0.3 * (rng.normal(size=g) + 1j * rng.normal(size=g))
        samples.append((M, z, Z, g))
    return samples


def test_modular_magnitude_check():
    rng = np.random.default_rng(16)
    for M, z, Z, g in _well_conditioned_samples(rng, 20):
        m = tuple(int(x) for x in rng.integers(0, 2, g))
        n = tuple(int(x) for x in rng.integers(0, 2, g))
        ch = ThetaCharacteristic(m, n)
        assert modular_magnitude_check(M, ch, z, Z) < 1e-8


def test_modular_transform_point_matches_action():
    from w9periods.siegel import siegel_action

    rng = np.random.default_rng(17)
    Z = random_riemann_matrix(rng, 2)
    M = random_symplectic(rng, 2)
    z = rng.normal(size=2) + 0j
    z2, Z2 = modular_transform_point(M, z, Z)
    assert np.abs(Z2 - siegel_action(M, Z)).max() < 1e-12
    # mismatched shapes are a dimension error, not numpy's ValueError
    for bad_M, bad_z, bad_Z in ((np.eye(4), np.zeros(3), 1j * np.eye(3)),
                                (M, np.zeros(3), Z)):
        with pytest.raises(DimensionError):
            modular_transform_point(bad_M, bad_z, bad_Z)
        with pytest.raises(DimensionError):
            modular_magnitude_check(bad_M, ThetaCharacteristic((0, 0), (0, 0)),
                                    bad_z, bad_Z)
