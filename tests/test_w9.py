import math

import numpy as np
import pytest

from conftest import S_SQUARE, Z1, ZHAT1
from w9periods import w9
from w9periods.errors import (DegeneracyError, LayoutError, ParameterError,
                              ShapeMismatchError)
from w9periods.periods import (LAYOUT_COVER, LAYOUT_GENUS2, HyperellipticCurve,
                               build_cycles, period_matrix)

SQRT3 = math.sqrt(3.0)


def test_f3_order_three_and_fixed_points():
    rng = np.random.default_rng(20)
    for x in rng.normal(size=5) + 1j * rng.normal(size=5):
        assert abs(w9.f3(w9.f3(w9.f3(x))) - x) < 1e-12
    assert abs(w9.f3(1j) - 1j) < 1e-14
    assert abs(w9.f3(-1j) + 1j) < 1e-14


def test_f3_orbit_of_zero():
    orbit = [w9.f3(0), w9.f3(w9.f3(0)), w9.f3(w9.f3(w9.f3(0)))]
    assert abs(orbit[0] - SQRT3) < 1e-14
    assert abs(orbit[1] + SQRT3) < 1e-14
    assert abs(orbit[2]) < 1e-14


def test_f3_pole_maps_to_infinity():
    assert math.isinf(w9.f3(1.0 / SQRT3).real)


def test_f3_square_fixture():
    assert abs(w9.f3(S_SQUARE) ** 2 - (7 + 4 * SQRT3)) < 1e-12


def test_g_of_s():
    assert abs(w9.g_of_s(S_SQUARE) + 18.0) < 1e-12
    rng = np.random.default_rng(21)
    for s in rng.uniform(-2, 2, 8):
        if abs(3 * abs(s) - SQRT3) < 0.05:
            continue
        assert abs(w9.g_of_s(-s) - w9.g_of_s(s)) < 1e-9
        assert abs(w9.g_of_s(w9.f3(s).real) - w9.g_of_s(s)) < 1e-7 * abs(w9.g_of_s(s))
    for s in (0.1, 0.2, 0.3, 0.5):
        assert w9.g_of_s(s) < -9
    with pytest.raises(ParameterError):
        w9.g_of_s(SQRT3 / 3.0)


def test_u_dual():
    assert w9.u_dual(-18.0) == -18.0
    assert w9.u_dual(-27.0) == -13.5
    for u in (-10.0, -18.0, -40.0, -100.0):
        assert abs(w9.u_dual(w9.u_dual(u)) - u) < 1e-10
    # the involution swaps the two sides of the fixed point -18
    for u in (-20.0, -50.0, -400.0):
        assert -18.0 < w9.u_dual(u) < -9.0
    with pytest.raises(ParameterError):
        w9.u_dual(-9.0)


def test_w9param_invariants():
    for s in np.linspace(0.02, SQRT3 / 3 - 0.02, 50):
        _, _, a, b, c = (p.real for p in w9.curve_Qs(float(s)).branch_points)
        assert 0 < a < b < c
        assert w9.g_of_s(float(s)) < -9
    with pytest.raises(ParameterError, match=r"outside \(0, sqrt\(3\)/3\)"):
        w9.curve_Qs(0.9)
    with pytest.raises(ParameterError):
        w9.curve_Qs(-0.1)


def test_curve_Qs_degenerate_edge():
    # a = s^2 falls within MIN_ROOT_SEPARATION = 1e-12 of the branch point 0
    with pytest.raises(DegeneracyError, match="coincide"):
        w9.curve_Qs(1e-7)
    assert w9.curve_Qs(1e-5).branch_points[2] == 1e-5 * 1e-5


def test_curve_pu_fixture():
    roots = sorted(p.real for p in w9.curve_Pu(-18.0).branch_points)
    expected = sorted([0.0, 1.0, 2.0, 8 - 4 * SQRT3, 8 + 4 * SQRT3])
    assert max(abs(r - e) for r, e in zip(roots, expected)) < 1e-10
    with pytest.raises(ParameterError):
        w9.curve_Pu(0)
    with pytest.raises(ParameterError):
        w9.curve_Pu(-9)
    with pytest.raises(ParameterError):
        w9.curve_Pu(math.inf)
    # the cubic's terms at its root near -u would overflow
    for u in (1e300, -4e102):
        with pytest.raises(ParameterError, match=r"\|u\| <= 3\.5e102"):
            w9.curve_Pu(u)


def test_curve_pu_roots_real_iff_below_minus9():
    for u in (-9.5, -15.0, -50.0):
        pts = w9.curve_Pu(u).branch_points
        assert all(abs(p.imag) < 1e-9 for p in pts)
    for u in (-8.0, -5.0, 3.0):
        pts = w9.curve_Pu(float(u)).branch_points
        assert any(abs(p.imag) > 1e-6 for p in pts)


def test_curve_pu_residuals():
    for u in (-12.0, -18.0, -33.0):
        for r in w9.curve_Pu(u).branch_points:
            val = r**3 + u * r**2 - (8.0 / 3.0) * u * r + (16.0 / 9.0) * u
            if abs(r) > 1e-12 and abs(r - 1) > 1e-12:
                assert abs(val) < 1e-10


def test_curve_qs_fixture_and_shift_relation():
    roots = sorted(p.real for p in w9.curve_Qs(S_SQUARE).branch_points)
    expected = sorted([-1.0, 0.0, 7 - 4 * SQRT3, 1.0, 7 + 4 * SQRT3])
    assert max(abs(r - e) for r, e in zip(roots, expected)) < 1e-12
    for s in np.linspace(0.05, SQRT3 / 3 - 0.02, 12):
        shifted = sorted(p.real - 1.0
                         for p in w9.curve_Pu(w9.g_of_s(float(s))).branch_points)
        direct = sorted(p.real for p in w9.curve_Qs(float(s)).branch_points)
        assert max(abs(x - y) for x, y in zip(shifted, direct)) < 1e-9


def test_double_cover():
    cover = w9.double_cover(w9.curve_Qs(S_SQUARE))
    pts = sorted(cover.branch_points, key=lambda p: (p.imag, p.real))
    assert len(cover.branch_points) == 8
    assert cover.genus == 3
    reals = sorted(p.real for p in cover.branch_points if abs(p.imag) < 1e-12)
    expected = [-(2 + SQRT3), -1.0, -(2 - SQRT3), 2 - SQRT3, 1.0, 2 + SQRT3]
    assert max(abs(r - e) for r, e in zip(reals, expected)) < 1e-12
    assert any(abs(p - 1j) < 1e-12 for p in pts)
    assert any(abs(p + 1j) < 1e-12 for p in pts)
    with pytest.raises(LayoutError):
        w9.double_cover(w9.curve_Pu(-18.0))  # roots not in -1, 0 position


def test_covering_map_consistency():
    base = w9.curve_Qs(0.2)
    cover = w9.double_cover(base)

    def poly(curve, x):
        val = 1.0 + 0j
        for r in curve.branch_points:
            val *= x - r
        return val

    rng = np.random.default_rng(22)
    for _ in range(5):
        z = rng.normal() + 1j * rng.normal()
        wv = np.sqrt(poly(cover, z))
        x, y = z * z, z * wv
        assert abs(y * y - poly(base, x)) < 1e-9 * max(1.0, abs(poly(base, x)))


def test_cover_shape_extract():
    shape = w9.cover_shape_extract(ZHAT1)
    assert abs(shape.z1 - 4j / 3) < 1e-14
    assert abs(shape.z13 - 1j / 3) < 1e-14
    assert abs(shape.center - (0.5 + 5j / 6)) < 1e-14
    assert np.abs(shape.matrix() - ZHAT1).max() < 1e-14
    with pytest.raises(ShapeMismatchError):
        w9.cover_shape_extract(1j * np.eye(3))
    with pytest.raises(ShapeMismatchError):
        w9.cover_shape_extract(np.eye(2))


def test_base_from_cover_fixture():
    Z = w9.base_from_cover(ZHAT1)
    assert np.abs(Z - Z1).max() < 1e-14
    assert np.abs(Z - Z.T).max() == 0


def test_base_from_cover_vs_direct_quadrature():
    # two sets of arcs, agreeing to 1e-14 relative next to both cusps too
    for s in (0.005, 0.01, 0.15, 0.55, 0.565, 0.57):
        base = w9.curve_Qs(s)
        cover = w9.double_cover(base)
        Zhat = period_matrix(cover, build_cycles(cover, LAYOUT_COVER))
        Z = period_matrix(base, build_cycles(base, LAYOUT_GENUS2))
        assert np.abs(Z - w9.base_from_cover(Zhat)).max() <= 1e-14 * np.abs(Z).max(), s


@pytest.mark.parametrize("roots", [(-1, 0, 1, 2, 3 + 1e-10j),
                                   (-1, 0, 1 + 4e-10j, 2, 3),
                                   (-1, 0, 0.3, 1.7, 5 - 2e-10j)])
def test_cover_of_nearly_real_roots(roots):
    # the cover lifts the roots as given, imaginary parts included, so its
    # base matrix is the genus-2 matrix of the same curve; a cover of the
    # real parts alone is off by 1.6e-11 to 9.3e-11
    base = HyperellipticCurve(tuple(map(complex, roots)))
    cover = w9.double_cover(base)
    Zhat = period_matrix(cover, build_cycles(cover, LAYOUT_COVER))
    Z = period_matrix(base, build_cycles(base, LAYOUT_GENUS2))
    assert np.abs(Z - w9.base_from_cover(Zhat)).max() <= 1e-14


def test_cover_of_nearly_real_small_root_refused():
    # sqrt(1e-12 + 1e-10i) lies 7e-6 off the real axis, beyond what the
    # cover layout takes as real
    cover = w9.double_cover(HyperellipticCurve((-1, 0, 1e-12 + 1e-10j, 2, 3)))
    with pytest.raises(LayoutError, match="six real branch points"):
        build_cycles(cover, LAYOUT_COVER)


def test_cirre_classify_cases():
    r = w9.cirre_classify(1.0 / 3.0, 0.5, 2.0 / 3.0)
    assert (r.real_group, r.complex_group) == ("D6", "G24")
    r = w9.cirre_classify(0.35, 0.5, 0.7)
    assert (r.real_group, r.complex_group) == ("D2", "D2")
    r = w9.cirre_classify(0.2, 0.5, 0.7)
    assert (r.real_group, r.complex_group) == ("Z2", "Z2")
    # a = b(c-1)/(b-1) holds: the complex group is twice the real one
    r = w9.cirre_classify(0.2, 0.4, 0.7)
    assert (r.real_group, r.complex_group) == ("Z2", "D2")
    assert [name for name, _ in r.matched_conditions] == ["a=b(c-1)/(b-1)"]
    r = w9.cirre_classify(0.25, 0.5, 0.75)
    assert (r.real_group, r.complex_group) == ("D2", "D4")
    assert ([name for name, _ in r.matched_conditions]
            == ["a=1+c-c/b", "a=b(c-1)/(b-1)"])
    with pytest.raises(ParameterError):
        w9.cirre_classify(0.5, 0.4, 0.7)


def test_cirre_real_complex_coincidence():
    rng = np.random.default_rng(23)
    for _ in range(30):
        a, b, c = sorted(rng.uniform(0.01, 0.99, 3))
        if not a < b < c:
            continue
        r = w9.cirre_classify(float(a), float(b), float(c))
        coincide = abs(a - b * (c - 1) / (b - 1)) >= 1e-9
        assert (r.real_group == r.complex_group) == coincide


def test_involution_conditions():
    held = dict(w9.w9_involution_conditions(S_SQUARE))
    assert set(held) == {"A", "D"}
    assert all(r < 1e-10 for r in held.values())
    for s in (0.1, 0.45):
        assert w9.w9_involution_conditions(s) == []
        assert all(r > 1e-3 for r in w9.involution_residuals(s).values())


def test_order4_quartic_roots():
    def quartic(x):
        return 3 * x**4 + 8 * SQRT3 * x**3 + 18 * x**2 + 16 * SQRT3 * x - 9

    assert abs(quartic(2 - SQRT3)) < 1e-9
    assert abs(quartic(-2 - SQRT3)) < 1e-9


def test_theta_membership():
    assert w9.theta_membership_check(ZHAT1) < 1e-10
    base = w9.curve_Qs(0.2)
    cover = w9.double_cover(base)
    Zhat = period_matrix(cover, build_cycles(cover, LAYOUT_COVER))
    assert w9.theta_membership_check(Zhat, shape_tol=1e-6) < 1e-7
    # a shape-conforming matrix off the vanishing locus
    perturbed = w9.CoverShape(4j / 3, 1j / 3 + 0.05j).matrix()
    assert w9.theta_membership_check(perturbed) > 1e-3


def test_membership_grid_end_to_end():
    for s in np.linspace(0.1, 0.5, 5):
        cover = w9.double_cover(w9.curve_Qs(float(s)))
        Zhat = period_matrix(cover, build_cycles(cover, LAYOUT_COVER))
        shape = w9.cover_shape_extract(Zhat, tol=1e-6)
        assert abs(shape.z1.real) < 1e-7
        assert abs(shape.z13.real) < 1e-7
        assert w9.theta_membership_check(Zhat, shape_tol=1e-6) < 1e-6

