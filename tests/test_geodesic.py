import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import S_SQUARE, Z1, ZHAT1, series_brute
from w9periods import geodesic as geo
from w9periods import w9
from w9periods.errors import (ParameterError, ShapeMismatchError,
                              TruncationError)
from w9periods.periods import LAYOUT_COVER, build_cycles, period_matrix
from w9periods.siegel import base_change, is_riemann_matrix
from w9periods.theta import ThetaCharacteristic, theta_char

# rational representation of the basis change taking the structured cover
# matrix to the one-characteristic form with constant diagonal
M6 = np.array([
    [0, 0, 1, 0, 0, 0],
    [-1, 1, -1, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [1, 1, 1, 0, 1, 1],
    [1, 0, 1, 0, 1, 0],
    [1, 1, 1, 1, 1, 0],
])

CH_111_000 = ThetaCharacteristic((1, 1, 1), (0, 0, 0))
CH_111_101 = ThetaCharacteristic((1, 1, 1), (1, 0, 1))


def test_zhat_fixture():
    assert np.abs(geo.zhat_of_ty(1.0, 4.0 / 3.0) - ZHAT1).max() < 1e-14


def test_zhat_shape_and_domain():
    Zhat = geo.zhat_of_ty(2.0, 1.5)
    assert is_riemann_matrix(Zhat)
    shape = w9.cover_shape_extract(Zhat)
    assert abs(shape.z1 - 1.5j) < 1e-14
    with pytest.raises(ParameterError):
        geo.zhat_of_ty(2.0, 1.2)  # 1.2 < 2t/3 = 4/3
    with pytest.raises(ParameterError):
        geo.zhat_of_ty(0.0, 2.0)


def test_domain_boundary():
    for t in (1.0, 2.0, 5.0):
        Zhat = geo.zhat_of_ty(t, 2 * t / 3 + 1e-3)
        assert is_riemann_matrix(Zhat, tol=1e-12)
        with pytest.raises(ParameterError):
            geo.zhat_of_ty(t, 2 * t / 3 - 1e-3)


def test_zhat_prime_fixture_and_base_change():
    Zp = geo.zhat_prime(1.0, 4.0 / 3.0)
    assert abs(Zp[0, 0] - (0.5 + 5j / 6)) < 1e-14
    assert abs(Zp[0, 1] - (0.5 - 1j / 6)) < 1e-14
    rng = np.random.default_rng(30)
    for _ in range(5):
        t = 1.0 + 2.0 * rng.random()
        y = 2 * t / 3 + 0.2 + rng.random()
        direct = geo.zhat_prime(t, y)
        via_action = base_change(geo.zhat_of_ty(t, y), M6)
        assert np.abs(direct - via_action).max() < 1e-12


def test_z_fixture_and_consistency():
    assert np.abs(geo.z_of_ty(1.0, 4.0 / 3.0) - Z1).max() < 1e-14
    rng = np.random.default_rng(31)
    for _ in range(5):
        t = 1.0 + 2.0 * rng.random()
        y = 2 * t / 3 + 0.2 + rng.random()
        Z = geo.z_of_ty(t, y)
        assert np.abs(Z - w9.base_from_cover(geo.zhat_of_ty(t, y))).max() < 1e-12
        det_im = np.linalg.det(Z.imag)
        assert det_im > 0


def test_main_series_fixture_and_reality():
    assert abs(geo.main_series(1.0, 4.0 / 3.0)) < 1e-10
    for t in np.linspace(1.0, 3.0, 5):
        for y in np.linspace(2 * t / 3 + 0.15, 2 * t / 3 + 2.0, 5):
            assert abs(geo.main_series(float(t), float(y)).imag) < 1e-12
    with pytest.raises(ParameterError):
        geo.main_series(2.0, 1.0)
    with pytest.raises(ParameterError):  # exp(3 pi t / 8) overflows at 602.6
        geo.main_series(700.0, 700.35)


def test_main_series_matches_transformed_theta():
    rng = np.random.default_rng(32)
    for _ in range(5):
        t = 1.0 + 2.0 * rng.random()
        y = 2 * t / 3 + 0.2 + rng.random()
        th = theta_char(CH_111_000, np.zeros(3), geo.zhat_prime(t, y))
        factor = np.exp(math.pi * (-3 * t / 8 + 9j / 8))
        assert abs(th - factor * geo.main_series(t, y)) < 1e-10


def _product_form(t, y, radius=24):
    """exp(3 pi t / 8) [a(q) F0(t) + c(q) F1(t)] with q = exp(-2 pi (3y/2 - t)),
    summed directly: the cubic theta functions a(q) = sum q^(m^2+mn+n^2) and
    c(q) = sum q^((m+1/3)^2+(m+1/3)(n+1/3)+(n+1/3)^2) over |m|, |n| <= radius,
    and F_j(t) = sum (-1)^(n(n+3)/2) exp(-pi t (n + 3/2)^2 / 6) over
    |n + 3/2| <= radius with n = 0 (mod 3) for j = 0, n != 0 for j = 1."""
    q = math.exp(-2 * math.pi * (1.5 * y - t))
    axis = np.arange(-radius, radius + 1)
    m, n = np.meshgrid(axis, axis, indexing="ij")
    u, v = m + 1 / 3, n + 1 / 3
    a = math.fsum((q ** (m * m + m * n + n * n)).ravel())
    c = math.fsum((q ** (u * u + u * v + v * v)).ravel())
    k = np.arange(-radius - 1, radius - 1)
    terms = (np.where(k * (k + 3) // 2 % 2, -1.0, 1.0)
             * np.exp(-math.pi * t * (k + 1.5) ** 2 / 6))
    f0, f1 = math.fsum(terms[k % 3 == 0]), math.fsum(terms[k % 3 != 0])
    return math.exp(3 * math.pi * t / 8) * (a * f0 + c * f1)


def test_main_series_matches_brute_series():
    # the k = 0 term is 1, so near the root (y = t + 0.35, values ~2e-3)
    # rounding in either sum is measured against 1, not against the value;
    # the cubic-theta product form that solve_y inverts is held to the same
    for t in (0.3, 1.0, 2.0, 5.0, 10.0):
        for y in (2 * t / 3 + 0.05, 2 * t / 3 + 0.5, t + 0.35):
            ref = series_brute(t, y, radius=24)
            got = geo.main_series(t, y)
            assert type(got) is complex
            assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0)
            assert abs(_product_form(t, y) - ref) <= 1e-12 * max(abs(ref), 1.0)


def _mp_r(t):
    """r(t) = -F1(t)/F0(t), summed at the working precision of mpmath."""
    t = mpmath.mpf(t)
    f = [mpmath.mpf(0), mpmath.mpf(0)]
    for n in range(-40, 38):
        term = mpmath.exp(-mpmath.pi * t * (n + mpmath.mpf(3) / 2) ** 2 / 6)
        f[n % 3 != 0] += -term if n * (n + 3) // 2 % 2 else term
    return -f[1] / f[0]


def test_solve_y_matches_hypergeometric_inverse():
    # the cubic analogue of Jacobi's inversion (Borwein and Borwein, Trans.
    # AMS 323, 1991; Berndt, Bhargava and Garvan, Trans. AMS 347, 1995):
    # a(q)/c(q) = r with q = exp(-2 pi A) has A = F(1 - x) / (sqrt3 F(x)),
    # F = 2F1(1/3, 2/3; 1; .) and x = r^-3, and then y = (2/3)(t + A)
    def F(z):
        return mpmath.hyp2f1(mpmath.mpf(1) / 3, mpmath.mpf(2) / 3, 1, z)

    with mpmath.workdps(40):
        for t in (1.0, 2.0, 5.0, 20.0):
            x = _mp_r(t) ** -3
            y = 2 * (t + F(1 - x) / (mpmath.sqrt(3) * F(x))) / 3
            assert abs(geo.solve_y(t).y - float(y)) < 1e-13


def test_root_is_unique():
    # a(q)/c(q) = r(t) has exactly one root q in (0, 1), that is y > 2t/3,
    # because c/a increases on (0, 1) from 0 towards 1 and r(t) > 1
    with mpmath.workdps(40):
        for t in np.geomspace(1.0, geo.T_MAX, 25):
            r = _mp_r(float(t))
            assert r > 1
            rho = r * mpmath.exp(-mpmath.pi * float(t) / 3)
            assert abs(geo._rho(float(t)) / rho - 1) < 1e-15
    # split by the parity of m, the cubic sums are products of the 1-D
    # sums s(h, w) = sum_k q^(w (k + h)^2); near q = 1, 1 - c/a is about
    # 1e-53, hence 80 digits
    with mpmath.workdps(80):
        ratios = []
        for q in np.linspace(0.01, 0.9, 60):
            lq = mpmath.log(mpmath.mpf(q))

            def s(h, w):
                return mpmath.fsum(mpmath.exp(lq * w * (k + h) ** 2)
                                   for k in range(-60, 61))

            half, sixth, two_thirds = (mpmath.mpf(1) / 2, mpmath.mpf(1) / 6,
                                       mpmath.mpf(2) / 3)
            a = s(0, 1) * s(0, 3) + s(half, 1) * s(half, 3)
            c = s(half, 1) * s(sixth, 3) + s(0, 1) * s(two_thirds, 3)
            ratios.append(c / a)
        assert 0 < ratios[0] and ratios[-1] < 1
        assert all(lo < hi for lo, hi in zip(ratios, ratios[1:]))


def test_solve_y_at_one():
    pt = geo.solve_y(1.0)
    assert abs(pt.y - 4.0 / 3.0) < 1e-14
    assert np.abs(pt.Z - Z1).max() < 1e-8
    assert np.abs(pt.Zhat - ZHAT1).max() < 1e-8
    assert pt.residual < 1e-10
    assert pt.flags == ()


def test_solve_y_at_two_cross_checked():
    pt = geo.solve_y(2.0)
    assert 4.0 / 3.0 < pt.y < 10.0
    assert abs(theta_char(CH_111_101, np.zeros(3), pt.Zhat)) < 1e-8
    assert abs(theta_char(CH_111_000, np.zeros(3), geo.zhat_prime(2.0, pt.y))) < 1e-9


def test_solve_y_beyond_former_limit():
    # cold scans above t = 4.73, starting where lambda_min is 0.075
    for t in (5.0, 10.0):
        pt = geo.solve_y(t)
        assert pt.flags == ()
        assert pt.residual < 1e-10
        assert abs(theta_char(CH_111_101, np.zeros(3), pt.Zhat)) < 1e-9
        if t == 10.0:
            assert abs(pt.y - t - 0.3496991526) < 1e-9


def test_trace_beyond_former_limit():
    pts = geo.trace(4.5, 6.0, 4)
    assert len(pts) == 4
    assert all(not p.flags and p.residual < 1e-10 for p in pts)


def test_solve_y_matches_quadrature_over_family():
    # s in (0, sqrt(3)/3) maps onto t in (0, inf); here t runs from 0.112
    # to 5.43, through t = 1 at the 3-square-tiled surface
    for s in (1.1e-6, 2.3e-6, 0.005, 0.01, 0.05, 0.1, 0.2, S_SQUARE, 0.35, 0.45,
              0.5, 0.57, 0.577):
        cover = w9.double_cover(w9.curve_Qs(s))
        Zhat = period_matrix(cover, build_cycles(cover, LAYOUT_COVER))
        t, y = geo.extract_ty_from_cover(Zhat, shape_tol=1e-6)
        pt = geo.solve_y(t)
        assert pt.flags == ()
        assert abs(pt.y - y) < 1e-12


def test_solve_y_matches_quadrature_at_far_edge():
    # s = sqrt(3)/3 - 1e-8, t = 12.1, where the branch point c is 1.8e16
    # and a and b are 2.3e-8 apart; relative in y
    cover = w9.double_cover(w9.curve_Qs(math.sqrt(3) / 3 - 1e-8))
    Zhat = period_matrix(cover, build_cycles(cover, LAYOUT_COVER))
    t, y = geo.extract_ty_from_cover(Zhat, shape_tol=1e-6)
    pt = geo.solve_y(t)
    assert pt.flags == () and 12 < t < 12.2
    assert abs(pt.y - y) < 1e-10 * y


def test_duality_on_quadrature_side():
    # u -> u_dual(u) exchanges isomorphic curves, and the surfaces at t and
    # 1/t are isomorphic: t(s) t(s') = 1 when g(s') = u_dual(g(s))
    def t_of(s):
        cover = w9.double_cover(w9.curve_Qs(s))
        Zhat = period_matrix(cover, build_cycles(cover, LAYOUT_COVER))
        return geo.extract_ty_from_cover(Zhat, shape_tol=1e-6)[0]

    for s in (0.01, 0.05, 0.1, 0.2):
        u = w9.u_dual(w9.g_of_s(s))
        s_dual = brentq(lambda x: w9.g_of_s(x) - u, S_SQUARE,
                        math.sqrt(3) / 3 - 1e-9, xtol=1e-15)
        assert abs(t_of(s) * t_of(s_dual) - 1.0) < 1e-12


def _count_series(monkeypatch):
    """A list that grows by one entry per main_series call."""
    calls, series = [], geo.main_series
    monkeypatch.setattr(geo, "main_series",
                        lambda t, y: calls.append((t, y)) or series(t, y))
    return calls


def test_solve_y_over_its_domain(monkeypatch):
    calls = _count_series(monkeypatch)
    for t in np.geomspace(1 / geo.T_MAX, geo.T_MAX, 25):
        before = len(calls)
        pt = geo.solve_y(float(t))
        assert pt.flags == ()
        assert pt.residual < 1e-12
        assert pt.y > 2 * pt.t / 3
        assert len(calls) - before == 1


def test_dual_map_matches_direct_root():
    # for t < 1, y_t comes from the solve at 1/t; here the series at t
    # itself is steep enough for a direct root to 1e-15
    for t in (0.3, 0.5, 0.8):
        f = lambda y: geo.main_series(t, y).real  # noqa: E731
        direct = brentq(f, 2 * t / 3 + 0.05, 5 * t, xtol=1e-15)
        assert abs(geo.solve_y(t).y - direct) < 1e-12


def test_solve_y_pinned_near_zero():
    # a 40-digit root of the series at t = 0.04, summed over the classes
    # (sum k, sum k^2) of |k|_inf <= 40, is 0.0778520613045641492; a root
    # of the float series itself is off by up to 7.5e-5 (slope 1.3e-8)
    pt = geo.solve_y(0.04)
    assert abs(pt.y - 0.0778520613045641492) < 1e-14
    assert pt.flags == ()


def test_trace_below_former_limit():
    pts = geo.trace(0.3, 1.0, 8)
    assert len(pts) == 8
    assert all(not p.flags and p.residual < 1e-10 for p in pts)
    assert abs(pts[-1].y - 4.0 / 3.0) < 1e-10


def test_solve_y_root_below_scan_start():
    # near t = 0 the root lies within 0.05 of the domain edge 2t/3, where
    # the series is flat in y; the solve at 1/t reaches it
    pt = geo.solve_y(0.02)
    assert pt.flags == () and 2 * 0.02 / 3 < pt.y < 2 * 0.02 / 3 + 0.05
    assert abs((1.5 * pt.y - 0.02) * (1.5 * geo.solve_y(50.0).y - 50.0) - 1) < 1e-12


def test_solve_y_validation():
    with pytest.raises(ParameterError):
        geo.solve_y(0.0)
    for t in (1 / 700, 700.0):
        with pytest.raises(ParameterError, match="1/T_MAX"):
            geo.solve_y(t)


def test_trace_grid():
    pts = geo.trace(1.0, 3.0, 9)
    assert len(pts) == 9
    assert [p.t for p in pts] == list(np.linspace(1.0, 3.0, 9))
    for p in pts:
        assert p.y > 2 * p.t / 3
        assert p.residual < 1e-10
        assert not p.flags


def test_trace_single_point():
    pts = geo.trace(1.0, 1.0, 1)
    assert len(pts) == 1
    assert abs(pts[0].y - 4.0 / 3.0) < 1e-8


def test_trace_evaluation_budget(monkeypatch):
    calls = _count_series(monkeypatch)
    pts = geo.trace(1.0, 10.0, 50)
    assert all(not p.flags for p in pts)
    assert len(calls) == 50


def test_trace_requires_finite_bounds():
    # np.linspace(1, inf, n) is all NaN and inf: the t = 1 point would be lost
    for t_end in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="t_end"):
            geo.trace(1.0, t_end, 3)


def test_trace_grid_refinement_is_consistent():
    coarse = geo.trace(1.0, 3.0, 5)
    fine = {round(p.t, 9): p.y for p in geo.trace(1.0, 3.0, 9)}
    for p in coarse:
        assert abs(fine[round(p.t, 9)] - p.y) < 1e-8


def _raising(exc):
    def solve_y(*args, **kwargs):
        raise exc
    return solve_y


def test_trace_records_library_errors(monkeypatch):
    monkeypatch.setattr(geo, "solve_y", _raising(TruncationError("radius")))
    (pt,) = geo.trace(1.0, 1.0, 1)
    assert pt.flags == ("error:TruncationError",)
    assert math.isnan(pt.y)


def test_trace_propagates_programming_errors(monkeypatch):
    monkeypatch.setattr(geo, "solve_y", _raising(TypeError("bug")))
    with pytest.raises(TypeError):
        geo.trace(1.0, 1.0, 1)


def test_extract_ty_roundtrip():
    assert geo.extract_ty_from_cover(ZHAT1) == (1.0, 4.0 / 3.0)
    rng = np.random.default_rng(33)
    for _ in range(5):
        t = 1.0 + 2.0 * rng.random()
        y = 2 * t / 3 + 0.2 + rng.random()
        t2, y2 = geo.extract_ty_from_cover(geo.zhat_of_ty(t, y))
        assert abs(t2 - t) < 1e-12 and abs(y2 - y) < 1e-12
    with pytest.raises(ShapeMismatchError):
        geo.extract_ty_from_cover(1j * np.eye(3))


def test_extract_ty_from_quadrature_cover():
    cover = w9.double_cover(w9.curve_Qs(0.2))
    Zhat = period_matrix(cover, build_cycles(cover, LAYOUT_COVER))
    t, y = geo.extract_ty_from_cover(Zhat, shape_tol=1e-6)
    assert abs(geo.main_series(t, y)) < 1e-6


def test_theorem_consistency_at_solved_points():
    for t in (1.0, 1.5, 2.5):
        pt = geo.solve_y(t)
        assert abs(theta_char(CH_111_101, np.zeros(3), pt.Zhat)) < 1e-9
