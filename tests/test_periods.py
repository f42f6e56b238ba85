import cmath
import math

import mpmath
import numpy as np
import pytest

from conftest import S_SQUARE, Z1, ZHAT1, agm
from w9periods import periods, w9
from w9periods.errors import (DegeneracyError, LayoutError, ParameterError,
                              PathError, W9Error)
from w9periods.periods import (CLEARANCE_FACTOR, LAYOUT_COVER, LAYOUT_ELLIPTIC,
                               LAYOUT_GENUS2, MIN_ROOT_SEPARATION, ArcPath,
                               HyperellipticCurve, _segment_distance,
                               arc_integrals, build_cycles,
                               period_matrices, period_matrix)
from w9periods.quadrature import tanh_sinh_nodes

SQRT3 = math.sqrt(3.0)


def _principal_anchor(roots, x0):
    """The arc's anchor by its definition, prod_j sqrt(x0 - x_j) at the midpoint x0."""
    return math.prod(cmath.sqrt(x0 - r) for r in roots)


def genus2_curve():
    return HyperellipticCurve((-1.0, 0.0, S_SQUARE**2, 1.0, (2 + SQRT3) ** 2))


def cover_curve():
    a, c = S_SQUARE, 2 + SQRT3
    return HyperellipticCurve((-c, -1.0, -a, 1j, -1j, a, 1.0, c))


def elliptic_curve():
    return HyperellipticCurve((-1.0, 0.0, 1.0))


def test_curve_validation():
    with pytest.raises(DegeneracyError):
        HyperellipticCurve((0.0, 0.0, 1.0))
    with pytest.raises(ParameterError):
        HyperellipticCurve((0.0, 1.0))
    assert genus2_curve().genus == 2
    assert cover_curve().genus == 3
    assert elliptic_curve().genus == 1


def test_agm_oracle_complete_integral():
    # |integral over [0,1] of dx/sqrt(x(x-1)(x+1))| equals the classical
    # complete value pi / (sqrt(2) agm(1, 1/sqrt(2)))
    curve = elliptic_curve()
    expected = math.pi / (math.sqrt(2.0) * agm(1.0, 1.0 / math.sqrt(2.0)))
    (val,) = arc_integrals(curve, ArcPath(0.0, 1.0))
    assert abs(abs(val) - expected) < 1e-10
    # the lemniscatic closed form agrees with the agm value
    lemn = math.gamma(0.25) ** 2 / (2.0 * math.sqrt(2.0 * math.pi))
    assert abs(expected - lemn) < 1e-13


def test_arc_integral_symmetry():
    # both finite arcs of the square lattice curve have equal magnitude
    curve = elliptic_curve()
    (left,) = arc_integrals(curve, ArcPath(-1.0, 0.0))
    (right,) = arc_integrals(curve, ArcPath(0.0, 1.0))
    assert abs(abs(left) - abs(right)) < 1e-11
    # left arc is real, right arc is imaginary in the continuous branch
    assert abs(left.imag) < 1e-11
    assert abs(right.real) < 1e-11


def test_clearance_guard():
    # a segment passing right through a foreign branch point
    curve = HyperellipticCurve((-1.0, 0.0, 0.5, 1.0, 2.0))
    with pytest.raises(PathError):
        arc_integrals(curve, ArcPath(0.0, 1.0))


def test_clearance_from_stored_separation():
    # the clearance is computed once, when the curve is built
    curve = HyperellipticCurve((-1.0, 0.0, 0.5, 1.0, 2.0))
    assert curve.clearance() == 0.5e-3
    with pytest.raises(PathError, match="passes within 0.0005 of branch point 0.5"):
        arc_integrals(curve, ArcPath(0.0, 1.0))
    pts = cover_curve().branch_points
    assert cover_curve().clearance() == CLEARANCE_FACTOR * min(
        abs(p - q) for i, p in enumerate(pts) for q in pts[i + 1:])
    with pytest.raises(DegeneracyError, match="branch points 1.0 and 1.0"):
        HyperellipticCurve((0.0, 1.0, 3.0, 1.0 + 1e-13))


def test_non_finite_branch_points_rejected():
    # before quadrature starts, not after 12 levels of NaN samples
    for bad in (math.inf, math.nan, complex(1.0, math.inf)):
        with pytest.raises(ParameterError, match="finite"):
            HyperellipticCurve((-1.0, 0.0, bad, 2.0, 3.0))


def test_branch_points_whose_products_overflow_rejected():
    # refused when the curve is built: the real arc -1 -> 0 of this curve
    # once summed inf moduli to 0, and the clearance test raised OverflowError
    with pytest.raises(ParameterError, match=r"modulus <= 2\.82e\+102"):
        HyperellipticCurve((-1.0, 0.0, 1.0, 1e160, 2e160))
    with pytest.raises(ParameterError, match=r"modulus <= 1\.19e\+51"):
        HyperellipticCurve((-2e51, -2.0, -1.0, 1j, -1j, 1.0, 2.0, 2e51))
    # below the bound each layout returns a matrix or a typed error, with no
    # overflow warning; a separation of 1e-11 makes rho_r about 1e114
    for roots, layout in (((0.0, 1e-11, 2.8e102), LAYOUT_ELLIPTIC),
                          ((-1.0, 0.0, 1e-11, 1.0, 2.8e102), LAYOUT_GENUS2),
                          ((-1.0, 0.0, 1.0, 1.4e102, 2.8e102), LAYOUT_GENUS2),
                          ((-1.18e51, -2.0, -1.0, 1j, -1j, 1.0, 2.0, 1.18e51),
                           LAYOUT_COVER)):
        curve = HyperellipticCurve(roots)
        try:
            period_matrix(curve, build_cycles(curve, layout))
        except W9Error:
            pass
    # the README's largest branch point, c = 1.8e22 at s = sqrt(3)/3 - 1e-11
    curve = w9.curve_Qs(SQRT3 / 3 - 1e-11)
    assert max(map(abs, curve.branch_points)) > 1.7e22
    period_matrix(curve, build_cycles(curve, LAYOUT_GENUS2))
    cover = w9.double_cover(curve)
    period_matrix(cover, build_cycles(cover, LAYOUT_COVER))


def _track_signs(w: np.ndarray, anchor_index: int,
                 anchor_value: complex) -> np.ndarray:
    """Sign table making the square-root samples w continuous from the anchor."""
    ratio_flip = np.where((w[1:] / w[:-1]).real < 0, -1.0, 1.0)
    cum = np.concatenate(([1.0], np.cumprod(ratio_flip)))
    signs = cum / cum[anchor_index]
    if abs(w[anchor_index] - anchor_value) > abs(w[anchor_index] + anchor_value):
        signs = -signs
    return signs


def _tanh_sinh_arc(curve, path, level=11):
    """An oracle independent of both rules of arc_integrals: the tanh-sinh
    sum at one level, sqrt(P) evaluated at every node and tracked from the
    midpoint anchor, x formed from the end nearer 0."""
    u, one_minus, one_plus, w = tanh_sinh_nodes(level)
    z0, z1 = path.start, path.end
    half = 0.5 * (z1 - z0)
    x = z0 + half * one_plus if abs(z0) <= abs(z1) else z1 - half * one_minus
    P = np.ones(len(u), dtype=complex)
    for r in curve.branch_points:
        if abs(r - z0) <= MIN_ROOT_SEPARATION:
            P *= half * one_plus
        elif abs(r - z1) <= MIN_ROOT_SEPARATION:
            P *= -half * one_minus
        else:
            P *= x - r
    sq = np.sqrt(P)
    sq *= _track_signs(sq, len(u) // 2,
                       _principal_anchor(curve.branch_points, 0.5 * (z0 + z1)))
    return np.array([half * np.sum(w * x ** (k - 1) / sq)
                     for k in range(1, curve.genus + 1)])


@pytest.mark.parametrize("s", [1e-3, 1e-2])
def test_cover_arc_i_to_minus_i_matches_mpmath(s):
    # on x = iy, -1 < y < 1, P is real and negative, so the determination
    # anchored at x = 0 to A is (A / |A|) sqrt(|P(x)|) along the whole arc
    curve = w9.double_cover(w9.curve_Qs(s))
    got = arc_integrals(curve, ArcPath(1j, -1j))
    anchor = _principal_anchor(curve.branch_points, 0j)
    with mpmath.workdps(30):
        roots = [mpmath.mpc(r.real, r.imag) for r in curve.branch_points]
        phase = mpmath.mpc(anchor.real, anchor.imag) / abs(anchor)
        ref = np.array([complex(mpmath.quad(
            lambda y: (1j * y) ** (k - 1) * 1j
            / (phase * mpmath.sqrt(abs(mpmath.fprod(1j * y - r for r in roots)))),
            [1, s, 0, -s, -1])) for k in (1, 2, 3)])
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _count_arc_integrals(monkeypatch):
    calls = []
    arc = periods.arc_integrals

    def counting(curve, path):
        calls.append(path)
        return arc(curve, path)

    monkeypatch.setattr(periods, "arc_integrals", counting)
    return calls


@pytest.mark.parametrize("s", [1e-3, 0.05, S_SQUARE, 0.5, 0.57])
def test_mirror_pairs_match_direct_integration(monkeypatch, s):
    # the cover is closed under x -> -x: arcs a -> b and b -> c are derived
    # from -b -> -a and -c -> -b; a plan with one arc per basis row reads
    # every arc's integrals back from A and B
    curve = w9.double_cover(w9.curve_Qs(s))
    cover = build_cycles(curve, LAYOUT_COVER)
    eye = np.eye(len(cover.arcs), dtype=int)
    plan = periods.CyclePlan(LAYOUT_COVER, cover.arcs,
                             tuple(map(tuple, eye[[0, 1, 2]])),
                             tuple(map(tuple, eye[[3, 5, 6]])))
    direct = {j: arc_integrals(curve, cover.arcs[j]) for j in plan.used_arcs()}
    calls = _count_arc_integrals(monkeypatch)
    pair = period_matrices(curve, plan)
    assert calls == [cover.arcs[j] for j in (0, 1, 2, 3)]
    for row, j in zip(pair.B[1:], (5, 6)):
        assert np.abs(row - direct[j]).max() <= 1e-15 * np.abs(direct[j]).max(), (s, j)
    for row, j in zip(np.vstack([pair.A, pair.B[:1]]), (0, 1, 2, 3)):
        assert np.array_equal(row, direct[j])


# a cover whose branch points are closed under x -> -x only to 1e-13
NEAR_MIRROR = (-3.0, -2.0, -1.0, 1j, -1j, 1.0, 2.0, 3.0 + 1e-13)


def test_near_mirror_integrates_every_arc(monkeypatch):
    # 3 + 1e-13 and -3 do not mirror each other, so 1 -> 2 is not derived
    # from -2 -> -1: every basis row is its arc's direct integral
    curve = HyperellipticCurve(NEAR_MIRROR)
    cover = build_cycles(curve, LAYOUT_COVER)
    eye = np.eye(len(cover.arcs), dtype=int)
    plan = periods.CyclePlan(LAYOUT_COVER, cover.arcs,
                             tuple(map(tuple, eye[[0, 1, 2]])),
                             tuple(map(tuple, eye[[3, 5, 6]])))
    direct = {j: arc_integrals(curve, cover.arcs[j]) for j in plan.used_arcs()}
    calls = _count_arc_integrals(monkeypatch)
    pair = period_matrices(curve, plan)
    assert calls == [cover.arcs[j] for j in (0, 1, 2, 3, 5, 6)]
    for row, j in zip(np.vstack([pair.A, pair.B]), (0, 1, 2, 3, 5, 6)):
        assert np.array_equal(row, direct[j]), j


def test_mirror_pair_odd_degree(monkeypatch):
    # y^2 = x^3 - x: P(-x) = -P(x), so eps = A_j / A_i is +-i, and the arc
    # 0 -> 1 is derived from -1 -> 0; tau is still i
    curve = elliptic_curve()
    plan = build_cycles(curve, LAYOUT_ELLIPTIC)
    direct = arc_integrals(curve, plan.arcs[1])
    calls = _count_arc_integrals(monkeypatch)
    pair = period_matrices(curve, plan)
    assert calls == [plan.arcs[0]]
    assert abs(pair.A[0, 0] - direct[0]) <= 1e-15 * abs(direct[0])
    eps = (_principal_anchor(curve.branch_points, 0.5)
           / _principal_anchor(curve.branch_points, -0.5))
    assert abs(abs(eps.imag) - 1) < 1e-15 and abs(eps.real) < 1e-15
    assert abs(period_matrix(curve, plan)[0, 0] - 1j) < 1e-14


def test_period_matrix_arc_count(monkeypatch):
    # work counter: the cover integrates one arc of each mirror pair, 4 of
    # its 6 used arcs; genus 2 has no mirror symmetry and integrates all 4,
    # as does a cover closed under x -> -x only to 1e-13
    calls = _count_arc_integrals(monkeypatch)
    base = w9.curve_Qs(S_SQUARE)
    for curve, layout, count in ((w9.double_cover(base), LAYOUT_COVER, 4),
                                 (base, LAYOUT_GENUS2, 4),
                                 (HyperellipticCurve(NEAR_MIRROR), LAYOUT_COVER, 6)):
        calls.clear()
        period_matrix(curve, build_cycles(curve, layout))
        assert len(calls) == count, layout


def _count_graded(monkeypatch):
    """The paths of the arcs that go to the graded rule, in call order."""
    calls = []
    graded = periods._graded_integrals

    def counting(curve, path, foreign, near):
        calls.append(path)
        return graded(curve, path, foreign, near)

    monkeypatch.setattr(periods, "_graded_integrals", counting)
    return calls


@pytest.mark.parametrize("layout, arc", [(LAYOUT_GENUS2, 2), (LAYOUT_COVER, 0)])
def test_conjugation_closed_real_arcs_match_mpmath(monkeypatch, layout, arc):
    # genus-2 arc a -> b and cover arc -c -> -b at s = 0.05, real arcs of
    # curves closed under conjugation, sent to the graded rule; against
    # 30-digit mpmath.quad of the positive ratio P / P(m) over the real
    # segment, divided by the principal anchor A
    base = w9.curve_Qs(0.05)
    curve = base if layout == LAYOUT_GENUS2 else w9.double_cover(base)
    path = build_cycles(curve, layout).arcs[arc]
    calls = _count_graded(monkeypatch)
    monkeypatch.setattr(periods, "CHEBYSHEV_MAX_NODES", 0)
    got = arc_integrals(curve, path)
    assert calls == [path]
    z0, z1 = path.start.real, path.end.real
    anchor = _principal_anchor(curve.branch_points, 0.5 * (path.start + path.end))
    with mpmath.workdps(30):
        roots = [mpmath.mpc(r.real, r.imag) for r in curve.branch_points]
        m = (mpmath.mpf(z0) + mpmath.mpf(z1)) / 2
        Pm = mpmath.fprod(m - r for r in roots)
        ref = np.array([complex(mpmath.quad(
            lambda x: x ** (k - 1)
            / mpmath.sqrt(mpmath.re(mpmath.fprod(x - r for r in roots) / Pm)),
            [mpmath.mpf(z0), mpmath.mpf(z1)])) for k in range(1, curve.genus + 1)])
    ref = ref / anchor
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("s", [0.005, 0.57])
def test_genus2_arcs_match_mpmath_at_cusps(s):
    # the real arcs next to the family's cusps, where branch points crowd,
    # against a 30-digit mpmath tanh-sinh; the arc integrals are real or
    # imaginary, of either sign
    curve = w9.curve_Qs(s)
    plan = build_cycles(curve, LAYOUT_GENUS2)
    with mpmath.workdps(30):
        roots = [mpmath.mpf(r.real) for r in curve.branch_points]
        for i in plan.used_arcs():
            path = plan.arcs[i]
            got = arc_integrals(curve, path)
            for k in (1, 2):
                ref = float(mpmath.quad(
                    lambda x: x ** (k - 1) / mpmath.sqrt(abs(mpmath.fprod(x - r for r in roots))),
                    [mpmath.mpf(path.start.real), mpmath.mpf(path.end.real)]))
                err = min(abs(got[k - 1] - e * ref) for e in (1, -1, 1j, -1j))
                assert err <= 1e-10 * abs(ref), (s, i, k)


def _theta_reference(curve, path):
    """30-digit mpmath.quad of the arc's integrand in theta, u = cos(theta),
    (h / A) x^(k-1) / prod_r sqrt((x - r) / (m - r)) over [0, pi], from the
    exact branch points.  x - r is formed from the nearer end,
    (z1 - r) - 2 h sin^2(theta / 2) or (z0 - r) + 2 h cos^2(theta / 2), so
    that it keeps its digits where a root crowds that end.  [0, pi] is cut
    at Re theta_r and Re theta_r -+ |Im theta_r| of each foreign root."""
    anchor = _principal_anchor(curve.branch_points, 0.5 * (path.start + path.end))
    with mpmath.workdps(30):
        z0, z1 = (mpmath.mpc(z.real, z.imag) for z in (path.start, path.end))
        m, h = (z0 + z1) / 2, (z1 - z0) / 2
        roots = [mpmath.mpc(r.real, r.imag) for r in curve.branch_points
                 if r not in (path.start, path.end)]
        cuts = {mpmath.mpf(0), +mpmath.pi}
        for r in roots:
            theta = mpmath.acos((r - m) / h)
            centre = min(max(mpmath.re(theta), 0), mpmath.pi)
            width = abs(theta - centre)
            cuts.update(c for c in (centre - width, centre, centre + width)
                        if 0 < c < mpmath.pi)
        memo = {}

        def weight(theta):  # x and h / prod_r sqrt((x - r) / (m - r)), once per node
            if theta not in memo:
                if theta <= mpmath.pi / 2:
                    end, dx = z1, -2 * h * mpmath.sin(theta / 2) ** 2
                else:
                    end, dx = z0, 2 * h * mpmath.cos(theta / 2) ** 2
                memo[theta] = end + dx, h / mpmath.fprod(
                    mpmath.sqrt(((end - r) + dx) / (m - r)) for r in roots)
            return memo[theta]

        def moment(k):
            def f(theta):
                x, w = weight(theta)
                return x ** (k - 1) * w
            return f

        ref = [complex(mpmath.quad(moment(k), sorted(cuts)))
               for k in range(1, curve.genus + 1)]
    return np.array(ref) / anchor


@pytest.mark.parametrize("s", [0.005, 0.05, S_SQUARE, 0.5, 0.57])
def test_chebyshev_arcs_match_mpmath(monkeypatch, s):
    # every integrated arc, arcs 0 to 3 of both layouts (the cover derives
    # arcs 5 and 6 from their mirror images), by either rule: at s = 0.005
    # and 0.57 some arcs take the graded rule
    calls = _count_graded(monkeypatch)
    base = w9.curve_Qs(s)
    for curve, layout in ((base, LAYOUT_GENUS2), (w9.double_cover(base), LAYOUT_COVER)):
        plan = build_cycles(curve, layout)
        for i in range(4):
            got = arc_integrals(curve, plan.arcs[i])
            ref = _theta_reference(curve, plan.arcs[i])
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), (s, layout, i)
    assert (len(calls) > 0) == (s in (0.005, 0.57))


@pytest.mark.parametrize("s, layout, arc", [
    (1.1e-6, LAYOUT_GENUS2, 2),
    (2.3e-4, LAYOUT_GENUS2, 2),
    (SQRT3 / 3 - 1e-8, LAYOUT_GENUS2, 3),
    (SQRT3 / 3 - 1e-8, LAYOUT_COVER, 2),
    (SQRT3 / 3 - 1e-8, LAYOUT_COVER, 0),
])
def test_graded_arcs_match_mpmath_at_cusps(monkeypatch, s, layout, arc):
    # the graded arcs at the family's edges, s = 1.1e-6 and
    # sqrt(3)/3 - 1e-8, where c = 1.8e16 and a foreign root sits 2.3e-8
    # from an end; the float branch points are taken as exact
    calls = _count_graded(monkeypatch)
    base = w9.curve_Qs(s)
    curve = base if layout == LAYOUT_GENUS2 else w9.double_cover(base)
    path = build_cycles(curve, layout).arcs[arc]
    got = arc_integrals(curve, path)
    assert calls == [path]
    ref = _theta_reference(curve, path)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_chebyshev_work_counter(monkeypatch):
    # work counter: the graded rule runs once per arc whose Chebyshev N
    # passes CHEBYSHEV_MAX_NODES
    calls = _count_graded(monkeypatch)
    base = w9.curve_Qs(S_SQUARE)
    for curve, layout in ((base, LAYOUT_GENUS2), (w9.double_cover(base), LAYOUT_COVER)):
        period_matrix(curve, build_cycles(curve, layout))
    assert calls == []
    # next to the low cusp: genus-2 arcs -1 -> 0 and a -> b, cover arc i -> -i
    base = w9.curve_Qs(0.005)
    for curve, layout, deep in ((base, LAYOUT_GENUS2, [0, 2]),
                                (w9.double_cover(base), LAYOUT_COVER, [3])):
        plan = build_cycles(curve, layout)
        calls.clear()
        period_matrix(curve, plan)
        assert calls == [plan.arcs[i] for i in deep], layout


@pytest.mark.parametrize("s, nodes", [(1.1e-6, 528), (0.005, 240), (0.57, 168),
                                      (SQRT3 / 3 - 1e-8, 516)])
def test_graded_node_counts(monkeypatch, s, nodes):
    # work counter: the graded rule's node count follows a priori from the
    # roots' angles, 12 per panel; the most any graded arc of both layouts
    # takes at s
    counts = []
    sums = periods._sums

    def counting(curve, path, anchors, index, offsets, weights, foreign):
        if index is not None:
            counts.append(len(offsets))
        return sums(curve, path, anchors, index, offsets, weights, foreign)

    monkeypatch.setattr(periods, "_sums", counting)
    base = w9.curve_Qs(s)
    for curve, layout in ((base, LAYOUT_GENUS2), (w9.double_cover(base), LAYOUT_COVER)):
        period_matrix(curve, build_cycles(curve, layout))
    assert counts and all(n % 12 == 0 for n in counts)
    assert max(counts) == nodes


@pytest.mark.parametrize("s", [0.005, 0.05, S_SQUARE, 0.5, 0.57])
def test_period_matrix_matches_tanh_sinh_only(monkeypatch, s):
    # against period matrices whose every arc runs the tanh-sinh oracle
    base = w9.curve_Qs(s)
    layouts = ((base, LAYOUT_GENUS2), (w9.double_cover(base), LAYOUT_COVER))
    got = [period_matrix(curve, build_cycles(curve, layout)) for curve, layout in layouts]
    monkeypatch.setattr(periods, "arc_integrals", _tanh_sinh_arc)
    for (curve, layout), Z in zip(layouts, got):
        ref = period_matrix(curve, build_cycles(curve, layout))
        assert np.abs(Z - ref).max() <= 1e-13 * np.abs(ref).max(), layout


def test_cusp_scans_find_no_failure():
    # both layouts from s = 1.1e-6, where a = s^2 is 1.2e-12 from the
    # branch point 0, and up to sqrt(3)/3 - 1e-8, where c = 1.8e16
    near_cusps = list(np.geomspace(1.1e-6, 3e-3, 120)) + [
        SQRT3 / 3 - d for d in np.geomspace(1e-8, 0.08, 80)]
    failed = []
    for s in near_cusps:
        base = w9.curve_Qs(s)
        try:
            for curve, layout in ((base, LAYOUT_GENUS2), (w9.double_cover(base), LAYOUT_COVER)):
                period_matrix(curve, build_cycles(curve, layout))
        except W9Error as exc:
            failed.append((s, exc))
    assert failed == []


def test_rho_rounding_to_one_matches_mpmath(monkeypatch):
    # on the arc -1e5 -> 0, u_r of the root 2e-12 is (2e-12 + 5e4) / 5e4,
    # 1.0 exactly: rho = 1, for which no Chebyshev node count exists; the
    # graded rule places the root from the exact offset (0 - 2e-12) / h
    calls = _count_graded(monkeypatch)
    curve = HyperellipticCurve((-1e5, 0.0, 2e-12, 1.0))
    path = ArcPath(-1e5, 0.0)
    got = arc_integrals(curve, path)
    assert calls == [path]
    anchor = _principal_anchor(curve.branch_points, -5e4)
    with mpmath.workdps(30):
        roots = [mpmath.mpf(r.real) for r in curve.branch_points]
        m = mpmath.mpf(-5e4)
        Pm = mpmath.fprod(m - r for r in roots)
        ref = complex(mpmath.quad(
            lambda x: 1 / mpmath.sqrt(mpmath.fprod(x - r for r in roots) / Pm),
            [-1e5, -1, -1e-6, -1e-10, 0])) / anchor
    assert abs(got[0] - ref) <= 1e-14 * abs(ref)


GENUS2_ROOTS = (-1, 0, 1, 2, 3)
COVER_ROOTS = (-3, -2, -1, 1j, -1j, 1, 2, 3)


@pytest.mark.parametrize("exact, i, moved, layout", [
    pytest.param(GENUS2_ROOTS, 4, 3 + 1e-10j, LAYOUT_GENUS2, id="genus2-3+1e-10i"),
    pytest.param(COVER_ROOTS, 3, 1j + 1e-8, LAYOUT_COVER, id="cover-i+1e-8"),
    pytest.param(COVER_ROOTS, 2, -1 - 1e-8, LAYOUT_COVER, id="cover-(-1-1e-8)"),
    # a point inside the chain, above or below the axis: the anchors of the
    # arcs on either side must still be one determination
    pytest.param(GENUS2_ROOTS, 2, 1 + 1e-10j, LAYOUT_GENUS2, id="genus2-1+1e-10i"),
    pytest.param(COVER_ROOTS, 6, 2 - 1e-10j, LAYOUT_COVER, id="cover-2-1e-10i"),
])
def test_layouts_join_the_curves_own_branch_points(exact, i, moved, layout):
    # the layouts take the moved point as real, +-i or symmetric; the arcs
    # end at the points themselves, and the matrix is that of the exact
    # curve up to the move
    roots = exact[:i] + (moved,) + exact[i + 1:]
    curve = HyperellipticCurve(tuple(map(complex, roots)))
    plan = build_cycles(curve, layout)
    ends = {z for arc in plan.arcs if arc for z in (arc.start, arc.end)}
    assert ends == set(curve.branch_points)
    Z = period_matrix(curve, plan)
    ref_curve = HyperellipticCurve(tuple(map(complex, exact)))
    ref = period_matrix(ref_curve, build_cycles(ref_curve, layout))
    assert np.abs(Z - ref).max() <= 1e-7 * np.abs(ref).max()


def test_build_cycles_layouts():
    plan2 = build_cycles(genus2_curve(), LAYOUT_GENUS2)
    assert plan2.genus == 2
    assert plan2.used_arcs() == [0, 1, 2, 3]
    plan3 = build_cycles(cover_curve(), LAYOUT_COVER)
    assert plan3.genus == 3
    assert plan3.used_arcs() == [0, 1, 2, 3, 5, 6]
    plan1 = build_cycles(elliptic_curve(), LAYOUT_ELLIPTIC)
    assert plan1.genus == 1
    with pytest.raises(LayoutError):
        build_cycles(elliptic_curve(), LAYOUT_GENUS2)
    with pytest.raises(LayoutError):
        build_cycles(genus2_curve(), "no_such_layout")


def test_intersection_form_real_layouts():
    J4 = np.zeros((4, 4), dtype=int)
    J4[:2, 2:] = -np.eye(2, dtype=int)
    J4[2:, :2] = np.eye(2, dtype=int)
    assert np.array_equal(
        build_cycles(genus2_curve(), LAYOUT_GENUS2).intersection_matrix(), J4)
    assert np.array_equal(
        build_cycles(elliptic_curve(), LAYOUT_ELLIPTIC).intersection_matrix(),
        np.array([[0, -1], [1, 0]]))


def _track_along_polyline(curve, points, start_value, samples=512):
    """Continue sqrt(P) from points[0] to points[-1]; returns the end value."""
    val = start_value
    for z0, z1 in zip(points[:-1], points[1:]):
        xs = z0 + (z1 - z0) * np.linspace(0.0, 1.0, samples)
        P = np.ones(samples, dtype=complex)
        for r in curve.branch_points:
            P *= xs - r
        sq = np.sqrt(P)
        assert float(np.abs(sq).min()) >= 1e-13, "path meets a branch point"
        val = _track_signs(sq, 0, val)[-1] * sq[-1]
    return val


def _detour_point(curve, m0, m1):
    """Deterministic waypoint between two arc midpoints, clear of branch points."""
    q = 0.5 * (m0 + m1)
    L = abs(m1 - m0)
    floor = 10 * curve.clearance()
    for d in (0.4 * L, -0.4 * L, 0.8 * L, -0.8 * L, 1.6 * L, -1.6 * L):
        p = q + 1j * d
        if all(min(_segment_distance(m0, p, r), _segment_distance(p, m1, r))
               >= floor for r in curve.branch_points):
            return p
    raise AssertionError("no clear detour between arc midpoints")


def sqrt_determination(curve, plan):
    """Per-arc signs, relative to each arc's midpoint principal anchor, of
    the determination of sqrt(P) fixed by the anchor on the first finite
    arc and continued arc to arc along waypoints between midpoints."""
    finite = [i for i, a in enumerate(plan.arcs) if a is not None]
    mids = {i: 0.5 * (plan.arcs[i].start + plan.arcs[i].end) for i in finite}
    anchors = {i: _principal_anchor(curve.branch_points, mids[i]) for i in finite}
    table = {finite[0]: 1}
    for prev, i in zip(finite[:-1], finite[1:]):
        p = _detour_point(curve, mids[prev], mids[i])
        rel = _track_along_polyline(
            curve, [mids[prev], p, mids[i]], table[prev] * anchors[prev]
        ) / anchors[i]
        assert abs(abs(rel) - 1) <= 1e-6, "branch tracking lost unit magnitude"
        table[i] = 1 if rel.real > 0 else -1
    return table


def test_sqrt_determination_chain():
    curve = genus2_curve()
    plan = build_cycles(curve, LAYOUT_GENUS2)
    table = sqrt_determination(curve, plan)
    # the midpoint principal branch is already the continuous one on the
    # real arcs of an M-curve
    assert table == {0: 1, 1: 1, 2: 1, 3: 1}


def test_period_matrix_genus2_fixture():
    curve = genus2_curve()
    plan = build_cycles(curve, LAYOUT_GENUS2)
    Z = period_matrix(curve, plan)
    assert np.abs(Z - Z1).max() < 1e-6


def test_period_matrix_cover_fixture():
    curve = cover_curve()
    plan = build_cycles(curve, LAYOUT_COVER)
    Zhat = period_matrix(curve, plan)
    assert np.abs(Zhat - ZHAT1).max() < 1e-6


def test_period_ratio_elliptic():
    curve = elliptic_curve()
    plan = build_cycles(curve, LAYOUT_ELLIPTIC)
    Z = period_matrix(curve, plan)
    assert abs(Z[0, 0] - 1j) < 1e-9
    pair = period_matrices(curve, plan)
    expected = math.pi / (math.sqrt(2.0) * agm(1.0, 1.0 / math.sqrt(2.0)))
    assert abs(abs(pair.A[0, 0]) - expected) < 1e-10
    assert abs(abs(pair.B[0, 0]) - expected) < 1e-10
