import math

import numpy as np
import pytest

from w9periods.quadrature import (PANEL_NODES, QUARTER, chebyshev_nodes,
                                  graded_nodes, tanh_sinh_nodes)


def test_nodes_structure():
    u, one_minus, one_plus, w = tanh_sinh_nodes(5)
    assert len(u) % 2 == 1
    mid = len(u) // 2
    assert u[mid] == 0.0
    # u saturates to +-1 in floating point at the extreme nodes, but the
    # stable endpoint quantities never vanish or overflow
    assert np.all(np.diff(u) >= 0)
    assert np.all(np.diff(one_minus) <= 0)
    assert np.all(np.diff(one_plus) >= 0)
    assert np.all(one_minus > 0) and np.all(one_plus > 0)
    assert one_minus.min() < 1e-40 and one_plus.min() < 1e-40
    assert np.abs(one_minus - (1.0 - u)).max() < 1e-15
    assert np.abs(one_plus - (1.0 + u)).max() < 1e-15
    assert np.all(w > 0)


def test_levels_nest():
    # the nodes of level L are the even-indexed nodes of level L+1 and the
    # weights halve with the step, bit for bit: the nested refinement in
    # periods.arc_integrals evaluates only the odd nodes of each new level
    for level in range(5, 12):
        u, one_minus, one_plus, w = tanh_sinh_nodes(level)
        u1, one_minus1, one_plus1, w1 = tanh_sinh_nodes(level + 1)
        assert len(u1) == 2 * len(u) - 1
        assert np.array_equal(u, u1[::2])
        assert np.array_equal(one_minus, one_minus1[::2])
        assert np.array_equal(one_plus, one_plus1[::2])
        assert np.array_equal(w, 2 * w1[::2])


@pytest.mark.parametrize("n", [8, 33, 553])
def test_chebyshev_nodes(n):
    one_minus, one_plus = chebyshev_nodes(n)
    u = np.cos((2 * np.arange(1, n + 1) - 1) * math.pi / (2 * n))
    assert np.abs(one_plus - (1.0 + u)).max() < 1e-15
    assert np.abs(one_minus - (1.0 - u)).max() < 1e-15
    # stable at the end nodes: 1 -+ u = 2 sin^2(pi / (4n)) to rounding at u_1, u_n
    end = 2 * math.sin(math.pi / (4 * n)) ** 2
    assert abs(one_minus[0] / end - 1) < 1e-15 and abs(one_plus[-1] / end - 1) < 1e-15
    # exact for u^(2i), i < n: integral of u^(2i) / sqrt(1 - u^2) is
    # pi (2i)! / (2^i i!)^2
    for i in range(4):
        exact = math.pi * math.factorial(2 * i) / (2**i * math.factorial(i)) ** 2
        assert abs(math.pi / n * np.sum((one_plus - 1.0) ** (2 * i)) - exact) < 1e-14


def test_weights_integrate_constant():
    # integral of 1 over [-1, 1]
    _, _, _, w = tanh_sinh_nodes(7)
    assert abs(w.sum() - 2.0) < 1e-13


@pytest.mark.parametrize("depth", [0, 1, 7, 30])
def test_graded_nodes(depth):
    phi, w = graded_nodes(depth)
    assert len(phi) == len(w) == PANEL_NODES * (depth + 1)
    assert np.all(np.diff(phi) > 0) and 0 < phi[0] and phi[-1] < QUARTER
    assert np.all(w > 0) and abs(w.sum() - QUARTER) < 1e-15
    # the first panel is [0, 2^-depth pi/4], its nodes in full relative accuracy
    first = phi[:PANEL_NODES] * 2.0**depth
    assert np.abs(first - graded_nodes(0)[0][:PANEL_NODES]).max() < 1e-16
    assert graded_nodes(depth) is graded_nodes(depth)  # cached


def test_smooth_integral():
    # each panel's rule is exact to rounding on an entire integrand:
    # integral of cos over [0, pi/4]
    for depth in (0, 5):
        phi, w = graded_nodes(depth)
        assert abs(np.sum(w * np.cos(phi)) - math.sin(QUARTER)) < 1e-15


def test_inverse_sqrt_endpoint_singularities():
    # integral of 1 / sqrt(phi + i eps) over [0, pi/4], a branch point eps
    # from the end the panels grade toward: depth ceil(log2(pi / (4 eps)))
    # puts a first panel no wider than eps there
    for eps in (1e-3, 1e-9):
        depth = math.ceil(math.log2(QUARTER / eps))
        phi, w = graded_nodes(depth)
        got = np.sum(w / np.sqrt(phi + 1j * eps))
        exact = 2 * (np.sqrt(QUARTER + 1j * eps) - np.sqrt(1j * eps))
        assert abs(got - exact) < 1e-15 * abs(exact)
