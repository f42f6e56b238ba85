import math

import numpy as np
import pytest

from w9periods.errors import AccuracyError, ParameterError
from w9periods.quadrature import (DEFAULT_QUAD, QuadConfig, chebyshev_nodes,
                                  integrate_levels, tanh_sinh_nodes)


def test_config_validation():
    with pytest.raises(ParameterError):
        QuadConfig(tol=0)


def test_config_rejects_non_finite_tol():
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            QuadConfig(tol=bad)


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


def test_smooth_integral():
    def eval_terms(level):
        u, _, _, w = tanh_sinh_nodes(level)
        return np.array([np.sum(w * np.cos(u))])

    val = integrate_levels(eval_terms, DEFAULT_QUAD)[0]
    assert abs(val - 2.0 * math.sin(1.0)) < 1e-13


def test_inverse_sqrt_endpoint_singularities():
    # integral of 1/sqrt(1-u^2) over [-1, 1] is pi; the endpoint factors
    # come from the stable 1 -+ u quantities
    def eval_terms(level):
        _, one_minus, one_plus, w = tanh_sinh_nodes(level)
        return np.array([np.sum(w / np.sqrt(one_minus * one_plus))])

    val = integrate_levels(eval_terms, DEFAULT_QUAD)[0]
    assert abs(val - math.pi) < 1e-12


def test_nonconvergent_raises():
    rng = np.random.default_rng(0)

    def eval_terms(level):
        return np.array([rng.normal()])

    with pytest.raises(AccuracyError):
        integrate_levels(eval_terms, QuadConfig(tol=1e-13))
