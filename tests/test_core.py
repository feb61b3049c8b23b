import math

import numpy as np
import pytest

from sloopt.core import (CountingOracle, EvaluationError, SloConfig,
                         Subroutine, as_vector, check_finite,
                         finite_diff_gradient)
from sloopt.problems import QuadraticProblem, QuarticProblem


def test_as_vector_shapes():
    v = as_vector([1.0, 2.0])
    assert v.dtype == np.float64 and v.shape == (2,)
    with pytest.raises(ValueError):
        as_vector(np.ones((2, 2)))


def test_check_finite_rejects_nan():
    with pytest.raises(EvaluationError):
        check_finite(np.array([1.0, np.nan]), "x")


def test_counting_oracle_memoizes_repeat_queries():
    oracle = CountingOracle(QuadraticProblem(3))
    x = np.array([1.0, 2.0, 3.0])
    g1 = oracle.gradient(x)
    g2 = oracle.gradient(x)
    assert oracle.grad_evals == 1
    np.testing.assert_array_equal(g1, g2)
    oracle.gradient(x + 1.0)
    oracle.gradient(x)  # memo only remembers the latest point
    assert oracle.grad_evals == 3


def test_counting_oracle_memo_is_read_only():
    oracle = CountingOracle(QuadraticProblem(2))
    x = np.array([1.0, 2.0])
    g = oracle.gradient(x)
    with pytest.raises(ValueError):
        g[0] = 5.0
    np.testing.assert_array_equal(oracle.gradient(x), [1.0, 2.0])
    assert oracle.grad_evals == 1


def test_finite_diff_matches_quadratic():
    p = QuadraticProblem(4)
    x = np.array([0.5, -1.0, 2.0, 0.0])
    np.testing.assert_allclose(finite_diff_gradient(p, x, 1e-6), x, atol=1e-8)


def test_config_gp_requires_zero_margin():
    with pytest.raises(ValueError):
        SloConfig(epsilon=1e-6, radius_D=0.1, margin_d=0.01,
                  subroutine=Subroutine.GP)
    SloConfig(epsilon=1e-6, radius_D=0.1, margin_d=0.0, subroutine=Subroutine.GP)


def test_config_ngd_margin_floor():
    eps = 1e-6
    root = math.sqrt(eps)
    with pytest.raises(ValueError):
        SloConfig(epsilon=eps, radius_D=1.0, margin_d=root / 2,
                  subroutine=Subroutine.NGD)
    SloConfig(epsilon=eps, radius_D=root / 2 + 2 * root, margin_d=root,
              subroutine=Subroutine.NGD)


def test_config_ls_requires_ball_equal_margin():
    with pytest.raises(ValueError):
        SloConfig(epsilon=1e-6, radius_D=0.5, margin_d=0.4,
                  subroutine=Subroutine.LS, ls_delta_bar=0.5)
    SloConfig(epsilon=1e-6, radius_D=0.5, margin_d=0.5,
              subroutine=Subroutine.LS, ls_delta_bar=0.5)


def test_config_agp_margin_tied_to_epsilon():
    eps = 1e-6
    d = 2 * eps ** 0.25
    SloConfig(epsilon=eps, radius_D=6 * eps ** 0.25, margin_d=d,
              subroutine=Subroutine.AGP)
    with pytest.raises(ValueError):
        SloConfig(epsilon=eps, radius_D=6 * eps ** 0.25, margin_d=d * 1.5,
                  subroutine=Subroutine.AGP)


def test_config_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError):
        SloConfig(epsilon=0.0, radius_D=0.1, margin_d=0.0,
                  subroutine=Subroutine.GP)


def test_quartic_growth_bounds_dominate_true_constants():
    p = QuarticProblem(2)
    # on B(0, r) the Hessian norm is 3 r^2 and third derivative 6 r
    for r in (0.5, 1.0, 2.0):
        assert p.growth1(r) >= 3 * r * r - 1e-12
        assert p.growth2(r) >= 6 * r - 1e-12
