import math

import numpy as np
import pytest

from sloopt.core import CountingOracle
from sloopt.problems import LinearProblem, QuadraticProblem, QuarticProblem
from sloopt.subroutines import (BacktrackBudgetError, DirectionError,
                                LsParams, a_gp, a_ls, a_ng)


def quad(dim=1):
    return CountingOracle(QuadraticProblem(dim))


def test_gp_interior_step_is_plain_gradient_descent():
    p = quad(2)
    x = np.array([0.1, 0.0])
    out = a_gp(p, x, np.zeros(2), eta=0.5, r=1.0)
    np.testing.assert_allclose(out, [0.05, 0.0])


def test_gp_projects_radially_onto_the_ball():
    p = quad(1)
    # overlong step from inside the ball B(1, 0.6): candidate 0.5 - 10*0.5
    # lands far outside and is pulled back to the near boundary point 0.4
    out = a_gp(p, np.array([0.5]), np.array([1.0]), eta=10.0, r=0.6)
    np.testing.assert_allclose(out, [0.4])
    assert abs(np.linalg.norm(out - 1.0) - 0.6) < 1e-15


def test_gp_rejects_start_outside_ball():
    p = quad(1)
    with pytest.raises(ValueError):
        a_gp(p, np.array([3.0]), np.zeros(1), eta=0.1, r=1.0)


@pytest.mark.parametrize("eta, r", [(0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, -1.0),
                                    (math.nan, 1.0), (0.1, math.nan)])
def test_gp_rejects_a_step_or_radius_that_is_not_positive(eta, r):
    with pytest.raises(ValueError) as info:
        a_gp(quad(1), np.zeros(1), np.zeros(1), eta=eta, r=r)
    assert str(info.value) == "eta and r must be positive"


def test_gp_with_f_x_halves_eta_until_the_step_certifies_descent():
    # f = x^2/2 (L = 1) from x = 1: eta = 4 is projected to x+ = -2, eta = 2
    # lands on x+ = -1 with no descent, and eta = 1 reaches 0, certified with equality
    p = quad(1)
    out, eta = a_gp(p, np.array([1.0]), np.zeros(1), eta=4.0, r=2.0, f_x=0.5)
    assert (out.tolist(), eta, p.value_evals) == ([0.0], 1.0, 3)


def test_gp_descent_test_gives_up_after_200_halvings():
    # f = x and f_x = f(0) - 1: with ||grad|| r < 1 no step in the ball makes up for it
    p = CountingOracle(LinearProblem([1.0]))
    with pytest.raises(BacktrackBudgetError, match="descent condition") as exc:
        a_gp(p, np.zeros(1), np.zeros(1), eta=1.0, r=0.5, f_x=-1.0)
    assert exc.value.n_backtracks == 200 and p.value_evals == 201
    assert exc.value.last_delta == 2.0**-200  # the last stepsize tried


def test_ng_gd_branch_when_gradient_small():
    p = quad(1)
    # |grad| = 0.5 <= l1 * d = 1 * 1 -> plain GD step with stepsize 1/l1
    out = a_ng(p, np.array([0.5]), l1=1.0, d=1.0)
    np.testing.assert_allclose(out, [0.0])


def test_ng_normalized_branch_when_gradient_large():
    p = quad(1)
    out = a_ng(p, np.array([5.0]), l1=1.0, d=0.1)
    # step of length exactly d against the gradient
    np.testing.assert_allclose(out, [4.9])


def test_ng_zero_gradient_returns_same_point():
    p = quad(2)
    out = a_ng(p, np.zeros(2), l1=1.0, d=0.1)
    np.testing.assert_array_equal(out, np.zeros(2))


@pytest.mark.parametrize("l1, d", [(0.5, 0.1), (math.inf, 0.1), (math.nan, 0.1), (1.0, 0.0),
                                   (1.0, -0.1), (1.0, math.nan)])
def test_ng_rejects_an_l1_below_one_or_a_length_that_is_not_positive(l1, d):
    with pytest.raises(ValueError) as info:
        a_ng(quad(1), np.array([5.0]), l1=l1, d=d)
    assert str(info.value) == "require a finite l1 >= 1 and d > 0"


def test_ls_backtracking_hand_example():
    # f = x^2/2, x = 1, d = -grad = -1, sigma = 0.9, theta = 0.5:
    # deltas 1, 0.5, 0.25 fail the sufficient decrease test, 0.125 passes
    p = quad(1)
    params = LsParams(sigma=0.9, theta=0.5, delta_bar=1.0, alpha=1.0)
    out, delta, n_backtracks = a_ls(p, np.array([1.0]), np.array([-1.0]), params)
    assert delta == 0.125
    assert n_backtracks == 3
    np.testing.assert_allclose(out, [0.875])


def test_ls_with_given_value_evaluates_only_trial_points():
    # the hand example again, with f(x) passed in: one value per trial point
    p = quad(1)
    params = LsParams(sigma=0.9, theta=0.5, delta_bar=1.0, alpha=1.0)
    _, _, n_backtracks = a_ls(p, np.array([1.0]), np.array([-1.0]), params, f_x=0.5)
    assert p.value_evals == 1 + n_backtracks == 4


def test_ls_step_length_capped_by_delta_bar():
    p = quad(1)
    params = LsParams(sigma=0.1, theta=0.5, delta_bar=0.3, alpha=1.0)
    direction = np.array([-7.0])  # non-unit direction: cap is delta_bar/||d||
    out, delta, _ = a_ls(p, np.array([1.0]), direction, params)
    assert delta * np.linalg.norm(direction) <= 0.3 + 1e-15


def test_ls_accepted_step_satisfies_armijo_exactly():
    p = CountingOracle(QuarticProblem(1))
    params = LsParams(sigma=0.9, theta=0.5, delta_bar=1.0, alpha=1.0)
    x = np.array([1.3])
    g = p.gradient(x)
    out, delta, _ = a_ls(p, x, -g, params, grad=g)
    # identical arithmetic to the acceptance test inside a_ls
    assert p.base.value(x + delta * -g) <= p.base.value(x) + \
        params.sigma * delta * float(np.dot(g, -g))


def test_ls_rejects_non_descent_direction():
    p = quad(1)
    params = LsParams()
    with pytest.raises(DirectionError):
        a_ls(p, np.array([1.0]), np.array([1.0]), params)  # uphill


def test_ls_rejects_insufficiently_aligned_direction():
    p = quad(2)
    params = LsParams(alpha=1.0)
    # orthogonal-ish direction: <g, d> = -1 but ||g|| ||d|| = sqrt(2)
    with pytest.raises(DirectionError):
        a_ls(p, np.array([1.0, 0.0]), np.array([-1.0, 1.0]), params)


def test_ls_backtrack_budget_error(monkeypatch):
    class Stubborn(QuadraticProblem):
        def value(self, x):  # never below the Armijo line
            return float(x[0])

        def gradient(self, x):
            return np.array([-1.0])

    monkeypatch.setattr("sloopt.subroutines.MAX_BACKTRACKS", 10)
    params = LsParams(sigma=0.9, theta=0.5, delta_bar=1.0, alpha=1.0)
    with pytest.raises(BacktrackBudgetError) as exc:
        a_ls(CountingOracle(Stubborn(1)), np.array([1.0]), np.array([1.0]),
             params)
    assert exc.value.n_backtracks == 10 and exc.value.last_delta == 2.0**-10


def test_ls_zero_direction_rejected():
    with pytest.raises(DirectionError):
        a_ls(quad(1), np.array([1.0]), np.zeros(1), LsParams())


@pytest.mark.parametrize("name, value", [
    ("sigma", 0.0), ("sigma", 1.0), ("sigma", float("nan")), ("theta", 0.0), ("theta", 1.0),
    ("delta_bar", 0.0), ("delta_bar", -1.0), ("alpha", 0.0), ("alpha", 1.5)])
def test_ls_params_reject_constants_out_of_range(name, value):
    with pytest.raises(ValueError, match="LsParams needs"):
        LsParams(**{name: value})


def test_ls_params_accept_the_closed_ends():
    params = LsParams(sigma=0.1, alpha=1.0)
    out, delta, backtracks = a_ls(quad(1), np.array([1.0]), np.array([-1.0]), params)
    assert (delta, backtracks) == (1.0, 0) and out[0] == 0.0
