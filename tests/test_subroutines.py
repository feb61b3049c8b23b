import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloopt.core import CountingOracle, EvaluationError, ObjectiveOracle, project_ball
from sloopt.problems import LinearProblem, QuadraticProblem, QuarticProblem
from sloopt.subroutines import (MAX_BACKTRACKS, BacktrackBudgetError, DirectionError,
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
    ("delta_bar", 0.0), ("delta_bar", -1.0), ("delta_bar", float("inf")), ("alpha", 0.0),
    ("alpha", 1.5)])
def test_ls_params_reject_constants_out_of_range(name, value):
    with pytest.raises(ValueError, match="LsParams needs"):
        LsParams(**{name: value})


def test_ls_params_accept_the_closed_ends():
    params = LsParams(sigma=0.1, alpha=1.0)
    out, delta, backtracks = a_ls(quad(1), np.array([1.0]), np.array([-1.0]), params)
    assert (delta, backtracks) == (1.0, 0) and out[0] == 0.0


class _Quadratic(ObjectiveOracle):
    """f(x) = x^T A x / 2."""

    def __init__(self, a):
        self.a, self.dim = a, len(a)

    def value(self, x):
        return float(0.5 * x @ (self.a @ x))

    def gradient(self, x):
        return self.a @ x


unit = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
           st.lists(st.lists(unit, min_size=n, max_size=n), min_size=n, max_size=n),
           st.lists(unit, min_size=n, max_size=n).filter(lambda u: max(map(abs, u)) >= 0.5))),
       st.floats(0.01, 0.99), st.floats(0.1, 10.0))
def test_ls_from_any_start_index_matches_the_default_start_on_convex_quadratics(
        problem, sigma, delta_bar):
    # Along -grad of a convex quadratic, Armijo acceptance is monotone in the step: every
    # step up to a threshold passes, every longer one fails. The computed test is monotone
    # too while the steps stay far above the rounding of x; x within delta_bar * 2^-20 of
    # the minimum keeps the shortest step, delta_bar * 2^-60, 2^40 times above it.
    m, u = (np.array(v) for v in problem)
    oracle = CountingOracle(_Quadratic(m @ m.T + 0.25 * np.eye(len(u))))
    x = u * (delta_bar * 2.0**-20)
    g = oracle.gradient(x)
    params = LsParams(sigma=sigma, delta_bar=delta_bar)
    point, delta, j = a_ls(oracle, x, -g, params, grad=g)
    for k in range(61):
        warm, warm_delta, warm_j = a_ls(oracle, x, -g, params, grad=g, j_start=k)
        assert (warm.tobytes(), warm_delta, warm_j) == (point.tobytes(), delta, j), k


class _Bump(ObjectiveOracle):
    """x^2/2 with a narrow bump at 0.75 that fails the Armijo test from x = 1 at step 0.25."""

    dim = 1

    def value(self, x):
        return float(0.5 * x[0] ** 2 + math.exp(-((x[0] - 0.75) / 0.01) ** 2))

    def gradient(self, x):
        return np.array([x[0]])  # exact wherever the bump is below rounding, as at x = 1


def test_ls_search_may_accept_another_step_where_armijo_is_not_monotone():
    # from x = 1 along d = -1 the grid steps are 1, 0.5, 0.25, 0.125, ...; all pass but 0.25
    oracle, x = CountingOracle(_Bump()), np.array([1.0])
    params = LsParams(sigma=0.5, delta_bar=1.0)
    g = oracle.gradient(x)
    d = -g
    _, delta, j = a_ls(oracle, x, d, params, grad=g)
    assert (delta, j) == (1.0, 0)
    out, delta, j = a_ls(oracle, x, d, params, grad=g, j_start=3)
    assert (delta, j) == (0.125, 3) and out[0] == 0.875  # step 0.25 fails, so it stops
    # the point passes the test with exactly the arithmetic of a_ls
    assert oracle.value(out) <= oracle.value(x) + params.sigma * delta * float(g.dot(d))


class _Stubborn(QuadraticProblem):
    def value(self, x):  # never below the Armijo line along d = 1
        return float(x[0])

    def gradient(self, x):
        return np.array([-1.0])


@pytest.mark.parametrize("k", [0, 1, 7, 10])
def test_ls_search_from_any_start_gives_up_at_the_last_grid_index(monkeypatch, k):
    monkeypatch.setattr("sloopt.subroutines.MAX_BACKTRACKS", 10)
    params = LsParams(sigma=0.9, theta=0.5, delta_bar=1.0, alpha=1.0)
    with pytest.raises(BacktrackBudgetError) as from_zero:
        a_ls(CountingOracle(_Stubborn(1)), np.array([1.0]), np.array([1.0]), params)
    oracle = CountingOracle(_Stubborn(1))
    with pytest.raises(BacktrackBudgetError) as warm:
        a_ls(oracle, np.array([1.0]), np.array([1.0]), params, f_x=1.0, j_start=k)
    assert warm.value.last_delta.hex() == from_zero.value.last_delta.hex() == (2.0**-10).hex()
    assert oracle.value_evals == 10 + 1 - k  # one trial per grid index k .. 10


@pytest.mark.parametrize("j_start", [-1, MAX_BACKTRACKS + 1, 1.0, "1", math.nan, None, True])
def test_ls_rejects_a_start_index_off_the_grid(j_start):
    oracle = quad(1)
    with pytest.raises(ValueError, match=rf"j_start must be an int in \[0, {MAX_BACKTRACKS}\], got"):
        a_ls(oracle, np.array([1.0]), np.array([-1.0]), LsParams(), j_start=j_start)
    assert oracle.value_evals == 0


# a_gp reads the finiteness of x and of x+ off their distances to the center, and a_ls that of
# the direction off its norm; a scan runs only when that number is not finite. An oracle
# without ``_at`` (``_Quadratic``) makes no check of its own that could hide a missing scan.
BAD = [(bad, i) for bad in (math.nan, math.inf, -math.inf) for i in (0, 2, 4)]


def _with(bad, i, base=None):
    v = np.full(5, 0.1) if base is None else base.copy()
    v[i] = bad
    return v


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("certified", [False, True], ids=["analytic", "certified"])
@pytest.mark.parametrize("bad, i", BAD)
def test_gp_rejects_a_non_finite_start_before_any_evaluation(certified, bad, i):
    oracle = CountingOracle(_Quadratic(np.eye(5)))
    with pytest.raises(EvaluationError, match="^vector contains NaN or infinite entries$"):
        a_gp(oracle, _with(bad, i), np.zeros(5), 0.5, 1.0, grad=np.full(5, 0.1),
             f_x=0.0 if certified else None)
    assert (oracle.grad_evals, oracle.value_evals) == (0, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("i", [0, 2, 4])
def test_gp_rejects_a_nan_step(i):
    with pytest.raises(EvaluationError, match="^a_gp output contains NaN or infinite entries$"):
        a_gp(_Quadratic(np.eye(5)), np.zeros(5), np.zeros(5), 0.5, 1.0,
             grad=_with(math.nan, i))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad, i", BAD)
def test_ls_rejects_a_non_finite_direction_before_any_evaluation(bad, i):
    oracle = CountingOracle(_Quadratic(np.eye(5)))
    with pytest.raises(EvaluationError, match="^vector contains NaN or infinite entries$"):
        a_ls(oracle, np.full(5, 0.1), _with(bad, i, np.full(5, -0.1)), LsParams(),
             grad=np.full(5, 0.1), f_x=0.025)
    assert (oracle.grad_evals, oracle.value_evals) == (0, 0)


def test_gp_and_ls_on_finite_inputs_whose_distance_overflows():
    # ||(1e200, ...)||^2 overflows: numpy warns, the distance is inf, and the scan that follows
    # passes, so each call raises or returns what the unfolded checks gave
    huge, zero = np.full(5, 1e200), np.zeros(5)
    for f_x in (None, 0.0):
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            with pytest.raises(ValueError, match=r"^a_gp requires x inside B\(center, r\)$"):
                a_gp(quad(5), huge, zero, 0.5, 1.0, grad=zero, f_x=f_x)
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            out = a_gp(quad(5), zero, zero, 1.0, 1.0, grad=-huge, f_x=f_x)  # x+ = huge
        # projecting by the factor 1/inf = 0 returns the center
        assert _bits_of(out) == ((zero.tobytes(), 1.0) if f_x is not None else zero.tobytes())
    x = np.ones(5)
    with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
        out, delta, j = a_ls(quad(5), x, -huge, LsParams(), grad=x, f_x=2.5)
    assert (out.tobytes(), delta, j) == (x.tobytes(), 0.0, 0)  # the cap 1/||d|| is 0


def _bits_of(out):
    return (out[0].tobytes(), out[1]) if isinstance(out, tuple) else out.tobytes()


def _gp_reference(oracle, x, center, eta, r, g, f_x):
    """The step a_gp makes, from its definition: halve eta until x+ certifies descent; None
    when no halving does."""
    for _ in range(MAX_BACKTRACKS + 1):
        out = project_ball(x - eta * g, center, r)[0]
        if f_x is None:
            return out
        move = out - x
        if f_x - oracle.value(out) >= move.dot(move) / (2.0 * eta):
            return out, eta
        eta /= 2.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
           st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n),   # center
           st.lists(unit, min_size=n, max_size=n),                   # direction of x from it
           st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))),  # gradient
       st.floats(0.05, 3.0), st.sampled_from(["inside", "on", "just outside"]),
       st.floats(0.0, 1.0), st.floats(1e-3, 10.0), st.booleans())
def test_gp_returns_the_projected_step_bit_for_bit(vectors, r, where, frac, eta, certified):
    center, u, g = (np.array(v) for v in vectors)
    u = u / n if (n := np.linalg.norm(u)) > 0 else np.eye(u.size)[0]
    scale = {"inside": frac, "on": 1.0, "just outside": 1 + 5e-13}[where]
    x = center + (r * scale) * u
    oracle = _Quadratic(np.eye(x.size))
    f_x = oracle.value(x) if certified else None
    expect = _gp_reference(oracle, x, center, eta, r, g, f_x)
    if expect is None:  # g is no gradient of f here, and no halving certified the step
        with pytest.raises(BacktrackBudgetError):
            a_gp(oracle, x, center, eta, r, grad=g, f_x=f_x)
    else:
        assert _bits_of(a_gp(oracle, x, center, eta, r, grad=g, f_x=f_x)) == _bits_of(expect)


# a_ng scans x before anything is evaluated when it has no grad, or one whose norm is not finite;
# given a grad with a finite norm, it scans only its output, and x only when that scan fails
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", [1.0, 1e-3], ids=["gd-step", "normalized-step"])
@pytest.mark.parametrize("with_grad", [False, True], ids=["oracle", "grad"])
@pytest.mark.parametrize("bad, i", BAD)
def test_ng_rejects_a_non_finite_start_before_any_evaluation(with_grad, d, bad, i):
    oracle = CountingOracle(_Quadratic(np.eye(5)))
    with pytest.raises(EvaluationError, match="^vector contains NaN or infinite entries$"):
        a_ng(oracle, _with(bad, i), 1.0, d, grad=np.full(5, 0.1) if with_grad else None)
    assert (oracle.grad_evals, oracle.value_evals) == (0, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad, i", BAD)
def test_ng_scans_the_start_first_when_the_gradient_is_not_finite(bad, i):
    # ||grad|| = inf would make the step (d/inf) * inf = nan, with numpy's invalid-value warning
    with pytest.raises(EvaluationError, match="^vector contains NaN or infinite entries$"):
        a_ng(_Quadratic(np.eye(5)), _with(bad, i), 1.0, 1e-3, grad=_with(math.inf, 4 - i))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("i", [0, 2, 4])
def test_ng_rejects_a_nan_gradient_in_its_output(i):
    # ||grad|| = nan takes the normalized branch, whose step (d/nan) * grad is nan
    with pytest.raises(EvaluationError, match="^a_ng output contains NaN or infinite entries$"):
        a_ng(_Quadratic(np.eye(5)), np.full(5, 0.1), 1.0, 1.0, grad=_with(math.nan, i))


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_ng_rejects_an_infinite_gradient_in_its_output(bad):
    # ||grad|| = inf makes the step (d/inf) * grad, and 0 * inf is nan
    with pytest.warns(RuntimeWarning, match="invalid value encountered in multiply"):
        with pytest.raises(EvaluationError, match="^a_ng output contains NaN or infinite entries$"):
            a_ng(_Quadratic(np.eye(5)), np.full(5, 0.1), 1.0, 1.0, grad=_with(bad, 2))


def test_ng_on_finite_inputs_whose_norm_or_step_overflows():
    huge, zero = np.full(5, 1e200), np.zeros(5)
    # ||grad|| = inf: the step d/inf * grad is 0
    for x in (zero, huge):
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            assert a_ng(quad(5), x, 1.0, 1.0, grad=-huge).tobytes() == x.tobytes()
    # d = inf keeps the GD step, and x - grad = 2e308 overflows
    with pytest.warns(RuntimeWarning) as record:
        with pytest.raises(EvaluationError, match="^a_ng output contains NaN or infinite entries$"):
            a_ng(quad(5), np.full(5, 1e308), 1.0, math.inf, grad=np.full(5, -1e308))
    assert [str(w.message) for w in record] == ["overflow encountered in dot",
                                                "overflow encountered in subtract"]
