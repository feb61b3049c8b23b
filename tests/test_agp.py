import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sloopt.agp as agp_mod
import sloopt.slo as slo_mod
from sloopt import harness
from sloopt.agp import (AgpError, AgpRegion, AugmentedOracle, UpgOutcome, a_agp, agp_upg,
                        find_nc_pair)
from sloopt.core import (CountingOracle, EvaluationError, ObjectiveOracle, SloConfig,
                         Subroutine, Termination)
from sloopt.problems import (LinearProblem, NegQuadraticProblem, QuadraticProblem,
                             QuarticProblem, generate_planted_tensor, uniform_init)
from sloopt.subroutines import MAX_BACKTRACKS, BacktrackBudgetError


class GeneralQuadratic(ObjectiveOracle):
    """f(x) = 0.5 x' H x for a symmetric H."""

    def __init__(self, h):
        self.h = np.asarray(h, dtype=float)
        self.dim = self.h.shape[0]

    def value(self, x):
        return float(0.5 * x @ self.h @ x)

    def gradient(self, x):
        return self.h @ x


def random_spd_quadratic(rng, dim, lo, hi):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(lo, hi, dim)
    return GeneralQuadratic((q * eigs) @ q.T)


def nc_gap(f_hat, u, v, alpha):
    """f(u) - tangent-plus-alpha bound at v; negative means an NC witness."""
    d = u - v
    return f_hat.value(u) - (f_hat.value(v) + float(f_hat.gradient(v) @ d)
                             + 0.5 * alpha * float(d @ d))


def test_augmented_oracle_value_and_gradient():
    base = QuadraticProblem(2)
    f_hat = AugmentedOracle(base, np.array([1.0, 0.0]), 0.5)
    x = np.array([2.0, 1.0])
    assert f_hat.value(x) == 0.5 * 5 + 0.5 * (1 + 1)
    np.testing.assert_allclose(f_hat.gradient(x), [2 + 1.0, 1 + 1.0])


def test_augmented_oracle_over_counting_oracle_is_exact_and_validates():
    xbar, alpha = np.array([0.3, -0.2, 0.1]), 0.7
    f_hat = AugmentedOracle(CountingOracle(QuarticProblem(3)), xbar, alpha)
    rng = np.random.default_rng(5)
    for x in rng.standard_normal((5, 3)):
        d = x - xbar
        assert f_hat.value(x) == QuarticProblem(3).value(x) + alpha * float(np.dot(d, d))
        expect = QuarticProblem(3).gradient(x) + 2.0 * alpha * d
        assert f_hat.gradient(x).tobytes() == expect.tobytes()
    bad = np.array([0.1, np.nan, 0.2])
    with pytest.raises(EvaluationError):
        f_hat.value(bad)
    with pytest.raises(EvaluationError):
        f_hat.gradient(bad)


def test_region_membership_and_projection():
    region = AgpRegion(np.zeros(2), 1.0)
    assert region.is_interior(np.array([0.5, 0.0]))
    assert not region.is_interior(np.array([1.0, 0.0]))
    out = region.project(np.array([3.0, 4.0]))
    np.testing.assert_allclose(out, [0.6, 0.8])
    assert region.on_boundary(out)


def test_no_nc_pair_on_strongly_convex_quadratics():
    # alpha below every eigenvalue: no violation of alpha-convexity exists
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = random_spd_quadratic(rng, 3, 0.5, 2.0)
        pts = [rng.standard_normal(3) for _ in range(4)]
        w = rng.standard_normal(3)
        assert find_nc_pair(f, pts, pts[::-1], w, alpha=0.4) is None


def test_nc_pair_found_on_concave_quadratic():
    f = NegQuadraticProblem(2)
    x_hist = [np.zeros(2), np.array([0.1, 0.0])]
    y_hist = [np.zeros(2), np.array([0.2, 0.0])]
    pair = find_nc_pair(f, x_hist, y_hist, np.array([0.5, 0.0]), alpha=0.1)
    assert pair is not None
    u, v = pair
    assert nc_gap(f, u, v, 0.1) < 0


class CallLog(ObjectiveOracle):
    """Passes calls to ``base``, logs every point where value is asked and counts
    gradient calls."""

    def __init__(self, base):
        self.base, self.dim, self.points, self.grads = base, base.dim, [], 0

    def value(self, x):
        self.points.append(np.array(x))
        return self.base.value(x)

    def gradient(self, x):
        self.grads += 1
        return self.base.gradient(x)


def test_nc_pair_search_given_the_gradients_evaluates_none_and_finds_the_same_pair():
    rng = np.random.default_rng(3)
    found = 0
    for _ in range(50):
        h = rng.standard_normal((3, 3))
        f = CallLog(GeneralQuadratic(h + h.T))
        x_hist, y_hist = list(rng.standard_normal((2, 4, 3)))
        w, alpha = rng.standard_normal(3), rng.uniform(0.1, 2.0)
        pair = find_nc_pair(f, x_hist, y_hist, w, alpha)
        x_grads = [f.gradient(x) for x in x_hist]
        f.grads = 0
        pair_g = find_nc_pair(f, x_hist, y_hist, w, alpha, x_grads)
        assert f.grads == 0 and (pair is None) == (pair_g is None)
        if pair is not None:
            found += 1
            assert [v.tobytes() for v in pair] == [v.tobytes() for v in pair_g]
    assert 0 < found < 50


def test_nc_pair_search_given_the_values_evaluates_f_at_x_iterates_only():
    rng = np.random.default_rng(4)
    found = 0
    for _ in range(50):
        h = rng.standard_normal((3, 3))
        f = CallLog(GeneralQuadratic(h + h.T + 2.0 * np.eye(3)))
        x_hist, y_hist = (list(v) for v in rng.standard_normal((2, 4, 3)))
        x_hist[0] = y_hist[0]  # as in agp_upg, where both start at y0
        w, alpha = rng.standard_normal(3), rng.uniform(0.1, 2.0)
        pair = find_nc_pair(f, x_hist, y_hist, w, alpha)
        y_values, w_value = [f.base.value(y) for y in y_hist], f.base.value(w)
        f.points.clear()
        pair_v = find_nc_pair(f, x_hist, y_hist, w, alpha, None, y_values, w_value)
        assert all(any(np.array_equal(p, x) for x in x_hist[1:]) for p in f.points)
        assert (pair is None) == (pair_v is None)
        if pair is not None:
            found += 1
            assert [v.tobytes() for v in pair] == [v.tobytes() for v in pair_v]
    assert 0 < found < 50


class Concave1D(ObjectiveOracle):
    dim = 1

    def __init__(self, c):
        self.c = c

    def value(self, x):
        return float(-0.5 * self.c * x[0] ** 2)

    def gradient(self, x):
        return np.array([-self.c * x[0]])


def test_upg_flag4_on_concave_objective():
    out = agp_upg(Concave1D(0.2), AgpRegion(np.zeros(1), 100.0),
                  np.array([0.01]), eps_hat=1e-8, l1_hat=1.0, alpha=0.05)
    assert out.flag == 4
    assert nc_gap(Concave1D(0.2), out.nc_u, out.nc_v, 0.05) < 0


def test_upg_flag1_boundary_exit_with_descent():
    out = agp_upg(Concave1D(1.0), AgpRegion(np.zeros(1), 0.3),
                  np.array([0.01]), eps_hat=1e-8, l1_hat=1.0, alpha=0.05)
    assert out.flag == 1
    region = AgpRegion(np.zeros(1), 0.3)
    assert region.on_boundary(out.point_p)
    assert Concave1D(1.0).value(out.point_p) <= Concave1D(1.0).value(np.array([0.01]))


class ShellRidge(ObjectiveOracle):
    """Concave pull outward, but values jump up in the outer shell.

    The gradient everywhere is the concave one, so iterates still escape;
    the projected boundary point then shows no descent, which must force
    the NC-pair branch (flag 2).
    """

    dim = 1

    def __init__(self, c, ridge_from):
        self.c = c
        self.ridge_from = ridge_from

    def value(self, x):
        base = float(-0.5 * self.c * x[0] ** 2)
        if abs(x[0]) >= self.ridge_from:
            return base + 10.0
        return base

    def gradient(self, x):
        return np.array([-self.c * x[0]])


def test_upg_flag2_boundary_exit_without_descent():
    f = ShellRidge(1.0, ridge_from=0.299)
    out = agp_upg(f, AgpRegion(np.zeros(1), 0.3), np.array([0.01]),
                  eps_hat=1e-8, l1_hat=1.0, alpha=0.05)
    assert out.flag == 2
    assert nc_gap(f, out.nc_u, out.nc_v, 0.05) < 0


def test_upg_flag5_small_gradient():
    f = QuadraticProblem(2)
    out = agp_upg(f, AgpRegion(np.zeros(2), 5.0), np.array([0.3, -0.2]),
                  eps_hat=1e-6, l1_hat=1.0, alpha=0.5)
    assert out.flag == 5
    assert float(np.linalg.norm(f.gradient(out.point_p))) <= math.sqrt(1e-6) + 1e-12


def test_upg_iteration_count_within_bound():
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = random_spd_quadratic(rng, 3, 0.6, 0.9)
        y0 = rng.uniform(-0.3, 0.3, 3)
        out = agp_upg(f, AgpRegion(np.zeros(3), 50.0), y0,
                      eps_hat=1e-8, l1_hat=1.0, alpha=0.5)
        assert out.flag == 5
        if out.iter_bound is not None:
            assert out.iters_t <= out.iter_bound + 1


@pytest.mark.parametrize("f, radius, y0, l1_hat, alpha, flag", [
    # -0.5 x^2 from 0.01, 10 higher beyond 0.045: the second iterate, 0.053, rises
    (ShellRidge(1.0, ridge_from=0.045), 1.0, [0.01], 1.0, 0.05, 4),
    # the same beyond 0.299 in a region of radius 0.3: the boundary exit does not descend
    (ShellRidge(1.0, ridge_from=0.299), 0.3, [0.01], 1.0, 0.05, 2),
    # -0.5 x^2 from 0.1: y1 = 0.2 descends, but its gradient step z = 0.4 leaves the region
    (Concave1D(1.0), 0.3, [0.1], 1.0, 0.05, 3),
    (random_spd_quadratic(np.random.default_rng(1), 3, 0.6, 0.9), 50.0, [0.2, -0.1, 0.3],
     1.0, 0.5, 5)], ids=["increase", "boundary", "exit", "convex"])
def test_upg_witnesses_and_their_nc_pair_search(monkeypatch, f, radius, y0, l1_hat, alpha,
                                               flag):
    import sloopt.agp as agp_mod

    f, y0, searches, search = CallLog(f), np.array(y0), [], agp_mod.find_nc_pair

    def logged(*args):
        before, seen = f.grads, len(f.points)
        pair = search(*args)
        searches.append((args[3], f.grads - before, f.points[seen:]))
        return pair

    monkeypatch.setattr(agp_mod, "find_nc_pair", logged)
    out = agp_upg(f, AgpRegion(np.zeros(f.dim), radius), y0, 1e-8, l1_hat, alpha)
    assert out.flag == flag
    if flag in (2, 4):
        # y0 is the witness of an objective increase and of a boundary exit without
        # descent, and the search reuses the loop's gradients and values at its iterates
        assert out.iters_t > 1 and len(searches) == 1
        assert np.array_equal(searches[0][0], y0) and searches[0][1] == 0
        assert not any(np.array_equal(p, y) for p in searches[0][2]
                       for y in out.y_history[:out.iters_t])
    else:
        assert searches == []
    if flag == 3:  # the witness is the projection of z onto the boundary
        np.testing.assert_allclose(out.point_p, [0.3], rtol=1e-15)
    if flag == 5:  # the certificate held at every accelerated iteration
        assert out.iters_t > 1


def test_upg_evaluates_f_hat_at_y0_once_per_call():
    rng = np.random.default_rng(1)
    cases = [(random_spd_quadratic(rng, 3, 0.6, 0.9), 50.0, np.array([0.2, -0.1, 0.3]), 5),
             (Concave1D(1.0), 0.3, np.array([0.01]), 1)]
    for f, radius, y0, flag in cases:
        f_hat = CallLog(f)
        out = agp_upg(f_hat, AgpRegion(np.zeros(f.dim), radius), y0,
                      eps_hat=1e-8, l1_hat=1.0, alpha=0.5 if flag == 5 else 0.05)
        assert out.flag == flag and out.iters_t > 1
        assert sum(np.array_equal(p, y0) for p in f_hat.points) == 1


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["quadratic", "quartic", "tensor"]), seed=st.integers(0, 2**16),
       alpha=st.floats(0.01, 1.0), l1_excess=st.floats(0.0, 30.0), radius=st.floats(0.05, 1.0))
def test_upg_descent_exits_never_raise_the_base_value(kind, seed, alpha, l1_excess, radius):
    # the invariant that lets a_agp certify flags 1 and 5 without a value call: both
    # exits tested f_hat(p) <= f_hat(y0), and f <= f_hat = f + alpha ||x - y0||^2
    rng = np.random.default_rng(seed)
    if kind == "quadratic":  # symmetric, often indefinite
        h = rng.standard_normal((3, 3))
        base = GeneralQuadratic(h + h.T)
    elif kind == "quartic":
        base = QuarticProblem(3)
    else:
        base, _ = generate_planted_tensor(3, 3, 2, 0.5, 1.5, seed)
    y0 = rng.uniform(-0.5, 0.5, base.dim)
    center = y0 + rng.uniform(-0.5, 0.5, base.dim) * radius / math.sqrt(base.dim)
    f_hat = AugmentedOracle(base, y0, alpha)
    try:
        out = agp_upg(f_hat, AgpRegion(center, radius), y0, 1e-6, alpha + l1_excess, alpha)
    except AgpError:  # underestimated l1_hat; a_agp doubles it and retries
        return
    if out.flag in (1, 5):
        assert base.value(out.point_p) <= base.value(y0)


class NanAwayFromStart(ObjectiveOracle):
    """0.5 ||x||^2 with the value NaN at every point but ``start``."""

    def __init__(self, start):
        self.start, self.dim = start, start.size

    def value(self, x):
        return 0.5 * float(x @ x) if np.array_equal(x, self.start) else math.nan

    def gradient(self, x):
        return np.array(x, dtype=float)


def test_upg_routes_a_nan_value_like_a_rise():
    # with finite values this start exits with flag 5 (test_upg_flag5_small_gradient);
    # NaN at the accelerated iterates must not pass the descent test behind that flag
    y0 = np.array([0.3, -0.2])
    with pytest.raises(AgpError, match="progress certificate failed"):
        agp_upg(NanAwayFromStart(y0), AgpRegion(np.zeros(2), 5.0), y0,
                eps_hat=1e-6, l1_hat=1.0, alpha=0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("i", [0, 2, 4])
def test_upg_rejects_a_non_finite_accelerated_iterate(bad, i):
    # the iterate y0 - g / l1_hat gets the bad entry from g; its distance to the finite center
    # is then not finite, and only then is it scanned
    g = np.full(5, 0.1)
    g[i] = bad
    f_hat = CallLog(QuadraticProblem(5))
    with pytest.raises(EvaluationError,
                       match="^accelerated iterate contains NaN or infinite entries$"):
        agp_upg(f_hat, AgpRegion(np.zeros(5), 1.0), np.full(5, 0.1), 1e-8, 1.0, 0.5, grad_y0=g,
                f_y0=0.025)
    assert (f_hat.points, f_hat.grads) == ([], 0)


def test_upg_on_an_accelerated_iterate_whose_distance_overflows():
    # finite entries of -1e200: numpy warns, the distance is inf, the scan passes, and the
    # projection by the factor 1/inf = 0 is the center, which descends: a flag-1 exit
    with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
        out = agp_upg(QuadraticProblem(5), AgpRegion(np.zeros(5), 1.0), np.full(5, 0.1), 1e-8,
                      1.0, 0.5, grad_y0=np.full(5, 1e200))
    assert (out.flag, out.point_p.tobytes(), out.iters_t, out.iter_bound) == (
        1, np.zeros(5).tobytes(), 1, None)


class Sequence(CallLog):
    """A CallLog that also records the order of the calls: ("g", x) and ("v", x, f(x))."""

    def __init__(self, base):
        super().__init__(base)
        self.calls = []

    def value(self, x):
        f = super().value(x)
        self.calls.append(("v", np.array(x), f))
        return f

    def gradient(self, x):
        self.calls.append(("g", np.array(x)))
        return super().gradient(x)


@pytest.mark.parametrize("f, radius, y0, alpha, flag, n_interior", [
    (Concave1D(1.0), 0.3, [0.01], 0.05, 1, 3),
    (Concave1D(1.0), 0.3, [0.005], 0.05, 3, 3),
    (Concave1D(1.0), 0.3, [0.1], 0.05, 3, 0),  # z leaves at t = 1: no bound
    (random_spd_quadratic(np.random.default_rng(1), 3, 0.6, 0.9), 50.0, [0.2, -0.1, 0.3], 0.5,
     5, 5)])
def test_upg_exit_bound_is_read_from_the_last_interior_gradient_step(f, radius, y0, alpha,
                                                                      flag, n_interior):
    # f_hat is valued at an interior gradient step z right after its value at yt; every other
    # value call follows a gradient call, or is the first one, at y0
    f_hat, y0, eps_hat = Sequence(f), np.array(y0), 1e-8
    out = agp_upg(f_hat, AgpRegion(np.zeros(f.dim), radius), y0, eps_hat, 1.0, alpha)
    f_y0 = f_hat.calls[0][2]
    zs = [c for prev, c in zip(f_hat.calls, f_hat.calls[1:]) if prev[0] == c[0] == "v"]
    assert (out.flag, len(zs)) == (flag, n_interior)
    if not zs:
        assert out.iter_bound is None
        return
    _, z, f_z = zs[-1]
    psi = f_y0 - f_z + 0.5 * alpha * float((z - y0) @ (z - y0))
    assert out.iter_bound == agp_mod._iter_bound(1.0, alpha, psi, eps_hat)


def test_upg_rejects_exterior_start():
    with pytest.raises(ValueError):
        agp_upg(QuadraticProblem(1), AgpRegion(np.zeros(1), 0.5),
                np.array([1.0]), 1e-8, 1.0, 0.5)


def test_upg_underestimated_l1_raises():
    # l1_hat far below the true curvature: the loop blows past its budget
    # or fails its certificates instead of looping forever
    f = GeneralQuadratic(np.diag([50.0]))
    with pytest.raises(AgpError):
        agp_upg(f, AgpRegion(np.zeros(1), 10.0), np.array([1.0]),
                eps_hat=1e-10, l1_hat=1.0, alpha=0.5)


def test_a_agp_output_within_epoch_ball():
    eps = 1e-6
    d = 2 * eps ** 0.25
    for prob in (QuadraticProblem(3), NegQuadraticProblem(3)):
        oracle = CountingOracle(prob)
        anchor = np.zeros(3)
        xbar = np.array([0.02, -0.01, 0.03])
        pt, out = a_agp(oracle, xbar, 1.0, 1.0, anchor, 3 * d, eps)
        assert np.linalg.norm(pt - anchor) <= 3 * d + 1e-12
        assert out.flag in (1, 2, 3, 4, 5)


def test_a_agp_nc_exploitation_descends_below_threshold():
    eps = 1e-4  # large alpha so the curvature probes move visibly
    oracle = CountingOracle(NegQuadraticProblem(2))
    xbar = np.array([0.001, 0.0])
    pt, out = a_agp(oracle, xbar, 1.0, 1.0, np.zeros(2), 1.0, eps)
    alpha = 2.0 * eps ** 0.25
    if out.flag in (2, 4):
        assert oracle.base.value(pt) <= oracle.base.value(xbar) + 1e-15
    else:
        assert out.flag in (1, 3, 5)


def test_a_agp_given_f_x_reuses_the_values_it_holds():
    # an NC step (flag 4, t = 5) certified at once: f is taken from f_x at xbar, and
    # at the output only where the inner loop's f_hat and the candidate scan need it
    eps, xbar, prob = 1e-4, np.array([0.001, 0.0]), NegQuadraticProblem(2)
    oracle = CallLog(prob)
    out, outcome, l1, l2 = a_agp(oracle, xbar, 1.0, 1.0, np.zeros(2), 1.0, eps,
                                 f_x=prob.value(xbar))
    assert (outcome.flag, l1, l2) == (4, 1.0, 1.0)
    assert not any(np.array_equal(p, xbar) for p in oracle.points)
    assert sum(np.array_equal(p, out) for p in oracle.points) <= 2


def test_a_agp_values_a_boundary_exit_once():
    # a boundary exit with descent (flag 1) certified at once: the certificate is
    # agp_upg's own test f_hat(out) <= f(xbar), so a_agp values the output no more
    eps, xbar, prob = 1e-6, np.array([0.01, 0.0]), NegQuadraticProblem(2)
    oracle = CallLog(prob)
    out, outcome, l1, l2 = a_agp(oracle, xbar, 1.0, 1.0, np.zeros(2), 0.1, eps,
                                 f_x=prob.value(xbar))
    assert (outcome.flag, l1, l2) == (1, 1.0, 1.0)
    assert sum(np.array_equal(p, out) for p in oracle.points) == 1
    assert prob.value(out) <= prob.value(xbar)


def test_a_agp_values_a_small_gradient_exit_once():
    # a small-gradient exit (flag 5) after 12 accelerated iterations, certified at once:
    # the certificate is agp_upg's own test f_hat(out) <= f(xbar), so a_agp values it no more
    eps, xbar, prob = 1e-6, np.array([0.1, -0.2, 0.05]), QuarticProblem(3)
    oracle = CallLog(prob)
    out, outcome, l1, l2 = a_agp(oracle, xbar, 1.0, 1.0, np.zeros(3), 1.0, eps,
                                 f_x=prob.value(xbar))
    assert (outcome.flag, outcome.iters_t, l1, l2) == (5, 12, 1.0, 1.0)
    assert sum(np.array_equal(p, out) for p in oracle.points) == 1
    assert prob.value(out) <= prob.value(xbar)


class Poly1D(ObjectiveOracle):
    """f(x) = sum_i coef[i] x^i in one dimension."""

    dim = 1

    def __init__(self, coef):
        self.p = np.polynomial.Polynomial(coef)
        self.dp = self.p.deriv()

    def value(self, x):
        return float(self.p(x[0]))

    def gradient(self, x):
        return np.array([self.dp(x[0])])


def assert_certified(oracle, xbar, anchor, radius, eps, l1, l2, step):
    """A certified a_agp step from (l1, l2): constants that did not shrink, an
    output in the ball, and the certificate of its flag met at the returned constants."""
    out, outcome, l1_out, l2_out = step
    assert l1_out >= l1 and l2_out >= l2
    assert np.linalg.norm(out - anchor) <= radius + 1e-12
    f_x = oracle.value(xbar)
    if outcome.flag in (1, 3, 5):
        assert oracle.value(out) <= f_x
    else:
        alpha = 2.0 * math.sqrt(l2_out) * eps ** 0.25
        assert oracle.value(out) <= f_x - alpha ** 3 / (64.0 * l2_out ** 2)
    return l1_out, l2_out


def test_agp_certification_doubles_both_constants_until_the_nc_step_descends():
    # negative curvature at 0 next to a steep quartic wall: the inner loop needs
    # L1 = 4, and the curvature probe of length alpha / L2 overshoots into the
    # wall until L2 = 64
    eps, prob, xbar = 1e-6, Poly1D([0.0, -0.4, -0.5, 25.0, 150.0]), np.zeros(1)
    radius = 6 * eps ** 0.25
    step = a_agp(CountingOracle(prob), xbar, 1.0, 1.0, xbar, radius, eps, f_x=prob.value(xbar))
    assert step[1].flag in (2, 4)
    assert assert_certified(prob, xbar, xbar, radius, eps, 1.0, 1.0, step) == (4.0, 64.0)


def test_agp_given_the_gradient_at_xbar_starts_no_retry_by_evaluating_it(monkeypatch):
    # the case above, which retries from l1 = 1: given grad, no gradient is evaluated at
    # xbar at all (the NC-pair search reuses the inner loop's), and every output bit is the same
    import sloopt.agp as agp_mod

    eps, prob, xbar = 1e-6, Poly1D([0.0, -0.4, -0.5, 25.0, 150.0]), np.zeros(1)
    radius = 6 * eps ** 0.25
    at_xbar, trials = [], []
    agp_upg_run = agp_mod.agp_upg

    def upg(*args):
        trials.append(args)
        return agp_upg_run(*args)

    class Logged(Poly1D):
        def gradient(self, x):
            if np.array_equal(x, xbar):
                at_xbar.append(x)
            return super().gradient(x)

    monkeypatch.setattr(agp_mod, "agp_upg", upg)
    oracle, steps, counts = Logged(prob.p.coef), [], []
    for grad in (None, prob.gradient(xbar)):
        at_xbar.clear(), trials.clear()
        steps.append(a_agp(oracle, xbar, 1.0, 1.0, xbar, radius, eps, grad=grad,
                           f_x=prob.value(xbar)))
        counts.append((len(trials), len(at_xbar)))
    assert counts[0][0] == counts[0][1] > 1 and counts[1] == (counts[0][0], 0)
    (out, outcome, l1, l2), (out_g, outcome_g, l1_g, l2_g) = steps
    assert (out.tobytes(), l1, l2) == (out_g.tobytes(), l1_g, l2_g)
    for field in ("flag", "point_p", "nc_u", "nc_v", "y_history", "iters_t", "iter_bound"):
        a, b = getattr(outcome, field), getattr(outcome_g, field)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_agp_certification_on_the_autoencoder_from_its_round_one_start(monkeypatch):
    # the 6-4-4-6 linear autoencoder of the net-ae benchmark workload, round 1: every
    # step certifies the carried constants, some only after doubling L1 from 1
    spec = harness.ExperimentSpec(problem="autoencoder", seed=7, init_c=0.1)
    prob, _ = harness.build_problem(spec)
    eps, radius = 1e-6, 6 * 1e-6 ** 0.25
    steps, a_agp_run = [], slo_mod.a_agp

    def logged(oracle, xbar, l1, l2, anchor, radius_D, epsilon, grad=None, f_x=None):
        step = a_agp_run(oracle, xbar, l1, l2, anchor, radius_D, epsilon, grad=grad, f_x=f_x)
        assert f_x == prob.value(xbar)
        steps.append((l1, assert_certified(prob, xbar, anchor, radius_D, epsilon, l1, l2, step)))
        return step

    monkeypatch.setattr(slo_mod, "a_agp", logged)
    res = slo_mod.run_slo(prob, uniform_init(prob.dim, 0.1, 8), SloConfig(
        epsilon=eps, radius_D=radius, margin_d=2 * eps ** 0.25, subroutine=Subroutine.AGP,
        max_total_grad_evals=10_000))
    assert res.termination is Termination.GradientTolerance
    assert any(l1 == 1.0 and out[0] > 1.0 for l1, out in steps)


class RisingValue(ObjectiveOracle):
    """A value that never decreases (it is constant) under a nonzero gradient."""

    dim = 2

    def value(self, x):
        return 0.0

    def gradient(self, x):
        return np.ones(2)


def test_agp_certification_gives_up_after_max_backtracks_doublings():
    eps, xbar = 1e-6, np.full(2, 0.01)
    with pytest.raises(BacktrackBudgetError) as err:
        a_agp(CountingOracle(RisingValue()), xbar, 1.0, 1.0, np.zeros(2), 6 * eps ** 0.25,
              eps, f_x=0.0)
    # no step descends, so every inner loop ends without an NC pair and L1 doubles
    assert err.value.last_delta == (2.0 ** MAX_BACKTRACKS, 1.0)
    assert err.value.n_backtracks == MAX_BACKTRACKS and "AGP certificate" in str(err.value)


_X2 = np.zeros(2)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: AugmentedOracle(QuadraticProblem(2), _X2, 0.0), ValueError,
     "agp_alpha must be positive"),
    (lambda: AugmentedOracle(QuadraticProblem(2), _X2, math.nan), ValueError,
     "agp_alpha must be positive"),
    (lambda: AgpRegion(_X2, 0.0), ValueError, "inner_radius must be positive"),
    (lambda: AgpRegion(_X2, math.nan), ValueError, "inner_radius must be positive"),
    (lambda: UpgOutcome(0), ValueError, "invalid flag 0"),
    (lambda: find_nc_pair(QuadraticProblem(2), [_X2], [], _X2, 1.0), ValueError,
     "x_hist and y_hist must have equal length"),
    (lambda: agp_upg(QuadraticProblem(2), AgpRegion(_X2, 1.0), _X2, 1e-4, 0.5, 1.0), ValueError,
     "require l1_hat >= alpha > 0"),
    (lambda: agp_upg(QuadraticProblem(2), AgpRegion(_X2, 1.0), _X2, 0.0, 2.0, 1.0), ValueError,
     "eps_hat must be positive"),
    (lambda: agp_upg(QuadraticProblem(1), AgpRegion(np.zeros(1), 1.0), np.array([0.1]), math.nan,
                     1.0, 0.5), ValueError, "eps_hat must be positive"),
    # a linear f_hat is never alpha-strongly convex: its certificate holds at every t, the
    # gradient never falls below sqrt(eps_hat), and the path stays inside the region
    (lambda: agp_upg(LinearProblem([1.01, 0.0]), AgpRegion(_X2, 1e6), _X2, 1.0, 1e6, 1.0),
     AgpError, "accelerated loop exceeded the safety cap of 14072 iterations; "
     "the Lipschitz estimates are inconsistent with the objective"),
    (lambda: a_agp(QuadraticProblem(2), _X2, 1.0, 1.0, _X2, 0.02, 1e-8), ValueError,
     "radius_D must exceed 2*eps^(1/4)"),
    (lambda: a_agp(QuadraticProblem(2), _X2, 1.0, 1.0, _X2, 0.1, math.nan), ValueError,
     "radius_D must exceed 2*eps^(1/4)"),
    (lambda: a_agp(QuadraticProblem(2), _X2, 1.0, 1.0, _X2, math.nan, 1e-8), ValueError,
     "radius_D must exceed 2*eps^(1/4)"),
    (lambda: a_agp(QuadraticProblem(2), np.array([0.08, 0.0]), 1.0, 1.0, _X2, 0.1, 1e-8),
     ValueError, "xbar must lie strictly inside the inner region"),
    (lambda: a_agp(QuadraticProblem(2), _X2, 0.5, 1.0, _X2, 0.1, 1e-8), ValueError,
     "Lipschitz constants are floored at 1"),
    (lambda: a_agp(QuadraticProblem(2), _X2, math.nan, 1.0, _X2, 0.1, 1e-8), ValueError,
     "Lipschitz constants are floored at 1"),
    (lambda: a_agp(QuadraticProblem(2), _X2, 1.0, math.nan, _X2, 0.1, 1e-8), ValueError,
     "Lipschitz constants are floored at 1"),
    # without f_x no step is certified, so an AgpError is the caller's: here a step below
    # resolution leaves the certificate failed with no NC pair among the iterates
    (lambda: a_agp(LinearProblem([1e-3, 0.0]), np.array([1e14, 0.0]), 1.0, 1.0,
                   np.array([1e14, 0.0]), 0.1, 1e-8),
     AgpError, "progress certificate failed but no NC pair found; l1_hat is likely underestimated"),
], ids=["agp-alpha", "agp-alpha-nan", "inner-radius", "inner-radius-nan", "flag",
        "history-lengths", "l1-hat-below-alpha", "eps-hat", "eps-hat-nan", "iteration-cap",
        "radius-D", "epsilon-nan", "radius-D-nan", "xbar-outside", "constants-below-one",
        "l1-nan", "l2-nan", "uncertified-agp-error"])
def test_agp_rejections_name_their_cause(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


def test_a_agp_rejects_a_degenerate_nc_pair(monkeypatch):
    # a deterministic oracle never yields one: u == v gives the tangent at v its own value, which
    # is no strict violation, so an inner loop that returns one is stood in for
    x = np.array([0.01, 0.0])
    monkeypatch.setattr("sloopt.agp.agp_upg", lambda *args: UpgOutcome(
        4, nc_u=x.copy(), nc_v=x.copy(), y_history=[x.copy()], iters_t=1))
    with pytest.raises(AgpError, match=r"^degenerate NC pair \(u == v\); oracle inconsistency$"):
        a_agp(QuadraticProblem(2), x, 1.0, 1.0, _X2, 0.1, 1e-8)
