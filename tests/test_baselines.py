import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import BAD, with_bad
from sloopt.baselines import (BpgConfig, bpg_step, bpg_subproblem, gd_fixed,
                              run_bpg)
from sloopt.core import EvaluationError, ObjectiveOracle, Termination, as_vector, norm
from sloopt.harness import ExperimentSpec, build_problem, run_experiment
from sloopt.problems import (QuadraticProblem, QuarticProblem,
                             generate_planted_tensor, uniform_init)


def independent_bisection_root(gn, L, n, tol=1e-12):
    """Reference root of -gn^2 + L gn^n rho^(n-1) + L gn^2 rho."""

    def dp(rho):
        return -gn ** 2 + L * gn ** n * rho ** (n - 1) + L * gn ** 2 * rho

    lo, hi = 0.0, 1.0
    while dp(hi) < 0:
        hi *= 2
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if dp(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_subproblem_n2_closed_form():
    # n = 2: dp = -|g|^2 + 2 L |g|^2 rho, root exactly 1/(2L)
    for L in (0.5, 1.0, 4.0):
        rho = bpg_subproblem(np.array([3.0]), L, 2, 1e-16)
        assert abs(rho - 1.0 / (2 * L)) <= 1e-12


def test_subproblem_n4_reference_root():
    rho = bpg_subproblem(np.array([1.0]), 1.0, 4, 1e-16)
    assert abs(rho - 0.6823278) < 1e-6
    assert abs(rho - independent_bisection_root(1.0, 1.0, 4)) < 1e-10


@pytest.mark.parametrize("g, l_relative, n, message", [
    ([2.0], -1.0, 2, "l_relative must be positive"),
    ([2.0], 0.0, 2, "l_relative must be positive"),
    ([2.0], math.nan, 2, "l_relative must be positive"),
    ([2.0], math.inf, 2, "l_relative must be positive"),
    ([2.0], 1.0, 1, "poly_degree_n must be >= 2"),
    ([0.0], 1.0, 2, "bpg_subproblem requires g != 0"),
], ids=["l-negative", "l-zero", "l-nan", "l-inf", "n-one", "g-zero"])
def test_subproblem_rejections_name_their_cause(g, l_relative, n, message):
    with pytest.raises(ValueError) as info:
        bpg_subproblem(np.array(g), l_relative, n, 1e-16)
    assert str(info.value) == message


def test_subproblem_residual_bracketed():
    gn = 2.0
    rho = bpg_subproblem(np.array([gn]), 1.0, 4, 1e-12)
    dp = -gn ** 2 + gn ** 4 * rho ** 3 + gn ** 2 * rho
    # residual is bounded by the slope across one bracket width
    slope = 3 * gn ** 4 * rho ** 2 + gn ** 2
    assert abs(dp) <= slope * 1e-12 * 1.01


def nested_dp_bpg_subproblem(g, l_relative, n, eps0):
    """The bracket-doubling bisection that bpg_subproblem was before it used Newton's
    method, with p'(rho) in a nested function: the reference for its accuracy."""
    g = as_vector(g)
    gn = norm(g)
    if gn == 0.0:
        raise ValueError("bpg_subproblem requires g != 0")
    L = float(l_relative)
    g2, lgn, lg2 = gn ** 2, L * gn ** n, L * gn ** 2

    def dp(rho):
        return -g2 + lgn * rho ** (n - 1) + lg2 * rho

    rho0, rho1 = 0.0, 1.0
    doublings = 0
    while dp(rho1) < 0.0:
        rho1 *= 2.0
        doublings += 1
        if doublings > 1000:
            raise ArithmeticError("bpg_subproblem bracket expansion overflow")
    while rho1 - rho0 > eps0:
        mid = 0.5 * (rho0 + rho1)
        if mid <= rho0 or mid >= rho1:
            break
        if dp(mid) < 0.0:
            rho0 = mid
        else:
            rho1 = mid
    return 0.5 * (rho0 + rho1)


@settings(max_examples=300, deadline=None)
@given(gn=st.floats(1e-6, 1e3), L=st.floats(1e-3, 1e3), n=st.sampled_from([2, 3, 4, 6, 10]),
       eps0=st.sampled_from([1e-16, 1e-12, 1e-8, 1e-3]), dim=st.integers(1, 4))
@example(gn=1e-6, L=1.0, n=4, eps0=1e-12, dim=1)
@example(gn=1e3, L=1.0, n=10, eps0=1e-12, dim=3)
def test_subproblem_is_within_eps0_of_the_nested_form(gn, L, n, eps0, dim):
    # each result lies within eps0/2 of the root, up to rounding
    g = np.full(dim, gn / math.sqrt(dim))
    g[0] = -g[0]
    ref = nested_dp_bpg_subproblem(g, L, n, eps0)
    assert abs(bpg_subproblem(g, L, n, eps0) - ref) <= eps0 + 4 * math.ulp(ref)


@settings(max_examples=300, deadline=None)
@given(gn=st.floats(1e-6, 1e3), L=st.floats(1e-3, 1e3), n=st.sampled_from([2, 3, 4, 6, 10]))
def test_subproblem_residual_is_rounding(gn, L, n):
    # at the eps0 that bpg_step passes, p'(rho), evaluated as the code does, is a few
    # rounding errors of its terms; the bisection's 1e-16 bracket left up to ~300
    rho = bpg_subproblem(np.array([gn]), L, n, 1e-16)
    g2, lgn, lg2 = gn ** 2, L * gn ** n, L * gn ** 2
    residual = -g2 + lgn * rho ** (n - 1) + lg2 * rho
    assert abs(residual) <= 8 * 2.0 ** -52 * (g2 + lgn * rho ** (n - 1) + lg2 * rho)


def test_subproblem_returns_a_root_below_eps0_to_rounding():
    # -1 + 1e200 rho^9 + rho = 0: the linear term moves the root by ~1e-23 relative;
    # an absolute 1e-16 bracket returned 2.8e-17, 4.6e5 times the root
    rho = bpg_subproblem(np.array([1e25]), 1.0, 10, 1e-16)
    assert abs(rho - 10.0 ** (-200 / 9)) <= 1e-12 * rho


def test_subproblem_with_an_underflowing_power_term():
    # L |g|^10 underflows to 0, leaving -|g|^2 + L |g|^2 rho with root 1/L
    assert bpg_subproblem(np.array([1e-40]), 1.0, 10, 1e-16) == 1.0


@pytest.mark.parametrize("problem, cfg, x0, stop", [
    (QuarticProblem(5), BpgConfig(4, 1.0, stop_grad_tol=1e-4), np.full(5, 0.6),
     Termination.GradientTolerance),
    (generate_planted_tensor(2, 3, 1, 0.5, 1.5, 0)[0], BpgConfig(6, 200.0, max_iters=500),
     np.full(2, 0.4), Termination.IterationBudget)], ids=["quartic", "tensor"])
def test_run_bpg_follows_the_bisection_runs(monkeypatch, problem, cfg, x0, stop):
    import sloopt.baselines as baselines

    shipped = run_bpg(problem, x0, cfg)
    monkeypatch.setattr(baselines, "bpg_subproblem", nested_dp_bpg_subproblem)
    nested = run_bpg(problem, x0, cfg)
    assert shipped.termination is nested.termination is stop
    assert len(shipped.trace) == len(nested.trace)
    np.testing.assert_allclose([r.f_value for r in shipped.trace],
                               [r.f_value for r in nested.trace], rtol=1e-9)


def test_subproblem_rejects_zero_gradient():
    with pytest.raises(ValueError):
        bpg_subproblem(np.zeros(2), 1.0, 4, 1e-16)


def normalized_bisection_root(gn, L, n):
    """Root of p'(rho)/|g|^2 = -1 + L gn^(n-2) rho^(n-1) + L rho, bisected to adjacent floats."""

    def dp(rho):
        return -1.0 + L * gn ** (n - 2) * rho ** (n - 1) + L * rho

    lo, hi = 0.0, 1.0
    while dp(hi) < 0:
        hi *= 2
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if dp(mid) < 0 else (lo, mid)
    return hi


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("g, L, n", [
    ([1e-200, 0.0], 1.0, 4), ([3e-170, -4e-170], 0.3, 2), ([5e-324], 1.0, 3),
    ([2.5e-162], 1.7, 4), ([3e-162, 1e-162], 1.3, 2), ([1e-160, 1e-160], 2.0, 10)])
def test_subproblem_solves_a_gradient_whose_square_underflows(g, L, n):
    # g.g is 0 for the first three and a subnormal of a few significant bits for the others,
    # which put the root 15% off when the equation was scaled by |g|^2
    gn = math.hypot(*g)
    rho = bpg_subproblem(np.array(g), L, n, 1e-16)
    ref = normalized_bisection_root(gn, L, n)
    assert math.isfinite(rho) and abs(rho - ref) <= 4 * math.ulp(ref)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bpg_step_near_the_origin_where_the_gradient_square_underflows():
    # f = ||x||^4/4, n = 4, L = 1: grad f(x) and ||x||^2 underflow, so g = -x and the root is 1
    x = np.array([1e-170, 0.0])
    out = bpg_step(QuarticProblem(2), x, BpgConfig(4, 1.0))
    assert np.array_equal(out, x)
    assert bpg_subproblem(-x, 1.0, 4, 1e-16) == normalized_bisection_root(1e-170, 1.0, 4) == 1.0


def test_bpg_step_hand_example():
    # f = x^4/4, n = 4, L = 1, x = 1: grad_h = 2, g = 1 - 2 = -1
    p = QuarticProblem(1)
    cfg = BpgConfig(4, 1.0)
    out = bpg_step(p, np.array([1.0]), cfg)
    assert abs(out[0] - 0.6823278) < 1e-6
    assert p.value(out) < p.value(np.array([1.0]))


def test_bpg_step_zero_composite_gradient():
    p = QuarticProblem(2)
    out = bpg_step(p, np.zeros(2), BpgConfig(4, 1.0))
    np.testing.assert_array_equal(out, np.zeros(2))


def test_bpg_step_is_nonpositive_multiple_of_g():
    p = QuarticProblem(3)
    cfg = BpgConfig(4, 1.0)
    x = np.array([0.7, -0.3, 0.2])
    n, L = 4, 1.0
    g = p.gradient(x) - L * (np.linalg.norm(x) ** (n - 2) + 1.0) * x
    out = bpg_step(p, x, cfg)
    rho = -out[0] / g[0]
    assert rho > 0
    np.testing.assert_allclose(out, -rho * g, rtol=1e-12)


def test_run_bpg_quartic_monotone_to_tolerance():
    p = QuarticProblem(1)
    cfg = BpgConfig(4, 1.0, stop_grad_tol=1e-6)
    res = run_bpg(p, np.array([1.0]), cfg)
    assert res.termination is Termination.GradientTolerance
    assert abs(res.final_point[0]) <= 1e-2
    f_vals = [rec.f_value for rec in res.trace]
    assert all(a >= b - 1e-10 for a, b in zip(f_vals, f_vals[1:]))


def test_run_bpg_starts_at_composite_stationary_point():
    p = QuarticProblem(2)
    res = run_bpg(p, np.zeros(2), BpgConfig(4, 1.0))
    assert res.termination is Termination.GradientTolerance
    assert len(res.trace) == 1


def test_run_bpg_tensor_monotone():
    prob, _ = generate_planted_tensor(2, 3, 1, 0.5, 1.5, 0)
    # crude relative-smoothness constant for the degree-6 polynomial
    cfg = BpgConfig(6, 200.0, stop_grad_tol=1e-8, max_iters=500)
    res = run_bpg(prob, np.full(prob.dim, 0.4), cfg)
    f_vals = [rec.f_value for rec in res.trace]
    assert all(a >= b - 1e-10 for a, b in zip(f_vals, f_vals[1:]))


def test_gd_quadratic_one_exact_step():
    res = gd_fixed(QuadraticProblem(1), np.array([1.0]), 1.0)
    assert res.termination is Termination.GradientTolerance
    assert res.final_point[0] == 0.0
    assert len(res.trace) == 2


def test_gd_contraction_factor_exact():
    res = gd_fixed(QuadraticProblem(1), np.array([1.0]), 0.5,
                   stop_grad_tol=0.0, max_iters=10)
    xs = [1.0 * 0.5 ** t for t in range(11)]
    np.testing.assert_allclose([rec.grad_norm for rec in res.trace], xs)
    assert res.termination is Termination.IterationBudget


def test_gd_overlarge_step_diverges():
    res = gd_fixed(QuadraticProblem(1), np.array([1.0]), 2.5, max_iters=200)
    assert res.termination is Termination.Diverged


def test_gd_quartic_explodes_from_two():
    # x1 = 2 - 8 = -6, x2 = -6 + 216 = 210, ...
    res = gd_fixed(QuarticProblem(1), np.array([2.0]), 1.0, max_iters=50)
    assert res.termination is Termination.Diverged


def test_run_bpg_iteration_budget():
    res = run_bpg(QuarticProblem(1), np.array([1.0]),
                  BpgConfig(4, 1.0, stop_grad_tol=0.0, max_iters=3))
    assert res.termination is Termination.IterationBudget
    assert len(res.trace) == 4


@pytest.mark.parametrize("seed, rows", [(1, 14), (7, 9)])
def test_run_bpg_reports_divergence_on_autoencoder(tmp_path, seed, rows):
    # these constants blow up within a few steps; the run must report it
    # instead of raising from an overflowing oracle or subproblem
    spec = ExperimentSpec(problem="autoencoder", methods=("bpg",), init_c=0.1,
                          bpg_n=4, bpg_l=10.0, seed=seed, output_dir=str(tmp_path))
    oracle, _ = build_problem(spec)
    cfg = BpgConfig(4, 10.0, stop_grad_tol=math.sqrt(spec.epsilon))
    res = run_bpg(oracle, uniform_init(oracle.dim, 0.1, seed + 1), cfg)
    assert res.termination is Termination.Diverged
    assert len(res.trace) == rows
    summary = run_experiment(spec)
    assert summary["errors"] == {}
    assert summary["diverged"] == ["bpg/round1"]
    assert summary["methods"] == {}


def test_gd_rejects_nonpositive_step():
    # NaN and inf steps are rejected too, before the first row rather than at the second
    for step in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^step must be positive$"):
            gd_fixed(QuadraticProblem(1), np.array([1.0]), step)


def test_bpg_config_validation():
    with pytest.raises(ValueError):
        BpgConfig(1, 1.0)
    for l_relative in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^l_relative must be positive$"):
            BpgConfig(4, l_relative)



# bpg_step reads the finiteness of x off ||x||, and bpg_subproblem that of g off |g|; a scan
# runs only when that norm is not finite. The oracle below makes no check of its own that could
# hide a missing scan, and records every call.


class _Recorded(ObjectiveOracle):
    """f(x) = ||x||^2/2, with no check of x."""

    def __init__(self, dim):
        self.dim, self.calls = dim, []

    def value(self, x):
        self.calls.append("value")
        return 0.5 * float(x @ x)

    def gradient(self, x):
        self.calls.append("gradient")
        return 1.0 * x


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("with_grad", [False, True], ids=["oracle", "grad"])
@pytest.mark.parametrize("bad, i", BAD)
def test_bpg_step_rejects_a_non_finite_point_before_any_evaluation(with_grad, bad, i):
    oracle = _Recorded(5)
    with pytest.raises(EvaluationError, match="^vector contains NaN or infinite entries$"):
        bpg_step(oracle, with_bad(bad, i), BpgConfig(4, 1.0),
                 grad=np.full(5, 0.1) if with_grad else None)
    assert oracle.calls == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("through_step", [False, True], ids=["subproblem", "step"])
@pytest.mark.parametrize("bad, i", BAD)
def test_bpg_rejects_a_non_finite_gradient(through_step, bad, i):
    with pytest.raises(EvaluationError, match="^vector contains NaN or infinite entries$"):
        if through_step:  # g = grad - L grad h(x) has the bad entry of grad
            bpg_step(_Recorded(5), np.full(5, 0.1), BpgConfig(4, 1.0), grad=with_bad(bad, i))
        else:
            bpg_subproblem(with_bad(bad, i), 1.0, 4, 1e-16)


def test_bpg_on_finite_inputs_whose_norm_overflows():
    # ||(1e200, ...)||^2 overflows: numpy warns, the norm is inf, and the scan that follows
    # passes, so the call raises what the unfolded scans gave
    huge = np.full(5, 1e200)
    with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
        # ||x||^2 x is inf, and so is the g handed to bpg_subproblem
        with pytest.raises(EvaluationError, match="^vector contains NaN or infinite entries$"):
            bpg_step(_Recorded(5), huge, BpgConfig(4, 1.0), grad=np.zeros(5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("g, L, n", [
    ([1e200] * 5, 1.0, 4), ([1e100], 1.0, 4), ([3e153, -4e153], 2.0, 10),
    ([1e200, 0.0], 0.5, 2), ([1e300, 1e300], 3.0, 3), ([-7e250], 1.0, 6)])
def test_subproblem_solves_a_gradient_whose_powers_overflow(g, L, n):
    # |g|^2 or L|g|^n is past the float range, which gave NaN from inf/inf or raised
    # OverflowError; the step length s = rho |g| solves L (s^(n-1) + s) = |g|
    gn = math.hypot(*g)
    rho = bpg_subproblem(np.array(g), L, n, 1e-16)
    s = rho * gn
    assert 0 < rho < math.inf and abs(L * (s ** (n - 1) + s) - gn) <= 2 * n * math.ulp(gn)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bpg_step_where_the_gradient_square_overflows():
    # f = ||x||^4/4, n = 2, L = 1: g = ||x||^2 x - 2x = (1e180 - 2e60, 0), |g|^2 past the range
    out = bpg_step(QuarticProblem(2), np.array([1e60, 0.0]), BpgConfig(2, 1.0))
    np.testing.assert_allclose(out, [-5e179, 0.0], rtol=1e-15)  # rho = 1/(2L)


def bpg_step_reference(oracle, x, config, grad=None):
    """bpg_step with bpg_subproblem's Newton iteration inlined, as both were written when they
    scanned x and g in full: the bit-for-bit reference away from underflow."""
    x = as_vector(x)
    n, L = config.poly_degree_n, config.l_relative
    xn = norm(x)
    g = (oracle.gradient(x) if grad is None else grad) - L * ((xn ** (n - 2) + 1.0) * x)
    if not np.any(g):
        return np.zeros_like(x)
    gn = norm(as_vector(g))
    g2, lgn, lg2 = gn ** 2, L * gn ** n, L * gn ** 2
    rho = g2 / lg2 if lgn == 0.0 else min(g2 / lg2, (g2 / lgn) ** (1.0 / (n - 1)))
    while (lower := rho - (-g2 + lgn * rho ** (n - 1) + lg2 * rho)
           / ((n - 1) * lgn * rho ** (n - 2) + lg2)) < rho:
        rho = lower
    return -rho * g


def _no_tiny(bound):  # entries 0 or above 1e-100 in size keep g = 0 or |g|^2 normal
    return st.floats(-bound, bound).map(lambda v: v if abs(v) > 1e-100 else 0.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
           st.lists(_no_tiny(3.0), min_size=d, max_size=d),     # x
           st.lists(_no_tiny(50.0), min_size=d, max_size=d))),  # grad, when given
       st.sampled_from([2, 3, 4, 6, 10]), st.floats(1e-3, 1e3), st.booleans())
@example(vectors=([0.0, 0.0], [0.0, 0.0]), n=4, L=1.0, with_grad=False)
@example(vectors=([1.0], [3.0]), n=2, L=1.0, with_grad=True)  # g = 3 - 2 = 1
def test_bpg_step_returns_the_reference_bits(vectors, n, L, with_grad):
    x, grad = (np.array(v) for v in vectors)
    oracle, cfg = QuarticProblem(x.size), BpgConfig(n, L)
    given_grad = grad if with_grad else None
    expect = bpg_step_reference(oracle, x, cfg, given_grad)
    assert bpg_step(oracle, x, cfg, grad=given_grad).tobytes() == expect.tobytes()


def test_bpg_scans_each_new_point_once_per_step(monkeypatch):
    import sloopt.agp
    import sloopt.baselines
    import sloopt.core
    import sloopt.subroutines

    # the quartic-50 benchmark instance, round 1 at seed 7. bpg_step reads the finiteness of x
    # off ||x||, bpg_subproblem that of g off |g|, and the oracle's gradients are checked through
    # their norms, so a step scans only the new point, in the oracle's _at. Once per run drive
    # and _at scan the start.
    scans, check_finite = [], sloopt.core.check_finite
    for module in (sloopt.core, sloopt.baselines, sloopt.subroutines, sloopt.agp):
        monkeypatch.setattr(module, "check_finite",
                            lambda v, what="vector": scans.append(what) or check_finite(v, what))
    spec = ExperimentSpec(problem="quartic", methods=("bpg",), epsilon=1e-10, margin=0.01,
                          init_c=1.0, seed=7, budget_evals=200_000, bpg_n=4, bpg_l=1.0,
                          problem_params={"quartic_dim": 50})
    prob, _ = build_problem(spec)
    res = spec.runners["bpg"](prob, uniform_init(prob.dim, spec.init_c, spec.seed + 1))
    steps = len(res.trace) - 1
    assert res.termination is Termination.GradientTolerance and steps > 1000
    assert len(scans) <= steps + 2
