import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import sloopt.core
from reference import fd_gradient
from sloopt.baselines import BpgConfig, gd_fixed, run_bpg
from sloopt.core import (CountingOracle, EvaluationError, ObjectiveOracle, SloConfig,
                         Subroutine, Termination, as_vector, check_finite,
                         epoch_geometry, norm)
from sloopt.problems import LinearProblem, QuadraticProblem, QuarticProblem


def test_every_public_name_resolves():
    namespace = {}
    exec("from sloopt import *", namespace)  # raises on a name in __all__ that sloopt lacks
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(sloopt.__all__)


def test_as_vector_shapes():
    v = as_vector([1.0, 2.0])
    assert v.dtype == np.float64 and v.shape == (2,)
    s = as_vector(2.0)
    assert s.dtype == np.float64 and s.tolist() == [2.0]
    with pytest.raises(ValueError):
        as_vector(np.ones((2, 2)))


def test_check_finite_rejects_nan():
    with pytest.raises(EvaluationError):
        check_finite(np.array([1.0, np.nan]), "x")


def test_check_finite_tests_every_entry():
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(5):
            v = np.ones(5)
            v[i] = bad
            with pytest.raises(EvaluationError, match="^x contains NaN or infinite entries$"):
                check_finite(v, "x")
    # squares of these overflow, so a sum-of-squares test would reject them
    big = np.full(5, 1e308)
    assert check_finite(big) is big


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)))
def test_check_finite_verdict_on_any_shape(v):
    if np.isfinite(v).all():
        assert check_finite(v, "x") is v
    else:
        with pytest.raises(EvaluationError, match="^x contains NaN or infinite entries$"):
            check_finite(v, "x")


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 64),
              elements=st.floats(-1e200, 1e200, allow_subnormal=True)))
@example(np.full(3, 1e200))  # the sum of squares overflows to inf
@example(np.array([5e-324, -5e-324]))  # and here underflows to 0
def test_norm_is_bit_identical_to_numpy(v):
    with np.errstate(over="ignore"):
        assert norm(v).hex() == float(np.linalg.norm(v)).hex()


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


class FixedGradient(ObjectiveOracle):
    """An oracle whose gradient is a copy of ``g`` at every point."""

    def __init__(self, g):
        self.g, self.dim = np.asarray(g, dtype=float), len(g)

    def gradient(self, x):
        return self.g.copy()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_counting_oracle_checks_each_gradient_through_its_norm():
    x = np.zeros(4)
    # every entry finite, but the squared norm overflows: accepted, with an inf norm
    oracle = CountingOracle(FixedGradient(np.full(4, 1e200)))
    assert oracle.gradient(x)[0] == 1e200 and oracle.grad_norm == math.inf
    rng = np.random.default_rng(0)
    for scale in (1e-160, 1e-3, 1.0, 1e150):
        g = rng.standard_normal(4) * scale
        oracle = CountingOracle(FixedGradient(g))
        oracle.gradient(x)
        assert oracle.grad_norm.hex() == norm(g).hex()
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(4):
            g = np.ones(4)
            g[i] = bad
            with pytest.raises(EvaluationError,
                               match="^gradient contains NaN or infinite entries$"):
                CountingOracle(FixedGradient(g)).gradient(x)


class GradientLog(ObjectiveOracle):
    """Passes calls to ``base`` and keeps a copy of every point where the gradient is asked."""

    def __init__(self, base):
        self.base, self.dim, self.points = base, base.dim, []
        self.growth1, self.growth2 = base.growth1, base.growth2

    def value(self, x):
        return self.base.value(x)

    def gradient(self, x):
        self.points.append(np.array(x))
        return self.base.gradient(x)


@pytest.mark.parametrize("method", ["gd", "bpg", "pgd", "ngd", "ls"])
def test_trace_columns_are_the_norms_at_each_row_iterate(method):
    # With analytic constants no method samples gradients, so the k-th base gradient
    # point is the iterate of the rows whose cum_grad_evals is k.
    from sloopt.slo import run_slo

    prob = GradientLog(QuarticProblem(6))
    x0 = np.random.default_rng(5).uniform(0.0, 0.5, 6)
    if method == "gd":
        res = gd_fixed(prob, x0, 0.3, stop_grad_tol=1e-3, max_iters=400)
    elif method == "bpg":
        res = run_bpg(prob, x0, BpgConfig(4, 1.0, max_iters=400, stop_grad_tol=1e-3))
    else:
        sub = {"pgd": Subroutine.GP, "ngd": Subroutine.NGD, "ls": Subroutine.LS}[method]
        D, d = epoch_geometry(sub, 1e-6, 0.05, 0.01)
        res = run_slo(prob, x0, SloConfig(epsilon=1e-6, radius_D=D, margin_d=d, subroutine=sub,
                                          ls_delta_bar=D, max_total_grad_evals=400))
        assert res.epochs_completed >= 3
    assert len(prob.points) == res.grad_evals and len(res.trace) > 10
    anchor = None
    for rec in res.trace:
        x = prob.points[rec.cum_grad_evals - 1]
        if rec.iter == 0:
            anchor = x
        assert rec.f_value == prob.base.value(x)
        assert rec.grad_norm.hex() == float(np.linalg.norm(prob.base.gradient(x))).hex()
        assert rec.dist_from_anchor.hex() == float(np.linalg.norm(x - anchor)).hex()


def test_finite_diff_matches_quadratic():
    # the central-difference reference that the oracle gradient tests rely on
    p = QuadraticProblem(4)
    x = np.array([0.5, -1.0, 2.0, 0.0])
    np.testing.assert_allclose(fd_gradient(p, x, 1e-6), x, atol=1e-8)


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


@pytest.mark.parametrize("sub", list(Subroutine))
@pytest.mark.parametrize("field, value, message", [
    ("epsilon", math.inf, "at epsilon inf rejects \\(radius_D, margin_d\\)"),
    ("radius_D", math.inf, "radius_D must be positive and finite"),
    ("radius_D", math.nan, "radius_D must be positive and finite"),
    ("margin_d", math.inf, "rejects \\(radius_D, margin_d\\)")])
def test_config_rejects_non_finite_settings(sub, field, value, message):
    # with L1 = growth1(inf) = inf every NGD step stays put, and with epsilon = inf
    # every run stops at its first row as converged
    radius, margin = epoch_geometry(sub, 1e-6, 0.1, 0.0)
    kw = dict(epsilon=1e-6, radius_D=radius, margin_d=margin, subroutine=sub, ls_delta_bar=radius)
    SloConfig(**kw)
    with pytest.raises(ValueError, match=message):
        SloConfig(**{**kw, field: value})


@pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
def test_config_rejects_a_time_budget_that_is_not_positive(budget):
    with pytest.raises(ValueError, match="budgets must be positive"):
        SloConfig(epsilon=1e-6, radius_D=0.1, margin_d=0.0, subroutine=Subroutine.GP,
                  time_budget_s=budget)
    SloConfig(epsilon=1e-6, radius_D=0.1, margin_d=0.0, subroutine=Subroutine.GP,
              time_budget_s=1e-9)


def test_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SloConfig(epsilon=1e-6, radius_D=0.1, margin_d=0.0, subroutine=Subroutine.GP, seed=-1)
    SloConfig(epsilon=1e-6, radius_D=0.1, margin_d=0.0, subroutine=Subroutine.GP, seed=0)


def test_config_rejects_a_seed_that_is_not_an_integer():
    # numpy's seeding would raise TypeError only at the first sampled epoch
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
        SloConfig(epsilon=1e-6, radius_D=0.1, margin_d=0.0, subroutine=Subroutine.GP, seed=1.5)
    SloConfig(epsilon=1e-6, radius_D=0.1, margin_d=0.0, subroutine=Subroutine.GP,
              seed=np.int64(1))


def test_quartic_growth_bounds_dominate_true_constants():
    p = QuarticProblem(2)
    # on B(0, r) the Hessian norm is 3 r^2 and third derivative 6 r
    for r in (0.5, 1.0, 2.0):
        assert p.growth1(r) >= 3 * r * r - 1e-12
        assert p.growth2(r) >= 6 * r - 1e-12


def test_time_budget_stops_at_the_first_row_over_it(monkeypatch):
    ticks = iter(range(1000))  # a clock that advances 1 s per reading
    monkeypatch.setattr(sloopt.core, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    result = gd_fixed(QuarticProblem(2), np.ones(2), 1e-6, time_budget_s=3.5)
    assert result.termination is Termination.TimeBudget
    assert result.trace[-1].elapsed_s > 3.5
    assert all(rec.elapsed_s <= 3.5 for rec in result.trace[:-1])
    assert len(result.trace) == 4


@pytest.mark.parametrize("method", ["run_slo", "gd_fixed"])
def test_drive_rejects_a_start_of_another_length(method):
    from sloopt.slo import run_slo

    cfg = SloConfig(epsilon=1e-6, radius_D=0.1, margin_d=0.0, subroutine=Subroutine.GP)
    run = {"run_slo": lambda o, x: run_slo(o, x, cfg),
           "gd_fixed": lambda o, x: gd_fixed(o, x, 1e-3)}
    with pytest.raises(ValueError, match="x_start has 3 entries but the oracle's dimension is 50"):
        run[method](QuarticProblem(50), np.ones(3))


@pytest.mark.parametrize("method", ["run_slo", "gd_fixed", "run_bpg"])
def test_drive_rejects_a_budget_that_allows_no_start(method):
    from sloopt.slo import run_slo

    prob, x0 = QuarticProblem(2), np.array([1.0, 0.5])

    def run(time_budget_s=None, max_grad_evals=1000, max_iters=500):
        if method == "gd_fixed":
            return gd_fixed(prob, x0, 0.01, stop_grad_tol=1e-6, max_iters=max_iters,
                            max_grad_evals=max_grad_evals, time_budget_s=time_budget_s)
        if method == "run_bpg":
            return run_bpg(prob, x0, BpgConfig(4, 1.0, max_iters=max_iters),
                           max_grad_evals=max_grad_evals, time_budget_s=time_budget_s)
        cfg = SloConfig(epsilon=1e-6, radius_D=0.1, margin_d=0.0, subroutine=Subroutine.GP)
        # set after construction, which rejects them too, so that drive's check is the one met
        cfg.time_budget_s, cfg.max_total_grad_evals = time_budget_s, max_grad_evals
        return run_slo(prob, x0, cfg)

    bad = [{"time_budget_s": v} for v in (0.0, -1.0, math.nan)]
    bad += [{"max_grad_evals": v} for v in (0, -1, math.nan)]
    if method != "run_slo":  # run_slo bounds epochs, not steps
        bad += [{"max_iters": v} for v in (-1, math.nan)]
    for budgets in bad:
        with pytest.raises(ValueError, match="budgets must allow the start"):
            run(**budgets)
    assert run(time_budget_s=1e-9, max_grad_evals=1, max_iters=0).trace


@pytest.mark.parametrize("tol", [math.nan, -1.0])
@pytest.mark.parametrize("method", ["gd_fixed", "run_bpg", "drive"])
def test_drive_rejects_a_tolerance_that_is_nan_or_negative(method, tol):
    # g_norm < tol is never true for these, so the run would go on to its iteration budget
    run = {"gd_fixed": lambda: gd_fixed(QuadraticProblem(1), [1.0], 0.5, stop_grad_tol=tol,
                                        max_iters=100),
           "run_bpg": lambda: run_bpg(QuarticProblem(1), np.array([1.0]),
                                      BpgConfig(4, 1.0, stop_grad_tol=tol, max_iters=50)),
           "drive": lambda: sloopt.core.drive(QuadraticProblem(1), [1.0], None, tol, 100)}
    with pytest.raises(ValueError) as info:
        run[method]()
    assert str(info.value) == f"the gradient tolerance must be >= 0, got {tol!r}"


class SampledLinear(LinearProblem):
    growth1 = growth2 = None  # no analytic bound: GP certifies its step and NGD samples L1


@pytest.mark.parametrize("method, rows, evals", [
    ("analytic GP", 2, 1), ("certified GP", 2, 1), ("sampled NGD", 3, 52), ("AGP", 2, 1),
    ("gd", 2, 1)])
def test_a_step_that_returns_its_input_stalls_the_run(method, rows, evals):
    # at 1e14 a step along the slope 1e-3 is below half an ulp, so x - eta * g has x's bits
    # and the gradient memo answers the next row for free; the time budget is a backstop
    from sloopt.slo import run_slo

    x0 = np.array([1e14, 0.0])
    if method == "gd":
        res = gd_fixed(LinearProblem([1e-3, 0.0]), x0, 1e-3, stop_grad_tol=1e-4,
                       time_budget_s=10.0)
    else:
        prob = (LinearProblem if method == "analytic GP" else SampledLinear)([1e-3, 0.0])
        sub = {"sampled NGD": Subroutine.NGD, "AGP": Subroutine.AGP}.get(method, Subroutine.GP)
        D, d = epoch_geometry(sub, 1e-8, 0.1, 0.0)
        res = run_slo(prob, x0, SloConfig(epsilon=1e-8, radius_D=D, margin_d=d, subroutine=sub,
                                          time_budget_s=10.0))
    # NGD's 50 sampled gradients displace the memo, so its second row pays once more
    assert res.termination is Termination.Stalled
    assert (len(res.trace), res.grad_evals) == (rows, evals)
    assert [rec.f_value for rec in res.trace] == [1e11] * rows


def _run_to_stop(kind, monkeypatch):
    from sloopt.problems import generate_planted_tensor
    from sloopt.slo import run_slo

    quartic, ones = QuarticProblem(2), np.ones(2)
    if kind == "gradient_tolerance":
        return quartic, gd_fixed(quartic, ones, 0.1, stop_grad_tol=0.5)
    if kind == "diverged":  # x1 = 2 - 8 = -6, x2 = -6 + 216 = 210, ...
        return QuarticProblem(1), gd_fixed(QuarticProblem(1), np.array([2.0]), 1.0)
    if kind == "stalled":  # 1 - 1e-20 * 1 rounds to 1
        return quartic, gd_fixed(quartic, ones, 1e-20)
    if kind == "eval_budget_at_a_row":
        return quartic, gd_fixed(quartic, ones, 1e-3, max_grad_evals=5)
    if kind.startswith("eval_budget_"):  # the first epoch's sampled L1 spends evaluations 2-51
        prob, _ = generate_planted_tensor(3, 3, 2, 0.5, 1.5, 0)
        D, d = epoch_geometry(Subroutine.NGD, 1e-6, 0.1, 0.0)
        budget = 20 if kind == "eval_budget_in_a_step" else 51
        return prob, run_slo(prob, np.full(prob.dim, 0.3),
                             SloConfig(epsilon=1e-6, radius_D=D, margin_d=d,
                                       subroutine=Subroutine.NGD, max_total_grad_evals=budget))
    if kind == "time_budget":
        ticks = iter(range(1000))  # a clock that advances 1 s per reading
        monkeypatch.setattr(sloopt.core, "time",
                            types.SimpleNamespace(monotonic=lambda: next(ticks)))
        return quartic, gd_fixed(quartic, ones, 1e-6, time_budget_s=3.5)
    if kind == "iteration_budget":
        return quartic, gd_fixed(quartic, ones, 1e-3, max_iters=3)
    cfg = SloConfig(epsilon=1e-6, radius_D=0.5, margin_d=0.5, subroutine=Subroutine.LS,
                    ls_delta_bar=0.5, max_epochs=2)
    return QuarticProblem(1), run_slo(QuarticProblem(1), np.array([1.0]), cfg)


@pytest.mark.parametrize("kind", [
    "gradient_tolerance", "diverged", "stalled", "eval_budget_at_a_row", "eval_budget_in_a_step",
    "eval_budget_at_the_next_row", "time_budget", "iteration_budget", "epoch_budget"])
def test_every_stop_returns_its_last_trace_row(kind, monkeypatch):
    # "at the next row": a step spent the budget and moved x, whose gradient is then not made
    prob, res = _run_to_stop(kind, monkeypatch)
    assert res.termination.value == kind.split("_at_")[0].replace("_in_a_step", "")
    last = res.trace[-1]
    assert res.final_grad_norm == last.grad_norm
    assert res.epochs_completed == last.epoch - 1
    assert repr(prob.value(res.final_point)) == repr(last.f_value)
    if kind in ("eval_budget_in_a_step", "eval_budget_at_the_next_row"):
        assert res.grad_evals > last.cum_grad_evals  # no row records the last step's evaluations
    else:
        assert res.grad_evals == last.cum_grad_evals
