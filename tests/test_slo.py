import math

import numpy as np
import pytest

from sloopt.core import SloConfig, Subroutine, Termination
from sloopt.problems import QuarticProblem, generate_planted_tensor
from sloopt.slo import ContractViolation, check_epoch_descent, run_slo

EPS = 1e-6
ROOT_EPS = math.sqrt(EPS)


def gp_config(**kw):
    base = dict(epsilon=EPS, radius_D=0.1, margin_d=0.0,
                subroutine=Subroutine.GP)
    base.update(kw)
    return SloConfig(**base)


def test_start_at_stationary_point_returns_immediately():
    cfg = gp_config()
    res = run_slo(QuarticProblem(1), np.array([1e-3]), cfg)
    assert res.termination is Termination.GradientTolerance
    assert res.epochs_completed == 0
    assert len(res.trace) == 1 and res.trace[0].cum_grad_evals == 1


def test_quartic_gp_run_reaches_tolerance():
    cfg = gp_config()
    res = run_slo(QuarticProblem(1), np.array([1.0]), cfg)
    assert res.termination is Termination.GradientTolerance
    assert res.final_grad_norm <= ROOT_EPS
    # |grad| = |x^3| at the final point
    assert abs(res.final_point[0]) ** 3 <= ROOT_EPS
    for rec in res.trace:
        assert rec.dist_from_anchor <= 0.1 + 1e-12
    f_vals = [rec.f_value for rec in res.trace]
    assert all(a >= b for a, b in zip(f_vals, f_vals[1:]))


def _reference_gp_trajectory(x0, eps, big_d):
    """Scalar replay of ball-truncated gradient descent on f = x^4/4."""
    p = QuarticProblem(1)
    xs = []
    x = x0
    while True:
        anchor = x
        l1 = max(1.0, p.growth1(abs(anchor) + big_d))
        while True:
            xs.append(x)
            if abs(x) ** 3 < math.sqrt(eps):
                return xs
            cand = x - x ** 3 / l1
            if abs(cand - anchor) >= big_d:
                x = anchor + math.copysign(big_d, cand - anchor)
                break
            x = cand


def test_quartic_gp_matches_scalar_gradient_descent_reference():
    cfg = gp_config()
    res = run_slo(QuarticProblem(1), np.array([1.0]), cfg)
    ref = _reference_gp_trajectory(1.0, EPS, 0.1)
    # reconstruct iterate positions from recorded f-values (x stays > 0)
    rec_x = [(4.0 * rec.f_value) ** 0.25 for rec in res.trace]
    assert len(rec_x) == len(ref)
    np.testing.assert_allclose(rec_x, ref, atol=1e-9)


def test_epoch_count_bound():
    cfg = gp_config()
    res = run_slo(QuarticProblem(1), np.array([1.0]), cfg)
    delta_f = 0.25  # f(1) - inf f
    bound = math.ceil(4 * delta_f / (ROOT_EPS * cfg.radius_D)) + 1
    assert res.epochs_completed + 1 <= bound


def test_epoch_descent_margins_nonnegative():
    cfg = gp_config()
    res = run_slo(QuarticProblem(1), np.array([1.0]), cfg)
    assert res.epochs_completed >= 2
    margins = check_epoch_descent(res, cfg)
    assert len(margins) == res.epochs_completed
    assert min(margins) >= -1e-10


def test_single_epoch_run_has_no_descent_margins():
    cfg = gp_config()
    res = run_slo(QuarticProblem(1), np.array([0.05]), cfg)
    assert res.epochs_completed == 0
    assert check_epoch_descent(res, cfg) == []


def test_ngd_margins_and_transition_shell():
    d = ROOT_EPS
    cfg = SloConfig(epsilon=EPS, radius_D=ROOT_EPS / 2 + 2 * d, margin_d=d,
                    subroutine=Subroutine.NGD, max_epochs=2_000_000)
    res = run_slo(QuarticProblem(1), np.array([0.2]), cfg)
    assert res.termination is Termination.GradientTolerance
    assert min(check_epoch_descent(res, cfg), default=0) >= -1e-10
    # every record stays inside the epoch ball, and epoch/iter counters are
    # consistent: each epoch restarts iter at 0 and increments by one
    by_epoch = {}
    for rec in res.trace:
        assert rec.dist_from_anchor <= cfg.radius_D + 1e-12
        by_epoch.setdefault(rec.epoch, []).append(rec.iter)
    for iters in by_epoch.values():
        assert iters == list(range(len(iters)))


def test_ls_one_iteration_per_epoch():
    cfg = SloConfig(epsilon=EPS, radius_D=0.5, margin_d=0.5,
                    subroutine=Subroutine.LS, ls_delta_bar=0.5)
    res = run_slo(QuarticProblem(1), np.array([1.0]), cfg)
    assert res.termination is Termination.GradientTolerance
    # every epoch holds exactly one step: all records have iter 0
    assert all(rec.iter == 0 for rec in res.trace)
    assert res.epochs_completed == len(res.trace) - 1


def test_epoch_budget_traces_the_final_point():
    cfg = SloConfig(epsilon=EPS, radius_D=0.5, margin_d=0.5,
                    subroutine=Subroutine.LS, ls_delta_bar=0.5, max_epochs=2)
    res = run_slo(QuarticProblem(1), np.array([1.0]), cfg)
    assert res.termination is Termination.EpochBudget
    assert res.epochs_completed == 2
    assert [(rec.epoch, rec.iter) for rec in res.trace] == [(1, 0), (2, 0), (3, 0)]
    assert res.trace[-1].dist_from_anchor == 0.0
    assert res.trace[-1].f_value == QuarticProblem(1).value(res.final_point)


def test_agp_run_on_tensor_problem():
    eps = 1e-6
    d = 2 * eps ** 0.25
    cfg = SloConfig(epsilon=eps, radius_D=3 * d, margin_d=d,
                    subroutine=Subroutine.AGP, max_total_grad_evals=200_000)
    prob, _ = generate_planted_tensor(3, 3, 2, 0.5, 1.5, 0)
    x0 = np.full(prob.dim, 0.3)
    res = run_slo(prob, x0, cfg)
    assert res.termination is Termination.GradientTolerance
    assert min(check_epoch_descent(res, cfg), default=0) >= -1e-10
    f_vals = [rec.f_value for rec in res.trace]
    assert all(a >= b - 1e-12 for a, b in zip(f_vals, f_vals[1:]))


def test_eval_budget_termination():
    cfg = gp_config(max_total_grad_evals=5)
    res = run_slo(QuarticProblem(1), np.array([1.0]), cfg)
    assert res.termination is Termination.EvalBudget
    assert res.trace[-1].cum_grad_evals >= 5


def test_total_travel_bound():
    cfg = gp_config()
    res = run_slo(QuarticProblem(1), np.array([1.0]), cfg)
    # reconstruct positions from f (iterates stay positive on this run)
    xs = [(4.0 * rec.f_value) ** 0.25 for rec in res.trace]
    for rec, x in zip(res.trace, xs):
        assert abs(x - 1.0) <= rec.epoch * cfg.radius_D + 1e-9


def test_contract_violation_is_a_hard_error(monkeypatch):
    # the bundled subroutines all respect the ball by construction, so a
    # breach can only come from a buggy subroutine; simulate one
    import sloopt.slo as slo_mod

    monkeypatch.setattr(slo_mod, "a_gp",
                        lambda oracle, x, center, eta, r, grad=None: x + 5.0)
    with pytest.raises(ContractViolation):
        run_slo(QuarticProblem(1), np.array([1.0]), gp_config())
