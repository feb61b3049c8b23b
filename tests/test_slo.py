import math

import numpy as np
import pytest

from sloopt.core import SloConfig, Subroutine, Termination
from sloopt.problems import QuarticProblem, generate_planted_tensor
from sloopt.slo import ContractViolation, check_epoch_descent, run_slo
from sloopt.subroutines import LsParams

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
    cfg = agp_config(max_total_grad_evals=200_000)
    prob, _ = generate_planted_tensor(3, 3, 2, 0.5, 1.5, 0)
    x0 = np.full(prob.dim, 0.3)
    res = run_slo(prob, x0, cfg)
    assert res.termination is Termination.GradientTolerance
    assert min(check_epoch_descent(res, cfg), default=0) >= -1e-10
    f_vals = [rec.f_value for rec in res.trace]
    assert all(a >= b - 1e-12 for a, b in zip(f_vals, f_vals[1:]))


def _log_calls(prob, name):
    """Replace the instance's ``name`` method by one that logs each call."""
    calls, fn = [], getattr(prob, name)
    setattr(prob, name, lambda x: calls.append(np.array(x)) or fn(x))
    return calls


def agp_config(**kw):
    d = 2 * EPS ** 0.25
    return SloConfig(epsilon=EPS, radius_D=3 * d, margin_d=d, subroutine=Subroutine.AGP, **kw)


@pytest.mark.parametrize("config", [gp_config(), agp_config()], ids=["GP", "AGP"])
def test_start_that_meets_the_tolerance_spends_no_estimate(config):
    # the planted components are an exact minimizer; estimating the sampled
    # constants before the tolerance test would cost 150 (GP) or 451 (AGP)
    prob, comps = generate_planted_tensor(4, 3, 2, 0.5, 1.5, 0)
    grads = _log_calls(prob, "gradient")
    res = run_slo(prob, comps.reshape(-1), config)
    assert res.termination is Termination.GradientTolerance
    assert len(grads) == 1 and res.trace[-1].cum_grad_evals == 1


def test_ls_steps_reuse_the_traced_value(monkeypatch):
    import sloopt.slo as slo_mod

    backtracks = []
    a_ls = slo_mod.a_ls

    def logged(*args, **kwargs):
        out = a_ls(*args, **kwargs)
        backtracks.append(out[2])
        return out

    monkeypatch.setattr(slo_mod, "a_ls", logged)
    cfg = SloConfig(epsilon=EPS, radius_D=0.5, margin_d=0.5,
                    subroutine=Subroutine.LS, ls_delta_bar=0.5)
    prob = QuarticProblem(3)
    values = _log_calls(prob, "value")
    res = run_slo(prob, np.array([1.0, -0.5, 0.2]), cfg)
    assert res.termination is Termination.GradientTolerance and sum(backtracks) > 0
    # one value per trace row, then one per Armijo trial point
    assert len(values) == len(res.trace) + sum(1 + j for j in backtracks)


def test_eval_budget_is_a_hard_cap_inside_the_agp_inner_loop(monkeypatch):
    import sloopt.slo as slo_mod

    raised = []
    a_agp = slo_mod.a_agp

    def logged(*args):
        try:
            return a_agp(*args)
        except Exception as exc:
            raised.append(type(exc).__name__)
            raise

    monkeypatch.setattr(slo_mod, "a_agp", logged)
    prob, _ = generate_planted_tensor(3, 3, 2, 0.5, 1.5, 0)
    grads = _log_calls(prob, "gradient")
    # unbounded, the fourth a_agp call spends the 629th to 682nd evaluations
    res = run_slo(prob, np.full(prob.dim, 0.3), agp_config(max_total_grad_evals=650))
    assert raised == ["_BudgetSpent"]
    assert res.termination is Termination.EvalBudget
    assert len(grads) == 650 and res.trace[-1].cum_grad_evals < 629
    last = res.trace[-1]
    assert (res.final_grad_norm, prob.value(res.final_point)) == (last.grad_norm, last.f_value)
    assert res.epochs_completed == last.epoch - 1 and res.epochs_completed > 0


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


@pytest.mark.parametrize("config, ball_over_D", [(gp_config(seed=5, max_epochs=3), 1),
                                                 (agp_config(seed=5, max_epochs=3), 3)],
                         ids=["GP", "AGP"])
def test_sampled_constants_use_fixed_samples_seed_and_safety_factor(monkeypatch, config,
                                                                    ball_over_D):
    import sloopt.slo as slo_mod

    events = []

    def logged(name, fn):
        def run(oracle, center, radius, n_samples, seed):
            est = fn(oracle, center, radius, n_samples, seed)
            events.append((name, radius, n_samples, seed, est))
            return est
        return run

    for name in ("estimate_l1", "estimate_l2"):
        monkeypatch.setattr(slo_mod, name, logged(name, getattr(slo_mod, name)))
    a_gp = slo_mod.a_gp
    monkeypatch.setattr(slo_mod, "a_gp", lambda oracle, x, center, eta, r, grad=None:
                        events.append(("a_gp", eta)) or a_gp(oracle, x, center, eta, r, grad))
    prob, _ = generate_planted_tensor(3, 3, 2, 0.5, 1.5, 0)
    res = run_slo(prob, np.full(prob.dim, 0.3), config)
    assert res.termination is Termination.EpochBudget
    names = ["estimate_l1"] + (["estimate_l2"] if config.subroutine is Subroutine.AGP else [])
    estimates = [e for e in events if e[0] != "a_gp"]
    assert [e[0] for e in estimates] == names * 3
    for i, (_, radius, n_samples, seed, est) in enumerate(estimates):
        assert (radius, n_samples, seed) == (ball_over_D * config.radius_D, 50,
                                             (5, i // len(names) + 1))
        assert est.method == "sampled"
    l1_est = None
    for e in events:
        if e[0] == "estimate_l1":
            l1_est = e[4]
        elif e[0] == "a_gp":
            assert e[1] == 1 / (1.5 * l1_est.value)
    assert (config.subroutine is Subroutine.GP) == any(e[0] == "a_gp" for e in events)


def test_ls_hands_a_ls_the_fixed_armijo_constants(monkeypatch):
    import sloopt.slo as slo_mod

    params = []
    a_ls = slo_mod.a_ls
    monkeypatch.setattr(slo_mod, "a_ls", lambda oracle, x, d, p, **kw:
                        params.append(p) or a_ls(oracle, x, d, p, **kw))
    cfg = SloConfig(epsilon=EPS, radius_D=0.5, margin_d=0.5,
                    subroutine=Subroutine.LS, ls_delta_bar=0.5)
    run_slo(QuarticProblem(1), np.array([1.0]), cfg)
    assert params
    assert all(p == LsParams(sigma=0.9, theta=0.5, alpha=1.0, max_backtracks=200, delta_bar=0.5)
               for p in params)
