import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloopt.core import SloConfig, Subroutine, Termination, epoch_geometry
from sloopt.problems import (LinearNetProblem, QuarticProblem, generate_planted_labels,
                             generate_planted_tensor, uniform_init)
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


@pytest.mark.parametrize("dropped", ["first", "second", "last"])
def test_epoch_descent_rejects_a_trace_missing_an_epoch_start(dropped):
    cfg = gp_config()
    res = run_slo(QuarticProblem(1), np.array([1.0]), cfg)
    n = res.epochs_completed
    tau = {"first": 1, "second": 2, "last": n + 1}[dropped]
    res.trace = [rec for rec in res.trace if (rec.epoch, rec.iter) != (tau, 0)]
    lo = tau - 1 if dropped == "last" else 1
    with pytest.raises(ValueError) as info:
        check_epoch_descent(res, cfg)
    assert str(info.value) == f"trace is missing the start of epoch {lo} or {lo + 1}"


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


@pytest.mark.parametrize("config", [
    gp_config(), agp_config(),
    SloConfig(epsilon=EPS, radius_D=0.1, margin_d=0.04, subroutine=Subroutine.NGD)],
    ids=["GP", "AGP", "NGD"])
def test_start_that_meets_the_tolerance_spends_no_estimate(config):
    # the planted components are an exact minimizer, so the start's gradient ends the
    # run; GP and AGP certify their constants and sample none, and NGD would spend 50
    # more evaluations had it sampled L1 before the tolerance test
    prob, comps = generate_planted_tensor(4, 3, 2, 0.5, 1.5, 0)
    grads = _log_calls(prob, "gradient")
    res = run_slo(prob, comps.reshape(-1), config)
    assert res.termination is Termination.GradientTolerance
    assert len(grads) == 1 and res.trace[-1].cum_grad_evals == 1


def test_ls_steps_reuse_the_traced_value(monkeypatch):
    import sloopt.slo as slo_mod

    trials, at_x = [], []
    a_ls = slo_mod.a_ls

    def logged(oracle, x, *args, **kwargs):
        value = oracle.value
        oracle.value = lambda p: trials.append(p) or at_x.append(np.array_equal(p, x)) or value(p)
        try:
            return a_ls(oracle, x, *args, **kwargs)
        finally:
            del oracle.value

    monkeypatch.setattr(slo_mod, "a_ls", logged)
    cfg = SloConfig(epsilon=EPS, radius_D=0.5, margin_d=0.5,
                    subroutine=Subroutine.LS, ls_delta_bar=0.5)
    prob = QuarticProblem(3)
    values = _log_calls(prob, "value")
    res = run_slo(prob, np.array([1.0, -0.5, 0.2]), cfg)
    steps = len(res.trace) - 1
    assert res.termination is Termination.GradientTolerance and len(trials) > steps
    # one value per trace row, then one per Armijo trial point, none at the step's own x;
    # value_evals counts the trials alone
    assert len(values) == len(res.trace) + len(trials) and not any(at_x)
    assert res.value_evals == len(trials)


def test_ls_starts_each_search_one_index_below_the_last_accepted_one(monkeypatch):
    import sloopt.slo as slo_mod

    starts, accepted = [], []
    a_ls = slo_mod.a_ls

    def logged(*args, j_start=0, **kwargs):
        out = a_ls(*args, j_start=j_start, **kwargs)
        starts.append(j_start)
        accepted.append(out[2])
        return out

    monkeypatch.setattr(slo_mod, "a_ls", logged)
    cfg = SloConfig(epsilon=EPS, radius_D=0.5, margin_d=0.5,
                    subroutine=Subroutine.LS, ls_delta_bar=0.5)
    res = run_slo(QuarticProblem(3), np.array([1.0, -0.5, 0.2]), cfg)
    assert res.termination is Termination.GradientTolerance and max(accepted) > 1
    assert starts == [0] + [max(0, j - 1) for j in accepted[:-1]]


def test_ls_on_a_hard_planted_tensor_makes_few_value_calls():
    from sloopt import harness

    # d = 8, k = 5, m = 3, instance seed 1, round 1: the search from the cap made 62,750
    # value calls here, the search from the last accepted step 14,845, with the same gradients
    spec = harness.ExperimentSpec(problem="tensor", methods=("ls",), init_c=0.5, seed=1,
                                  problem_params={"tensor_d": 8, "tensor_k": 5, "tensor_m": 3})
    oracle, _ = harness.build_problem(spec)
    res = spec.runners["ls"](oracle, uniform_init(oracle.dim, spec.init_c, spec.seed + 1))
    assert res.termination is Termination.GradientTolerance and res.grad_evals == 4199
    assert res.value_evals < 20_000


def test_ls_on_the_autoencoder_runs_the_forward_pass_once_per_point():
    from sloopt import harness

    # the net-ae benchmark instance, round 1 at seed 7: where a search accepts a shorter step
    # after the next longer trial failed, the oracle's memo still holds the accepted point
    spec = harness.ExperimentSpec(problem="autoencoder", methods=("ls",), init_c=0.1, seed=7)
    prob, _ = harness.build_problem(spec)
    points = _log_calls(prob, "_forward")
    res = spec.runners["ls"](prob, uniform_init(prob.dim, spec.init_c, spec.seed + 1))
    assert res.termination is Termination.GradientTolerance and res.grad_evals > 1000
    keys = [p.tobytes() for p in points]
    assert len(keys) == len(set(keys))


def test_pgd_scans_the_anchor_and_each_new_point_once_per_step(monkeypatch):
    import sloopt.agp
    import sloopt.core
    import sloopt.subroutines
    from sloopt import harness

    # the quartic-50 benchmark instance, round 1 at seed 7. a_gp reads the finiteness of x and
    # x+ off their distances to the anchor, so a step scans the anchor and, in the oracle's
    # _at, the new point. Once per run drive and _at scan the start, and once per epoch
    # estimate_l1 scans the anchor.
    scans, check_finite = [], sloopt.core.check_finite
    for module in (sloopt.core, sloopt.subroutines, sloopt.agp):
        monkeypatch.setattr(module, "check_finite",
                            lambda v, what="vector": scans.append(what) or check_finite(v, what))
    spec = harness.ExperimentSpec(problem="quartic", epsilon=1e-10, margin=0.01, init_c=1.0,
                                  seed=7, budget_evals=200_000, problem_params={"quartic_dim": 50})
    prob, _ = harness.build_problem(spec)
    res = spec.runners["pgd"](prob, uniform_init(prob.dim, spec.init_c, spec.seed + 1))
    steps, epochs = len(res.trace) - 1, res.epochs_completed + 1
    assert res.termination is Termination.GradientTolerance and steps > 1000
    assert len(scans) <= 2 * steps + 2 + epochs


def test_ngd_scans_each_new_point_twice_per_step(monkeypatch):
    import sloopt.agp
    import sloopt.core
    import sloopt.subroutines
    from sloopt import harness

    # the quartic-50 benchmark instance, round 1 at seed 7. Given the gradient, whose norm
    # checks it, a_ng scans only its output, and the oracle's _at scans that point again. Once
    # per run drive and _at scan the start, and once per epoch estimate_l1 scans the anchor.
    scans, check_finite = [], sloopt.core.check_finite
    for module in (sloopt.core, sloopt.subroutines, sloopt.agp):
        monkeypatch.setattr(module, "check_finite",
                            lambda v, what="vector": scans.append(what) or check_finite(v, what))
    spec = harness.ExperimentSpec(problem="quartic", methods=("ngd",), epsilon=1e-10,
                                  margin=0.01, init_c=1.0, seed=7, budget_evals=200_000,
                                  problem_params={"quartic_dim": 50})
    prob, _ = harness.build_problem(spec)
    res = spec.runners["ngd"](prob, uniform_init(prob.dim, spec.init_c, spec.seed + 1))
    steps, epochs = len(res.trace) - 1, res.epochs_completed + 1
    assert res.termination is Termination.GradientTolerance and steps > 1000
    assert scans.count("a_ng output") == steps
    assert len(scans) <= 2 * steps + epochs + 2


def test_eval_budget_is_a_hard_cap_inside_the_agp_inner_loop(monkeypatch):
    import sloopt.slo as slo_mod

    raised = []
    a_agp = slo_mod.a_agp

    def logged(*args, **kwargs):
        try:
            return a_agp(*args, **kwargs)
        except Exception as exc:
            raised.append(type(exc).__name__)
            raise

    monkeypatch.setattr(slo_mod, "a_agp", logged)
    prob, _ = generate_planted_tensor(3, 3, 2, 0.5, 1.5, 0)
    grads = _log_calls(prob, "gradient")
    # unbounded, the fifth a_agp call spends the 8th to 28th evaluations
    res = run_slo(prob, np.full(prob.dim, 0.3), agp_config(max_total_grad_evals=20))
    assert raised == ["_BudgetSpent"]
    assert res.termination is Termination.EvalBudget
    assert len(grads) == 20 and res.trace[-1].cum_grad_evals < 8
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


@pytest.mark.parametrize("config", [
    gp_config(seed=5, max_epochs=3),
    SloConfig(epsilon=EPS, radius_D=0.1, margin_d=0.04, subroutine=Subroutine.NGD,
              seed=5, max_epochs=3),
    agp_config(seed=5, max_epochs=3)], ids=["GP", "NGD", "AGP"])
def test_sampled_constants_use_fixed_samples_seed_and_safety_factor(monkeypatch, config):
    # NGD samples L1 every epoch and steps with 1.5 x each sample; GP and AGP sample
    # nothing, since each of their steps certifies its own constants
    # (test_gp_starts_each_step_from_half_the_last_certified_constant,
    # test_agp_certification_... in test_agp.py)
    import sloopt.slo as slo_mod

    events = []

    def logged(name, fn):
        def run(oracle, center, radius, **kwargs):
            # the anchor's gradient comes from drive's memo: each sample is one new evaluation
            before = oracle.grad_evals
            est = fn(oracle, center, radius, **kwargs)
            events.append((name, radius, oracle.grad_evals - before, kwargs.get("seed"), est))
            return est
        return run

    def stepped(oracle, x, l1, *args, **kwargs):
        steps.append((l1, events[-1:]))
        return a_ng(oracle, x, l1, *args, **kwargs)

    steps, a_ng = [], slo_mod.a_ng
    for name in ("estimate_l1", "estimate_l2"):
        monkeypatch.setattr(slo_mod, name, logged(name, getattr(slo_mod, name)))
    monkeypatch.setattr(slo_mod, "a_ng", stepped)
    prob, _ = generate_planted_tensor(3, 3, 2, 0.5, 1.5, 0)
    res = run_slo(prob, np.full(prob.dim, 0.3), config)
    assert res.termination is Termination.EpochBudget
    samples = config.subroutine is Subroutine.NGD
    assert [e[0] for e in events] == ["estimate_l1"] * 3 * samples
    for i, (_, radius, new_evals, seed, est) in enumerate(events):
        assert (radius, new_evals, seed) == (config.radius_D, 50, (5, i + 1))
        assert est.method == "sampled"
    assert bool(steps) == samples
    for l1, recent in steps:
        assert l1 == 1.5 * recent[0][4].value


def _log_a_gp(monkeypatch):
    """Log each a_gp call as (center, x, eta, f_x, returned value)."""
    import sloopt.slo as slo_mod

    calls, a_gp = [], slo_mod.a_gp

    def logged(oracle, x, center, eta, r, grad=None, f_x=None):
        out = a_gp(oracle, x, center, eta, r, grad=grad, f_x=f_x)
        calls.append((center, x, eta, f_x, out))
        return out

    monkeypatch.setattr(slo_mod, "a_gp", logged)
    return calls


def test_gp_starts_each_step_from_half_the_last_certified_constant(monkeypatch):
    calls = _log_a_gp(monkeypatch)
    prob, _ = generate_planted_tensor(4, 3, 3, 0.5, 1.5, 1)
    res = run_slo(prob, uniform_init(prob.dim, 0.5, 11),
                  gp_config(radius_D=0.5, seed=5, max_epochs=5))
    assert res.termination is Termination.EpochBudget and res.grad_evals == len(res.trace)
    l_prev, first_etas = 1.0, []
    for i, (center, x, eta, f_x, (_, eta_out)) in enumerate(calls):
        if i == 0 or center is not calls[i - 1][0]:
            # the epoch halves the carried constant, then the step halves it again
            first_etas.append(eta)
            assert eta == 1.0 / max(1.0, max(1.0, l_prev / 2) / 2)
        else:
            assert eta == 1.0 / max(1.0, l_prev / 2)
        assert f_x == prob.value(x) and eta_out <= eta
        l_prev = 1.0 / eta_out
    # epoch 3 certifies L = 8 at its first step, and the next steps start from 4, 2, 1
    assert first_etas == [1.0, 1.0, 1.0, 1.0, 1.0]
    assert [1.0 / eta for _, _, eta, _, _ in calls[2:6]] == [1.0, 4.0, 2.0, 1.0]


def test_certified_gp_stepsize_grows_back_as_the_curvature_falls(monkeypatch):
    # ||x||^4 / 4 certified without growth1 from far out: the Hessian norm 3||x||^2
    # falls along the path, so a later step may take a longer certified step
    calls = _log_a_gp(monkeypatch)
    prob = QuarticProblem(2)
    prob.growth1 = None
    res = run_slo(prob, np.array([3.0, -1.0]), gp_config(radius_D=2.0, max_epochs=3))
    assert res.termination is Termination.GradientTolerance
    grew = 0
    for i, (center, x, _, f_x, (x_next, eta)) in enumerate(calls):
        gap = x_next - x
        assert f_x - prob.value(x_next) >= float(np.dot(gap, gap)) / (2 * eta)
        grew += i > 0 and center is calls[i - 1][0] and eta > calls[i - 1][4][1]
    assert grew >= 1


def test_gp_with_analytic_growth_steps_at_one_over_l1_without_a_test(monkeypatch):
    calls = _log_a_gp(monkeypatch)
    prob = QuarticProblem(2)
    values = _log_calls(prob, "value")
    res = run_slo(prob, np.array([1.0, -0.5]), gp_config(max_epochs=3))
    assert calls and len(values) == len(res.trace)
    for center, _, eta, f_x, out in calls:
        assert f_x is None and isinstance(out, np.ndarray)
        assert eta == 1.0 / max(1.0, prob.growth1(np.linalg.norm(center) + 0.1))


def test_agp_with_analytic_growth_carries_its_certified_constants(monkeypatch):
    import sloopt.slo as slo_mod

    calls, a_agp = [], slo_mod.a_agp

    def raised(oracle, xbar, l1, l2, anchor, radius_D, epsilon, grad=None, f_x=None):
        # the quartic certifies every step at the pair it is given, so report each
        # pair one larger, to see run_slo carry whatever a step returns
        out, outcome, l1_out, l2_out = a_agp(oracle, xbar, l1, l2, anchor, radius_D,
                                             epsilon, grad=grad, f_x=f_x)
        step = (out, outcome, l1_out + 1.0, l2_out + 1.0)
        calls.append((xbar, anchor, l1, l2, f_x, step))
        return step

    def unexpected(*args, **kwargs):
        raise AssertionError("agp estimated a constant")

    monkeypatch.setattr(slo_mod, "a_agp", raised)
    for name in ("estimate_l1", "estimate_l2"):
        monkeypatch.setattr(slo_mod, name, unexpected)
    prob = QuarticProblem(2)
    run_slo(prob, np.array([0.3, 0.2]), agp_config(max_epochs=3))
    assert calls[0][2:4] == (1.0, 1.0)
    prev, firsts = (1.0, 1.0), []
    for i, (xbar, anchor, l1, l2, f_x, (_, _, l1_out, l2_out)) in enumerate(calls):
        if i > 0 and anchor is not calls[i - 1][1]:
            # a new epoch halves the carried pair, floored at 1
            prev = tuple(max(1.0, c / 2.0) for c in prev)
            firsts.append(prev)
        assert (l1, l2) == prev and f_x == prob.value(xbar)
        prev = (l1_out, l2_out)
    # epoch 2 ends at (12, 12), so epoch 3 starts from (6, 6)
    assert firsts == [(1.0, 1.0), (6.0, 6.0)]


@st.composite
def planted_instances(draw):
    """A small planted tensor or linear net without analytic growth, and a start."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        d = draw(st.integers(2, 4))
        prob, _ = generate_planted_tensor(d, 3, draw(st.integers(1, d)), 0.5, 1.5, seed)
    else:
        n, h = draw(st.integers(2, 3)), draw(st.integers(1, 3))
        data = np.random.default_rng(seed).standard_normal((n, 8))
        shapes = [(h, n), (n, h)]
        labels = generate_planted_labels(shapes, data, seed)[0] if draw(st.booleans()) else None
        prob = LinearNetProblem(data, shapes, "supervised" if labels is not None
                                else "autoencoder", labels)
    return prob, uniform_init(prob.dim, draw(st.sampled_from([0.3, 1.0])), seed)


@settings(max_examples=50, deadline=None)
@given(planted_instances(), st.sampled_from([0.05, 0.2, 0.5]))
def test_every_certified_gp_step_descends_inside_the_epoch_ball(instance, radius):
    prob, x0 = instance
    cfg = gp_config(epsilon=1e-4, radius_D=radius, max_total_grad_evals=2000)
    with pytest.MonkeyPatch.context() as mp:
        calls = _log_a_gp(mp)
        res = run_slo(prob, x0, cfg)
    assert res.grad_evals == len(res.trace)
    for center, x, _, _, (x_next, eta) in calls:
        move = x_next - x
        assert prob.value(x) - prob.value(x_next) >= move.dot(move) / (2 * eta)
        assert np.linalg.norm(x_next - center) <= radius + 1e-12 * max(1.0, radius)
    assert min(check_epoch_descent(res, cfg), default=0.0) >= -1e-10


def _floor_instance(kind, seed):
    if kind == "tensor":
        return generate_planted_tensor(4, 3, 2, 0.5, 1.5, seed)[0]
    if kind == "autoencoder":  # 3-2-3 on 10 samples
        data = np.random.default_rng(seed).standard_normal((3, 10))
        return LinearNetProblem(data, [(2, 3), (3, 2)], "autoencoder")
    return QuarticProblem(5)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(list(Subroutine)), st.sampled_from(["tensor", "autoencoder", "quartic"]),
       st.integers(0, 2**16), st.sampled_from([0.1, 0.5, 1.0]), st.sampled_from([1e-4, 1e-6]),
       st.sampled_from([0.01, 0.1, 0.5]))
def test_every_subroutine_meets_its_epoch_floor(sub, kind, seed, c, eps, radius):
    prob = _floor_instance(kind, seed)
    D, d = epoch_geometry(sub, eps, radius, 0.0)
    cfg = SloConfig(epsilon=eps, radius_D=D, margin_d=d, subroutine=sub, ls_delta_bar=D,
                    max_total_grad_evals=20_000)
    res = run_slo(prob, uniform_init(prob.dim, c, seed), cfg)
    assert res.termination is not Termination.Diverged
    assert min(check_epoch_descent(res, cfg), default=0.0) >= -1e-10


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
    assert all(p == LsParams(sigma=0.9, theta=0.5, alpha=1.0, delta_bar=0.5)
               for p in params)
