"""Epoch-managed solver loop: local constants, truncation, margin transitions."""

from __future__ import annotations

import math

from .agp import a_agp
from .core import ObjectiveOracle, RunResult, SloConfig, Subroutine, drive, norm
from .lipschitz import estimate_l1, estimate_l2  # the benchmark tracer wraps slo.estimate_l2
from .subroutines import LsParams, a_gp, a_ls, a_ng

# Each sampled estimate (NGD without growth1) draws this many points, and the epoch uses
# the sampled value times this factor, since a sample maximum is only a lower bound.
LIPSCHITZ_SAMPLES = 50
LIPSCHITZ_SAFETY = 1.5


class ContractViolation(RuntimeError):
    """A subroutine returned a point outside the epoch ball."""


def run_slo(oracle: ObjectiveOracle, x_start, config: SloConfig) -> RunResult:
    """Run the epoch framework with the configured subroutine until the
    gradient tolerance or a budget is reached."""
    sub, D, d = config.subroutine, config.radius_D, config.margin_d
    slack = 1e-12 * max(1.0, D)
    ls_params = LsParams(delta_bar=config.ls_delta_bar)
    # One pair L = [L1, L2] per run, one rule per subroutine: certified GP (no growth1)
    # and every AGP run carry L, halve it (floored at 1) per epoch and write back what
    # certified each step (a GP step starts from half that); analytic GP and NGD set L[0]
    # per epoch from estimate_l1 on the ball D; LS ignores L.
    carry = sub is Subroutine.AGP or (sub is Subroutine.GP and oracle.growth1 is None)
    L = [1.0, 1.0]

    def start_epoch(counting, anchor, tau):
        if carry:
            L[:] = [max(1.0, c / 2.0) for c in L]
        elif sub is not Subroutine.LS:
            est = estimate_l1(counting, anchor, D, LIPSCHITZ_SAMPLES, (config.seed, tau))
            L[0] = est.value * (LIPSCHITZ_SAFETY if est.method == "sampled" else 1.0)

        def step(x, g, f):
            if carry and sub is Subroutine.GP:
                x_next, eta = a_gp(counting, x, anchor, 1.0 / max(1.0, L[0] / 2.0), D,
                                   grad=g, f_x=f)
                L[0] = 1.0 / eta
            elif sub is Subroutine.GP:
                x_next = a_gp(counting, x, anchor, 1.0 / L[0], D, grad=g)
            elif sub is Subroutine.NGD:
                x_next = a_ng(counting, x, L[0], d, grad=g)
            elif sub is Subroutine.LS:
                x_next, _, _ = a_ls(counting, x, -g, ls_params, grad=g, f_x=f)
            else:
                x_next, _, L[0], L[1] = a_agp(counting, x, *L, anchor, D, config.epsilon,
                                              grad=g, f_x=f)
            dist = norm(x_next - anchor)
            if dist > D + slack:
                raise ContractViolation(
                    f"subroutine produced a point at distance {dist:g} > D = {D:g}")
            # entering the margin shell closes the epoch
            return x_next, dist >= D - d - slack, dist
        return step

    return drive(oracle, x_start, start_epoch, math.sqrt(config.epsilon),
                 config.max_total_grad_evals, config.time_budget_s, config.max_epochs)


def epoch_descent_floor(config: SloConfig) -> float:
    """Theoretical per-epoch objective drop for completed epochs."""
    root_eps = math.sqrt(config.epsilon)
    if config.subroutine in (Subroutine.GP, Subroutine.NGD):
        return root_eps * config.radius_D / 4.0
    if config.subroutine is Subroutine.AGP:
        return root_eps * config.radius_D / 32.0
    return 0.0  # LS epochs are single Armijo steps; only monotonicity is owed


def check_epoch_descent(result: RunResult, config: SloConfig) -> list[float]:
    """Per completed epoch: achieved f-drop minus the theoretical floor.

    Entries should all be >= -1e-10 on a valid run. The terminal partial
    epoch is excluded.
    """
    starts = {}
    for rec in result.trace:
        if rec.iter == 0 and rec.epoch not in starts:
            starts[rec.epoch] = rec.f_value
    floor = epoch_descent_floor(config)
    margins = []
    for tau in range(1, result.epochs_completed + 1):
        if tau not in starts or (tau + 1) not in starts:
            raise ValueError(f"trace is missing the start of epoch {tau} or {tau + 1}")
        margins.append((starts[tau] - starts[tau + 1]) - floor)
    return margins
