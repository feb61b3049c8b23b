"""Epoch-managed solver loop: local constants, truncation, margin transitions."""

from __future__ import annotations

import math

from .agp import a_agp
from .core import ObjectiveOracle, RunResult, SloConfig, Subroutine, drive, norm
from .lipschitz import estimate_l1, estimate_l2
from .subroutines import LsParams, a_gp, a_ls, a_ng

# Each sampled estimate (NGD without growth1) draws this many points, and the epoch uses
# the sampled value times this factor, since a sample maximum is only a lower bound.
LIPSCHITZ_SAMPLES = 50
LIPSCHITZ_SAFETY = 1.5


class ContractViolation(RuntimeError):
    """A subroutine returned a point outside the epoch ball."""


def _epoch_constants(oracle, anchor, config: SloConfig, tau: int):
    """(L1, L2) for the epoch, with the sampled-estimate safety factor applied.
    LS uses neither; L2 is None for GP and NGD. Not called for a certified GP or AGP
    run, so only NGD samples."""
    sub = config.subroutine
    if sub is Subroutine.LS:
        return 1.0, 1.0
    ball = 3.0 * config.radius_D if sub is Subroutine.AGP else config.radius_D
    args = (oracle, anchor, ball, LIPSCHITZ_SAMPLES, (config.seed, tau))

    def scaled(est):  # both estimate paths floor at 1, so the product does too
        return est.value * (LIPSCHITZ_SAFETY if est.method == "sampled" else 1.0)

    l1 = scaled(estimate_l1(*args))
    return l1, (scaled(estimate_l2(*args)) if sub is Subroutine.AGP else None)


def run_slo(oracle: ObjectiveOracle, x_start, config: SloConfig) -> RunResult:
    """Run the epoch framework with the configured subroutine until the
    gradient tolerance or a budget is reached."""
    sub, D, d = config.subroutine, config.radius_D, config.margin_d
    slack = 1e-12 * max(1.0, D)
    ls_params = LsParams(delta_bar=config.ls_delta_bar)
    # Without analytic growth, GP certifies each step's L1 by a descent test, and AGP its
    # (L1, L2) by the inner loop's certificates; with it, both step untested. The run
    # keeps one pair, halved (floored at 1) when an epoch starts; GP reads only L1.
    certify = (sub is Subroutine.GP and oracle.growth1 is None) or (
        sub is Subroutine.AGP and None in (oracle.growth1, oracle.growth2))
    carried = [1.0, 1.0]

    def start_epoch(counting, anchor, tau):
        nonlocal carried
        if certify:
            carried = [max(1.0, c / 2.0) for c in carried]
        l1, l2 = (None, None) if certify else _epoch_constants(counting, anchor, config, tau)

        def step(x, g, f):
            nonlocal carried
            if certify and sub is Subroutine.GP:
                x_next, eta = a_gp(counting, x, anchor, 1.0 / carried[0], D, grad=g, f_x=f)
                carried[0] = 1.0 / eta
            elif certify:
                x_next, _, *carried = a_agp(counting, x, *carried, anchor, D, config.epsilon, f_x=f)
            elif sub is Subroutine.GP:
                x_next = a_gp(counting, x, anchor, 1.0 / l1, D, grad=g)
            elif sub is Subroutine.NGD:
                x_next = a_ng(counting, x, l1, d, grad=g)
            elif sub is Subroutine.LS:
                x_next, _, _ = a_ls(counting, x, -g, ls_params, grad=g, f_x=f)
            else:
                x_next, _ = a_agp(counting, x, l1, l2, anchor, D, config.epsilon)
            dist = norm(x_next - anchor)
            if dist > D + slack:
                raise ContractViolation(
                    f"subroutine produced a point at distance {dist:g} > D = {D:g}"
                )
            # entering the margin shell closes the epoch
            return x_next, dist >= D - d - slack
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
