"""Single-step subroutines: ball-projected GD, normalized GD, Armijo line search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ObjectiveOracle, as_vector, check_finite, norm, project_ball

MAX_BACKTRACKS = 200  # the cap on failed tests of a_ls, a_gp and a_agp


class DirectionError(ValueError):
    """Search direction violates the gradient-related condition."""


class BacktrackBudgetError(RuntimeError):
    """A backtracking test (Armijo in a_ls, descent in a_gp, the certificates in a_agp)
    failed down to last_delta: the last stepsize tried, or a_agp's last (L1, L2)."""

    def __init__(self, last_delta, test="Armijo"):
        self.last_delta, self.n_backtracks = last_delta, MAX_BACKTRACKS
        last = ("(L1, L2) = ({:g}, {:g})".format(*last_delta) if isinstance(last_delta, tuple)
                else f"stepsize {last_delta:g}")
        super().__init__(
            f"{test} condition not met after {MAX_BACKTRACKS} backtracks "
            f"(last {last}); oracle likely inconsistent"
        )


@dataclass
class LsParams:
    sigma: float = 0.9       # Armijo slope fraction
    theta: float = 0.5       # backtrack factor
    delta_bar: float = 1.0   # adaptive step-length cap
    alpha: float = 1.0       # gradient-related constant

    def __post_init__(self):
        if not (0 < self.sigma < 1 and 0 < self.theta < 1 and self.delta_bar > 0
                and 0 < self.alpha <= 1):
            raise ValueError("LsParams needs 0 < sigma < 1, 0 < theta < 1, delta_bar > 0 "
                             f"and 0 < alpha <= 1; got {self}")


def a_gp(oracle: ObjectiveOracle, x, center, eta: float, r: float, grad=None, f_x=None):
    """Gradient step projected radially onto the ball B(center, r).

    Candidates landing exactly on the sphere count as inside; no rescale
    is performed for them. Given ``f_x = f(x)``, eta is halved until the step
    x+ certifies ``f_x - f(x+) >= ||x+ - x||^2 / (2 eta)``, one value call per
    trial, and ``(x+, eta)`` is returned; the descent lemma passes the test
    once 1/eta bounds the gradient-Lipschitz constant on the segment.
    """
    x = as_vector(x)
    center = as_vector(center)
    if not (eta > 0 and r > 0):
        raise ValueError("eta and r must be positive")
    if norm(x - center) > r * (1 + 1e-12):
        raise ValueError("a_gp requires x inside B(center, r)")
    g = oracle.gradient(x) if grad is None else grad
    if f_x is None:
        return check_finite(project_ball(x - eta * g, center, r), "a_gp output")
    for _ in range(MAX_BACKTRACKS + 1):
        out = project_ball(x - eta * g, center, r)
        move = out - x
        if f_x - oracle.value(out) >= move.dot(move) / (2.0 * eta):
            return check_finite(out, "a_gp output"), eta
        eta /= 2.0
    raise BacktrackBudgetError(2.0 * eta, "descent")  # the last eta tried


def a_ng(oracle: ObjectiveOracle, x, l1: float, d: float, grad=None):
    """GD step when the gradient is small, else a step of length d along -grad."""
    x = as_vector(x)
    if not (1 <= l1 < np.inf and d > 0):
        raise ValueError("require a finite l1 >= 1 and d > 0")
    g = oracle.gradient(x) if grad is None else grad
    gnorm = norm(g)
    if gnorm <= l1 * d:
        out = x - g / l1
    else:
        out = x - (d / gnorm) * g
    return check_finite(out, "a_ng output")


def a_ls(oracle: ObjectiveOracle, x, direction, params: LsParams, grad=None, f_x=None):
    """Armijo backtracking with the adaptive stepsize cap delta_bar / ||direction||.

    Returns (new point, accepted stepsize, number of backtracks). The step
    length ||out - x|| never exceeds delta_bar.
    """
    x = as_vector(x)
    d = as_vector(direction)
    dnorm = norm(d)
    if dnorm == 0.0:
        raise DirectionError("direction must be nonzero")
    g = oracle.gradient(x) if grad is None else grad
    slope = float(g.dot(d))
    gnorm = norm(g)
    bound = -params.alpha * gnorm * dnorm
    if slope > bound + 1e-12 * max(1.0, abs(bound)):
        raise DirectionError(
            f"<grad, d> = {slope:g} exceeds -alpha*||grad||*||d|| = {bound:g}"
        )
    fx = oracle.value(x) if f_x is None else f_x
    for j in range(MAX_BACKTRACKS + 1):
        delta = params.delta_bar / dnorm if j == 0 else delta * params.theta
        trial = x + delta * d
        if oracle.value(trial) <= fx + params.sigma * delta * slope:
            return check_finite(trial, "a_ls output"), delta, j
    raise BacktrackBudgetError(delta)
