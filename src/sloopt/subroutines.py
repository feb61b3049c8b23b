"""Single-step subroutines: ball-projected GD, normalized GD, Armijo line search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ObjectiveOracle, as_vector, check_finite, norm, project_ball


class DirectionError(ValueError):
    """Search direction violates the gradient-related condition."""


class BacktrackBudgetError(RuntimeError):
    def __init__(self, last_delta, n_backtracks):
        self.last_delta = last_delta
        self.n_backtracks = n_backtracks
        super().__init__(
            f"Armijo condition not met after {n_backtracks} backtracks "
            f"(last stepsize {last_delta:g}); oracle likely inconsistent"
        )


@dataclass
class LsParams:
    sigma: float = 0.9       # Armijo slope fraction
    theta: float = 0.5       # backtrack factor
    delta_bar: float = 1.0   # adaptive step-length cap
    alpha: float = 1.0       # gradient-related constant
    max_backtracks: int = 200


def a_gp(oracle: ObjectiveOracle, x, center, eta: float, r: float, grad=None):
    """Gradient step projected radially onto the ball B(center, r).

    Candidates landing exactly on the sphere count as inside; no rescale
    is performed for them.
    """
    x = as_vector(x)
    center = as_vector(center)
    if eta <= 0 or r <= 0:
        raise ValueError("eta and r must be positive")
    if norm(x - center) > r * (1 + 1e-12):
        raise ValueError("a_gp requires x inside B(center, r)")
    g = oracle.gradient(x) if grad is None else grad
    return check_finite(project_ball(x - eta * g, center, r), "a_gp output")


def a_ng(oracle: ObjectiveOracle, x, l1: float, d: float, grad=None):
    """GD step when the gradient is small, else a step of length d along -grad."""
    x = as_vector(x)
    if l1 < 1 or d <= 0:
        raise ValueError("require l1 >= 1 and d > 0")
    g = oracle.gradient(x) if grad is None else grad
    gnorm = norm(g)
    if gnorm == 0.0:
        return x.copy()
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
    slope = float(np.dot(g, d))
    gnorm = norm(g)
    bound = -params.alpha * gnorm * dnorm
    if slope > bound + 1e-12 * max(1.0, abs(bound)):
        raise DirectionError(
            f"<grad, d> = {slope:g} exceeds -alpha*||grad||*||d|| = {bound:g}"
        )
    fx = oracle.value(x) if f_x is None else f_x
    delta = params.delta_bar / dnorm
    for j in range(params.max_backtracks + 1):
        if oracle.value(x + delta * d) <= fx + params.sigma * delta * slope:
            return check_finite(x + delta * d, "a_ls output"), delta, j
        delta *= params.theta
    raise BacktrackBudgetError(delta, params.max_backtracks)
