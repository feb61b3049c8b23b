"""Single-step subroutines: ball-projected GD, normalized GD, Armijo line search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EvaluationError, ObjectiveOracle, as_vector, check_finite, norm, project_ball

MAX_BACKTRACKS = 200  # the cap on failed tests of a_gp and a_agp, and on a_ls's grid index


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
        if not (0 < self.sigma < 1 and 0 < self.theta < 1 and 0 < self.delta_bar < np.inf
                and 0 < self.alpha <= 1):
            raise ValueError("LsParams needs 0 < sigma < 1, 0 < theta < 1, 0 < delta_bar < inf "
                             f"and 0 < alpha <= 1; got {self}")


def a_gp(oracle: ObjectiveOracle, x, center, eta: float, r: float, grad=None, f_x=None):
    """Gradient step projected radially onto the ball B(center, r).

    Candidates landing exactly on the sphere count as inside; no rescale
    is performed for them. Given ``f_x = f(x)``, eta is halved until the step
    x+ certifies ``f_x - f(x+) >= ||x+ - x||^2 / (2 eta)``, one value call per
    trial, and ``(x+, eta)`` is returned; the descent lemma passes the test
    once 1/eta bounds the gradient-Lipschitz constant on the segment.
    center is scanned for NaN/inf entries; x and x+ are scanned only when their distance to
    center is not finite, since a finite one has only finite entries beneath it.
    """
    x = np.asarray(x, dtype=float)
    x = x if x.ndim == 1 else as_vector(x)  # its finiteness is read off dist below
    center = as_vector(center)
    dist = norm(x - center)
    if not math.isfinite(dist):
        check_finite(x)
    if not (eta > 0 and r > 0):
        raise ValueError("eta and r must be positive")
    if dist > r * (1 + 1e-12):
        raise ValueError("a_gp requires x inside B(center, r)")
    g = oracle.gradient(x) if grad is None else grad
    for _ in range(MAX_BACKTRACKS + 1):
        out, dist = project_ball(x - eta * g, center, r)
        if f_x is not None:
            move = out - x
            if not f_x - oracle.value(out) >= move.dot(move) / (2.0 * eta):
                eta /= 2.0
                continue
        if not math.isfinite(dist):  # else x+ is finite, and so is its projection toward center
            check_finite(out, "a_gp output")
        return out if f_x is None else (out, eta)
    raise BacktrackBudgetError(2.0 * eta, "descent")  # the last eta tried


def a_ng(oracle: ObjectiveOracle, x, l1: float, d: float, grad=None):
    """GD step when the gradient is small, else a step of length d along -grad.

    Given grad with a finite norm, the step (1/l1 or d/||grad||) * grad is finite, so one scan
    of the output covers x too; x is scanned, and raises first, only when that scan fails.
    Without grad, or when ||grad|| is not finite, x is scanned before anything is evaluated.
    """
    x = np.asarray(x, dtype=float)
    x = x if x.ndim == 1 and grad is not None else as_vector(x)
    if not (1 <= l1 < np.inf and d > 0):
        raise ValueError("require a finite l1 >= 1 and d > 0")
    g = oracle.gradient(x) if grad is None else grad
    gnorm = norm(g)
    if not math.isfinite(gnorm):
        check_finite(x)
    if gnorm <= l1 * d:
        out = x - g / l1
    else:
        out = x - (d / gnorm) * g
    try:
        return check_finite(out, "a_ng output")
    except EvaluationError:
        check_finite(x)
        raise


def a_ls(oracle: ObjectiveOracle, x, direction, params: LsParams, grad=None, f_x=None,
         j_start=0):
    """Armijo search on the grid delta_j = cap * theta^j, j = 0 .. MAX_BACKTRACKS, below the
    adaptive stepsize cap ``cap = delta_bar / ||direction||``.

    The search tries index ``j_start`` first: if it passes, it tries j_start - 1, ... while
    they pass; otherwise j_start + 1, ... until one passes. Returns (new point, accepted
    stepsize, accepted index j). The step length ||out - x|| never exceeds delta_bar.
    direction is scanned for NaN/inf entries only when its norm is not finite.
    """
    if not (type(j_start) is int and 0 <= j_start <= MAX_BACKTRACKS):
        raise ValueError(f"j_start must be an int in [0, {MAX_BACKTRACKS}], got {j_start!r}")
    x = as_vector(x)
    d = np.asarray(direction, dtype=float)
    d = d if d.ndim == 1 else as_vector(d)
    dnorm = norm(d)
    if not math.isfinite(dnorm):  # a finite norm has only finite entries beneath it
        check_finite(d)
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
    deltas = [params.delta_bar / dnorm]  # deltas[j]: the cap times theta, j times over

    def trial(j):  # the trial point at index j if it passes the Armijo test, else None
        while len(deltas) <= j:
            deltas.append(deltas[-1] * params.theta)
        out = x + deltas[j] * d
        return out if oracle.value(out) <= fx + params.sigma * deltas[j] * slope else None

    j, out = j_start, trial(j_start)
    while out is None:  # smaller steps until one passes
        if j == MAX_BACKTRACKS:
            raise BacktrackBudgetError(deltas[j])
        j += 1
        out = trial(j)
    if j == j_start:  # the start passed: larger steps while they pass
        while j > 0 and (larger := trial(j - 1)) is not None:
            j, out = j - 1, larger
    return check_finite(out, "a_ls output"), deltas[j], j
