"""Comparison methods: fixed-step gradient descent and Bregman proximal
gradient with the polynomial adaptation h(x) = ||x||^n/n + ||x||^2/2."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import ObjectiveOracle, RunResult, as_vector, check_finite, checked_norm, drive, norm


@dataclass
class BpgConfig:
    poly_degree_n: int
    l_relative: float
    max_iters: int = 100_000
    stop_grad_tol: float = 1e-8

    def __post_init__(self):
        _check_bpg(self.poly_degree_n, self.l_relative)


def _check_bpg(n, l_relative):
    if not n >= 2:
        raise ValueError("poly_degree_n must be >= 2")
    if not 0 < l_relative < math.inf:
        raise ValueError("l_relative must be positive")


def bpg_subproblem(g, l_relative, n, eps0):
    """Root of p'(rho) = -|g|^2 + L|g|^n rho^(n-1) + L|g|^2 rho by Newton's method
    from above. p' is increasing and convex for rho > 0, so the iterates fall to the
    root and stop a few ulps from it: within eps0/2 for any eps0 above that.

    Where |g|^2 or L|g|^n leaves the normal float range, for a g != 0, the root is taken
    as rho = t / a from -a + L u^(n-2) t^(n-1) + L t = 0, which is p'(rho) / (|g| u) with
    t = rho |g| / u, u = max|g|^(1/(n-1)) and a = |g| / u: no power there leaves the
    range. g is scanned for NaN/inf entries only when |g| is not finite.
    """
    _check_bpg(n, l_relative)
    g = np.asarray(g, dtype=float)
    g = g if g.ndim == 1 else as_vector(g)  # its finiteness is read off gn below
    gn = math.sqrt(np.vdot(g, g))  # norm(g) bit for bit, without dot's overflow warning
    if not math.isfinite(gn):  # a finite norm has only finite entries beneath it
        check_finite(g)
    L, g2 = float(l_relative), gn ** 2  # finite wherever g.g is
    try:
        lgn = L * gn ** n
    except OverflowError:  # a finite |g| whose n-th power is not
        lgn = math.inf
    if sys.float_info.min <= g2 and lgn < math.inf:
        a, b, c, unit = g2, lgn, L * g2, 1.0  # t = rho, and the equation is p' itself
    elif g.any():
        scale = float(np.abs(g).max())
        u = scale ** (1.0 / (n - 1))
        a = norm(g / scale) * (scale / u)
        b, c, unit = L * u ** (n - 2), L, a
    else:
        raise ValueError("bpg_subproblem requires g != 0")
    # each term alone reaches a at its point, so the root lies in [t/2, t];
    # where b underflows to 0, the linear term alone sets the root
    t = a / c if b == 0.0 else min(a / c, (a / b) ** (1.0 / (n - 1)))
    for _ in range(100):
        slope = (n - 1) * b * t ** (n - 2) + c
        lower = t - (-a + b * t ** (n - 1) + c * t) / slope
        if not lower < t:
            return t / unit
        t = lower
    raise ArithmeticError("bpg_subproblem Newton iteration did not converge")


def bpg_step(oracle: ObjectiveOracle, x, config: BpgConfig, grad=None):
    """The BPG point -rho g for the composite gradient g = grad f(x) - L grad h(x), and 0
    where g = 0. x is scanned for NaN/inf entries only when ||x|| is not finite."""
    x = np.asarray(x, dtype=float)
    x = x if x.ndim == 1 else as_vector(x)  # its finiteness is read off xn below
    n, L = config.poly_degree_n, config.l_relative
    xn = checked_norm(x, x)
    grad_h = (xn ** (n - 2) + 1.0) * x
    g = (oracle.gradient(x) if grad is None else grad) - L * grad_h
    if not g.any():
        return np.zeros_like(x)
    rho = bpg_subproblem(g, L, n, 1e-16)
    return -rho * g


def gd_fixed(oracle: ObjectiveOracle, x0, step, stop_grad_tol=1e-8,
             max_iters=100_000, max_grad_evals=1_000_000,
             time_budget_s=None) -> RunResult:
    """Plain x <- x - step * grad(x): one epoch that never closes."""
    if not 0 < step < math.inf:
        raise ValueError("step must be positive")

    def start_epoch(counting, anchor, tau):
        return lambda x, g, f: (y := x - step * g, False, norm(y - anchor))

    return drive(oracle, x0, start_epoch, stop_grad_tol, max_grad_evals,
                 time_budget_s, max_iters=max_iters)


def run_bpg(oracle: ObjectiveOracle, x0, config: BpgConfig,
            max_grad_evals=1_000_000, time_budget_s=None) -> RunResult:
    """Bregman proximal gradient steps: one epoch that never closes."""
    def start_epoch(counting, anchor, tau):
        return lambda x, g, f: (y := bpg_step(counting, x, config, grad=g), False,
                                norm(y - anchor))

    return drive(oracle, x0, start_epoch, config.stop_grad_tol, max_grad_evals,
                 time_budget_s, max_iters=config.max_iters)
