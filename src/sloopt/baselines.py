"""Comparison methods: fixed-step gradient descent and Bregman proximal
gradient with the polynomial adaptation h(x) = ||x||^n/n + ||x||^2/2."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ObjectiveOracle, RunResult, as_vector, drive, norm


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
    root and stop a few ulps from it: within eps0/2 for any eps0 above that."""
    _check_bpg(n, l_relative)
    gn = norm(as_vector(g))
    if gn == 0.0:
        raise ValueError("bpg_subproblem requires g != 0")
    L = float(l_relative)
    g2, lgn, lg2 = gn ** 2, L * gn ** n, L * gn ** 2
    # each term alone reaches |g|^2 at its point, so the root lies in [rho/2, rho];
    # where L|g|^n underflows to 0, the linear term alone sets the root
    rho = g2 / lg2 if lgn == 0.0 else min(g2 / lg2, (g2 / lgn) ** (1.0 / (n - 1)))
    for _ in range(100):
        slope = (n - 1) * lgn * rho ** (n - 2) + lg2
        lower = rho - (-g2 + lgn * rho ** (n - 1) + lg2 * rho) / slope
        if not lower < rho:
            return rho
        rho = lower
    raise ArithmeticError("bpg_subproblem Newton iteration did not converge")


def bpg_step(oracle: ObjectiveOracle, x, config: BpgConfig, grad=None):
    x = as_vector(x)
    n, L = config.poly_degree_n, config.l_relative
    xn = norm(x)
    grad_h = (xn ** (n - 2) + 1.0) * x
    g = (oracle.gradient(x) if grad is None else grad) - L * grad_h
    if not np.any(g):
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
