"""Comparison methods: fixed-step gradient descent and Bregman proximal
gradient with the polynomial adaptation h(x) = ||x||^n/n + ||x||^2/2."""

from __future__ import annotations

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
        if self.poly_degree_n < 2:
            raise ValueError("poly_degree_n must be >= 2")
        if not self.l_relative > 0:
            raise ValueError("l_relative must be positive")


def bpg_subproblem(g, l_relative, n, eps0):
    """Root of p'(rho) = -|g|^2 + L|g|^n rho^(n-1) + L|g|^2 rho by binary
    search; returns the midpoint of the final bracket."""
    g = as_vector(g)
    gn = norm(g)
    if gn == 0.0:
        raise ValueError("bpg_subproblem requires g != 0")
    L = float(l_relative)
    # hoisted out of the bisection with the docstring formula's left-to-right
    # product grouping, so each p'(rho) below is the same to the bit
    g2, lgn, lg2 = gn ** 2, L * gn ** n, L * gn ** 2
    rho0, rho1, doublings = 0.0, 1.0, 0
    while -g2 + lgn * rho1 ** (n - 1) + lg2 * rho1 < 0.0:
        rho1 *= 2.0
        doublings += 1
        if doublings > 1000:
            raise ArithmeticError("bpg_subproblem bracket expansion overflow")
    while rho1 - rho0 > eps0:
        mid = 0.5 * (rho0 + rho1)
        if mid <= rho0 or mid >= rho1:
            break  # bracket narrower than floating-point resolution
        if -g2 + lgn * mid ** (n - 1) + lg2 * mid < 0.0:
            rho0 = mid
        else:
            rho1 = mid
    return 0.5 * (rho0 + rho1)


def bpg_step(oracle: ObjectiveOracle, x, config: BpgConfig):
    x = as_vector(x)
    n, L = config.poly_degree_n, config.l_relative
    xn = norm(x)
    grad_h = (xn ** (n - 2) + 1.0) * x
    g = oracle.gradient(x) - L * grad_h
    if not np.any(g):
        return np.zeros_like(x)
    rho = bpg_subproblem(g, L, n, 1e-16)
    return -rho * g


def gd_fixed(oracle: ObjectiveOracle, x0, step, stop_grad_tol=1e-8,
             max_iters=100_000, max_grad_evals=1_000_000,
             time_budget_s=None) -> RunResult:
    """Plain x <- x - step * grad(x): one epoch that never closes."""
    if step <= 0:
        raise ValueError("step must be positive")

    def start_epoch(counting, anchor, tau):
        return lambda x, g, f: (x - step * g, False)

    return drive(oracle, x0, start_epoch, stop_grad_tol, max_grad_evals,
                 time_budget_s, max_iters=max_iters)


def run_bpg(oracle: ObjectiveOracle, x0, config: BpgConfig,
            max_grad_evals=1_000_000, time_budget_s=None) -> RunResult:
    """Bregman proximal gradient steps: one epoch that never closes."""
    def start_epoch(counting, anchor, tau):
        return lambda x, g, f: (bpg_step(counting, x, config), False)

    return drive(oracle, x0, start_epoch, config.stop_grad_tol, max_grad_evals,
                 time_budget_s, max_iters=config.max_iters)
