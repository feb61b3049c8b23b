"""Shared numeric vocabulary: oracles, solver configuration, run traces."""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np

# Tolerance used for float equality in config validation.
_CFG_TOL = 1e-12


class EvaluationError(RuntimeError):
    """A function or gradient evaluation produced a non-finite number."""


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-D float64 array and reject non-finite entries."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return check_finite(v)


def check_finite(v: np.ndarray, what: str = "vector") -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise EvaluationError(f"{what} contains NaN or infinite entries")
    return v


class ObjectiveOracle:
    """Deterministic value/gradient oracle for a smooth objective.

    Subclasses set ``dim`` and implement ``value`` and ``gradient``.
    ``growth1(r)`` / ``growth2(r)``, when not None, are analytic gradient-
    and Hessian-Lipschitz bounds valid on the ball of radius r around
    ``anchor``; they must be nondecreasing in r and floored at 1.
    """

    dim: int
    growth1 = None
    growth2 = None

    @property
    def anchor(self) -> np.ndarray:
        return np.zeros(self.dim)

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class CountingOracle(ObjectiveOracle):
    """Wrapper that counts gradient evaluations.

    A one-entry memo makes repeated gradient queries at the same point
    free, so the solver loop and its subroutines do not double-charge.
    Every caller gets the same memoized array, so it is returned read-only.
    """

    def __init__(self, base: ObjectiveOracle):
        self.base = base
        self.dim = base.dim
        self.growth1 = base.growth1
        self.growth2 = base.growth2
        self.grad_evals = 0
        self.value_evals = 0
        self._memo_key = None
        self._memo_grad = None

    @property
    def anchor(self):
        return self.base.anchor

    def value(self, x):
        self.value_evals += 1
        return self.base.value(x)

    def gradient(self, x):
        key = x.tobytes()
        if key == self._memo_key:
            return self._memo_grad
        g = check_finite(self.base.gradient(x), "gradient").view()
        g.flags.writeable = False
        self.grad_evals += 1
        self._memo_key = key
        self._memo_grad = g
        return g


class Subroutine(str, enum.Enum):
    GP = "GP"
    NGD = "NGD"
    LS = "LS"
    AGP = "AGP"


class Termination(enum.Enum):
    GradientTolerance = "gradient_tolerance"
    EpochBudget = "epoch_budget"
    EvalBudget = "eval_budget"
    TimeBudget = "time_budget"
    IterationBudget = "iteration_budget"
    Diverged = "diverged"


@dataclass
class SloConfig:
    """Parameters of an epoch-restricted solver run.

    ``epsilon`` is the squared-gradient tolerance: the run stops when
    ``||grad f|| < sqrt(epsilon)``.
    """

    epsilon: float
    radius_D: float
    margin_d: float
    subroutine: Subroutine
    ls_sigma: float = 0.9
    ls_theta: float = 0.5
    ls_delta_bar: float = 1.0
    ls_alpha: float = 1.0  # gradient-related constant; distinct from the AGP penalty
    max_epochs: int = 10_000
    max_total_grad_evals: int = 1_000_000
    time_budget_s: float | None = None
    seed: int = 0
    n_lipschitz_samples: int = 50
    lipschitz_safety: float = 1.5
    ls_max_backtracks: int = 200

    def __post_init__(self):
        self.subroutine = Subroutine(self.subroutine)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.radius_D <= 0:
            raise ValueError("radius_D must be positive")
        if self.margin_d < 0:
            raise ValueError("margin_d must be nonnegative")
        if not (0 < self.ls_sigma < 1 and 0 < self.ls_theta < 1):
            raise ValueError("ls_sigma and ls_theta must lie in (0,1)")
        if not (0 < self.ls_alpha <= 1):
            raise ValueError("ls_alpha must lie in (0,1]")
        if self.max_epochs <= 0 or self.max_total_grad_evals <= 0:
            raise ValueError("budgets must be positive")
        root_eps = math.sqrt(self.epsilon)
        sub = self.subroutine
        if sub is Subroutine.GP:
            if self.margin_d != 0:
                raise ValueError("GP requires margin_d = 0")
            if self.radius_D < root_eps / 2 - _CFG_TOL:
                raise ValueError("GP requires radius_D >= sqrt(eps)/2")
        elif sub is Subroutine.NGD:
            if self.margin_d < root_eps - _CFG_TOL:
                raise ValueError("NGD requires margin_d >= sqrt(eps)")
            if self.radius_D < root_eps / 2 + 2 * self.margin_d - _CFG_TOL:
                raise ValueError("NGD requires radius_D >= sqrt(eps)/2 + 2*margin_d")
        elif sub is Subroutine.LS:
            if not (
                math.isclose(self.radius_D, self.ls_delta_bar, rel_tol=_CFG_TOL)
                and math.isclose(self.margin_d, self.ls_delta_bar, rel_tol=_CFG_TOL)
            ):
                raise ValueError("LS requires radius_D = margin_d = ls_delta_bar")
            if self.ls_delta_bar <= root_eps:
                raise ValueError("LS requires ls_delta_bar > sqrt(eps)")
        elif sub is Subroutine.AGP:
            quarter = self.epsilon ** 0.25
            if not math.isclose(self.margin_d, 2 * quarter, rel_tol=1e-9):
                raise ValueError("AGP requires margin_d = 2*eps^(1/4)")
            if self.radius_D < 6 * quarter - _CFG_TOL:
                raise ValueError("AGP requires radius_D >= 6*eps^(1/4)")


@dataclass
class IterationRecord:
    epoch: int
    iter: int
    f_value: float
    grad_norm: float
    dist_from_anchor: float
    cum_grad_evals: int
    elapsed_s: float


@dataclass
class RunResult:
    final_point: np.ndarray
    final_grad_norm: float
    termination: Termination
    trace: list[IterationRecord] = field(default_factory=list)
    epochs_completed: int = 0


def project_ball(x: np.ndarray, center: np.ndarray, r: float) -> np.ndarray:
    """Radial projection onto the closed ball B(center, r); x itself when inside."""
    offset = x - center
    dist = float(np.linalg.norm(offset))
    return x if dist <= r else center + offset * (r / dist)


def drive(oracle: ObjectiveOracle, x_start, start_epoch, tol: float,
          max_grad_evals: int, time_budget_s: float | None = None,
          max_epochs: int = 1, max_iters: int | None = None) -> RunResult:
    """The solver loop of every method: traced epochs of steps until a stop.

    Epoch tau opens at the current iterate, its anchor, with
    ``start_epoch(counting_oracle, anchor, tau)``, which does the epoch's
    set-up and returns its step ``(x, grad) -> (next x, epoch closes)``.
    Every iterate gets a trace row. The run stops at ``||grad|| < tol``, on
    divergence (non-finite f or a rise above 1e12), or when the gradient
    evaluation, time, iteration or epoch budget is spent, checked in that
    order. After ``max_epochs`` closed epochs the final point is traced once
    more, as the first row of epoch ``max_epochs + 1``.
    """
    counting = CountingOracle(oracle)
    x = as_vector(x_start).copy()
    t0 = time.monotonic()
    trace: list[IterationRecord] = []
    f_prev = math.inf
    steps = closed = 0
    while True:
        anchor = x.copy()
        step = start_epoch(counting, anchor, closed + 1) if closed < max_epochs else None
        k = 0
        while True:
            g = counting.gradient(x)
            g_norm = float(np.linalg.norm(g))
            f = counting.base.value(x)
            trace.append(IterationRecord(
                epoch=closed + 1, iter=k, f_value=f, grad_norm=g_norm,
                dist_from_anchor=float(np.linalg.norm(x - anchor)),
                cum_grad_evals=counting.grad_evals,
                elapsed_s=time.monotonic() - t0,
            ))
            if g_norm < tol:
                stop = Termination.GradientTolerance
            elif not math.isfinite(f) or f - f_prev > 1e12:
                stop = Termination.Diverged
            elif counting.grad_evals >= max_grad_evals:
                stop = Termination.EvalBudget
            elif time_budget_s is not None and time.monotonic() - t0 > time_budget_s:
                stop = Termination.TimeBudget
            elif steps == max_iters:
                stop = Termination.IterationBudget
            elif step is None:
                stop = Termination.EpochBudget
            else:
                stop = None
            if stop is not None:
                return RunResult(x, g_norm, stop, trace, closed)
            f_prev = f
            x, closes = step(x, g)
            steps += 1
            k += 1
            if closes:
                closed += 1
                break


def finite_diff_gradient(oracle: ObjectiveOracle, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient, the reference oracle for gradient checks."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = as_vector(x)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fp = oracle.value(x + e)
        fm = oracle.value(x - e)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise EvaluationError(f"non-finite function value probing coordinate {i}")
        g[i] = (fp - fm) / (2.0 * h)
    return g
