"""Shared numeric vocabulary: oracles, solver configuration, run traces."""

from __future__ import annotations

import enum
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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
    if np.count_nonzero(np.isfinite(v)) != v.size:
        raise EvaluationError(f"{what} contains NaN or infinite entries")
    return v


class ObjectiveOracle:
    """Deterministic value/gradient oracle for a smooth objective.

    Subclasses set ``dim`` and implement ``value`` and ``gradient``; a gradient is a new array,
    which callers may keep and mark read-only. Every bundled oracle evaluates through ``_at``,
    which checks a point's shape, finiteness and dimension. ``growth1(r)`` / ``growth2(r)``,
    when not None, are analytic gradient- and Hessian-Lipschitz bounds valid on the ball of
    radius r around the origin; they must be nondecreasing in r and floored at 1.
    """

    dim: int
    growth1 = None
    growth2 = None
    _memo = ((None, None),) * 2  # (point bytes, intermediates) of the latest two points

    def _at(self, x, compute):
        """``(v, compute(v))`` for v = x checked 1-D, finite and ``dim`` long, memoized by its bytes
        for the latest two points, so value and gradient at one point share checks and work, also
        when another point was evaluated between them. compute returns no view of v. The check
        takes ``||v||^2`` and scans v only when that is not finite, since a finite sum of squares
        has only finite entries beneath it; with compute None, ``||v||^2`` is the output."""
        v = np.asarray(x, dtype=float)
        key = v.tobytes()
        if v.ndim == 1:
            (latest, out), (older, out_older) = self._memo
            if key == latest:
                return v, out
            if key == older:
                return v, out_older
        else:
            v = as_vector(v)
        sq = float(np.vdot(v, v))  # v.dot(v) bit for bit, without dot's overflow warning
        if not math.isfinite(sq):
            check_finite(v)
        if v.size != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {v.size}")
        out = sq if compute is None else compute(v)
        self._memo = ((key, out), self._memo[0])
        return v, out

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class _BudgetSpent(Exception):
    """A gradient evaluation would exceed the CountingOracle's cap."""


class CountingOracle(ObjectiveOracle):
    """Wrapper that counts gradient evaluations, at most ``max_grad_evals``, and value calls.

    A one-entry memo makes repeated gradient queries at the same point
    free, so the solver loop and its subroutines do not double-charge.
    Every caller gets the same memoized array, read-only, and its norm is
    ``grad_norm``. An evaluation past the cap raises ``_BudgetSpent``.
    """

    def __init__(self, base: ObjectiveOracle, max_grad_evals: float = math.inf):
        self.base = base
        self.max_grad_evals = max_grad_evals
        self.dim = base.dim
        self.growth1 = base.growth1
        self.growth2 = base.growth2
        self.grad_evals, self.value_evals, self.grad_norm = 0, 0, math.nan
        self._memo = (None, None)  # (point bytes, gradient): one entry, for drive's stall test

    def value(self, x):
        self.value_evals += 1
        return self.base.value(x)

    def gradient(self, x):
        key = x.tobytes()
        if key == self._memo[0]:
            return self._memo[1]
        if self.grad_evals >= self.max_grad_evals:
            raise _BudgetSpent
        g = self.base.gradient(x)
        g_norm = math.sqrt(np.vdot(g, g))  # norm(g) bit for bit, without dot's overflow warning
        if not math.isfinite(g_norm):  # a finite norm has only finite entries beneath it
            check_finite(g, "gradient")
        g.setflags(write=False)
        self.grad_evals += 1
        self._memo, self.grad_norm = (key, g), g_norm
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
    Stalled = "stalled"


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
    ls_delta_bar: float = 1.0
    max_epochs: int = 10_000
    max_total_grad_evals: int = 1_000_000
    time_budget_s: float | None = None
    seed: int = 0

    def __post_init__(self):
        sub = self.subroutine = Subroutine(self.subroutine)
        if not self.epsilon > 0:  # an infinite epsilon fails the geometry check below
            raise ValueError("epsilon must be positive")
        if not 0 < self.radius_D < math.inf:
            raise ValueError("radius_D must be positive and finite")
        if not (self.max_epochs > 0 and self.max_total_grad_evals > 0
                and (self.time_budget_s is None or self.time_budget_s > 0)):
            raise ValueError("budgets must be positive")
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not self.seed >= 0:  # every seed goes to numpy, which rejects negative ones
            raise ValueError("seed must be >= 0")
        radius, margin = epoch_geometry(sub, self.epsilon, self.radius_D, self.margin_d)
        if not (self.radius_D >= radius - 1e-12 and self.margin_d == margin):
            raise ValueError(f"{sub.value} at epsilon {self.epsilon!r} rejects (radius_D, margin_d)"
                             f" = ({self.radius_D!r}, {self.margin_d!r}); the nearest valid ball"
                             f" is ({radius!r}, {margin!r})")
        if sub is Subroutine.LS and not self.ls_delta_bar == self.radius_D == self.margin_d:
            raise ValueError("LS requires radius_D = margin_d = ls_delta_bar")


def epoch_geometry(sub: Subroutine, epsilon: float, radius: float, margin: float):
    """The epoch ball ``(radius_D, margin_d)`` of subroutine ``sub`` at tolerance
    ``epsilon``: the requested ``radius`` and ``margin`` where the paper's
    conditions allow them, else the nearest ball that meets them. ``SloConfig``
    accepts exactly its finite fixed points, with ``radius_D`` up to 1e-12 short.
    """
    sub, root_eps = Subroutine(sub), math.sqrt(epsilon)
    if sub is Subroutine.GP:
        return max(radius, root_eps / 2), 0.0
    if sub is Subroutine.NGD:
        margin = max(margin, root_eps)
        return max(radius, root_eps / 2 + 2 * margin), margin
    if sub is Subroutine.LS:  # one radius: the ball, the margin and the step cap
        radius = radius if radius > root_eps else 2 * root_eps
        return radius, radius
    margin = 2.0 * epsilon ** 0.25
    return max(radius, 3 * margin), margin


class IterationRecord(NamedTuple):
    """One trace row, its fields in the order of the trace CSV's columns after ``round``."""
    epoch: int
    iter: int
    cum_grad_evals: int
    elapsed_s: float
    f_value: float
    grad_norm: float
    dist_from_anchor: float


@dataclass
class RunResult:
    final_point: np.ndarray
    final_grad_norm: float
    termination: Termination
    trace: list[IterationRecord] = field(default_factory=list)
    epochs_completed: int = 0
    grad_evals: int = 0  # every oracle gradient evaluation, traced or not
    value_evals: int = 0  # the solver's value calls; drive's one per trace row is not counted


def norm(v: np.ndarray) -> float:
    """np.linalg.norm of a contiguous 1-D float vector, computed as it does: sqrt(v.dot(v))."""
    return math.sqrt(v.dot(v))


def project_ball(x: np.ndarray, center: np.ndarray, r: float, dist: float | None = None):
    """``(p, dist)``: p the radial projection of x onto the closed ball B(center, r), x itself when
    inside, and dist = ||x - center||, which a caller that holds it passes in."""
    offset = x - center
    dist = norm(offset) if dist is None else dist
    return (x if dist <= r else center + offset * (r / dist)), dist


def drive(oracle: ObjectiveOracle, x_start, start_epoch, tol: float,
          max_grad_evals: int, time_budget_s: float | None = None,
          max_epochs: int = 1, max_iters: int | None = None) -> RunResult:
    """The solver loop of every method: one loop of traced iterates and steps, with one exit.

    Every iterate gets a trace row. The run stops at ``||grad|| < tol``, on divergence
    (non-finite f or a rise above 1e12), on a stall (a step that returned its input's bytes and
    evaluated nothing), when the gradient evaluation, time, iteration or epoch budget is spent,
    checked in that order, or at an evaluation past the gradient budget, a hard cap. Every stop
    returns the last row's iterate, its gradient norm and its ``epoch - 1`` closed epochs. Epoch
    tau opens at its anchor's row once that row passed the stop tests: ``start_epoch(counting,
    anchor, tau)`` does the epoch's set-up and returns its step ``(x, grad, f) -> (next x,
    closes, ||next x - anchor||)``, whose distance the next row records; an epoch's first row
    records 0.0. After ``max_epochs`` closed epochs the final point is traced once more.
    """
    if not (max_grad_evals >= 1 and (time_budget_s is None or time_budget_s > 0)
            and (max_iters is None or max_iters >= 0)):
        raise ValueError("budgets must allow the start: max_grad_evals >= 1, "
                         "time_budget_s > 0 and max_iters >= 0")
    if not tol >= 0:  # a NaN tolerance would never stop the run; 0 turns the stop off
        raise ValueError(f"the gradient tolerance must be >= 0, got {tol!r}")
    counting = CountingOracle(oracle, max_grad_evals)
    x = as_vector(x_start).copy()
    if x.size != oracle.dim:
        raise ValueError(f"x_start has {x.size} entries but the oracle's dimension is "
                         f"{oracle.dim}")
    t0 = time.monotonic()
    trace: list[IterationRecord] = []
    f_prev, g_prev, step, dist = math.inf, None, None, 0.0
    closed = k = 0
    try:
        while True:
            g = counting.gradient(x)
            g_norm = counting.grad_norm
            f = counting.base.value(x)
            traced = x
            elapsed = time.monotonic() - t0  # one reading for the row and the budget
            trace.append(IterationRecord(closed + 1, k, counting.grad_evals, elapsed, f, g_norm, dist))
            if g_norm < tol:
                stop = Termination.GradientTolerance
            elif not math.isfinite(f) or f - f_prev > 1e12:
                stop = Termination.Diverged
            elif g is g_prev:  # the point of the last row, and nothing evaluated since
                stop = Termination.Stalled
            elif counting.grad_evals >= max_grad_evals:
                stop = Termination.EvalBudget
            elif time_budget_s is not None and elapsed > time_budget_s:
                stop = Termination.TimeBudget
            elif len(trace) - 1 == max_iters:
                stop = Termination.IterationBudget
            elif closed == max_epochs:
                stop = Termination.EpochBudget
            else:
                stop = None
            if stop is not None:
                break
            if step is None:  # the epoch opens at its anchor's row
                step = start_epoch(counting, x.copy(), closed + 1)
            f_prev, g_prev = f, g
            x, closes, dist = step(x, g, f)
            k += 1
            if closes:
                closed += 1
                k, dist, step = 0, 0.0, None
    except _BudgetSpent:
        stop = Termination.EvalBudget
    last = trace[-1]
    return RunResult(traced, last.grad_norm, stop, trace, last.epoch - 1, counting.grad_evals,
                     counting.value_evals)

