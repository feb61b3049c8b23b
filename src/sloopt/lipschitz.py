"""Local Lipschitz constants on a ball: L1 analytic or sampled, L2 analytic only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ObjectiveOracle, as_vector, norm


class EstimationError(RuntimeError):
    pass


@dataclass
class LipschitzEstimate:
    value: float
    method: str  # "analytic" or "sampled"


def _analytic(growth, center, radius):
    """``growth`` on the ball about the origin enclosing B(center, radius), floored at 1."""
    return LipschitzEstimate(max(1.0, float(growth(norm(center) + radius))), "analytic")


def estimate_l1(oracle: ObjectiveOracle, center, radius, n_samples=50, seed=0) -> LipschitzEstimate:
    """Gradient-Lipschitz constant over B(center, radius).

    The analytic ``growth1`` bound when the oracle has one; otherwise the max of
    ``||grad(a) - grad(b)|| / ||a - b||`` over seeded pairs in the ball, floored at 1,
    for ``n_samples + 1`` gradient evaluations: the center first, so that a caller's gradient
    memo at the center still serves it, then each sample once in draw order, after pairs
    closer than 1e-12 are dropped. A sampled value is a lower bound; callers apply a safety factor.
    """
    center = as_vector(center)
    if not radius > 0:
        raise ValueError("radius must be positive")
    if oracle.growth1 is not None:
        return _analytic(oracle.growth1, center, radius)
    if not n_samples >= 2:
        raise ValueError("need at least 2 samples without analytic growth")
    # the center at index 0, then n_samples points uniform in the closed ball
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n_samples, center.size))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, size=n_samples) ** (1.0 / center.size)
    points = [center, *(center + directions * radii[:, None])]
    grads = [oracle.gradient(center)]
    # disjoint sample pairs, then each sample with the center, less those closer than 1e-12
    pairs = [(i, i + 1) for i in range(1, n_samples, 2)] + [(i, 0) for i in range(1, n_samples + 1)]
    pairs = [(i, j, d) for i, j in pairs if (d := norm(points[i] - points[j])) >= 1e-12]
    if not pairs:
        raise EstimationError("all sampled pairs degenerate")
    grads += map(oracle.gradient, points[1:])
    ratios = (norm(grads[i] - grads[j]) / d for i, j, d in pairs)
    return LipschitzEstimate(max(1.0, *ratios), "sampled")


def estimate_l2(oracle: ObjectiveOracle, center, radius) -> LipschitzEstimate:
    """Hessian-Lipschitz constant over B(center, radius) from the oracle's
    analytic ``growth2``; ValueError without it. Nothing is sampled."""
    center = as_vector(center)
    if not radius > 0:
        raise ValueError("radius must be positive")
    if oracle.growth2 is None:
        raise ValueError("estimate_l2 needs an oracle with analytic growth2")
    return _analytic(oracle.growth2, center, radius)
