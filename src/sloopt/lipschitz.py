"""Per-epoch local Lipschitz constants, analytic when available, sampled otherwise."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ObjectiveOracle, as_vector


class EstimationError(RuntimeError):
    pass


@dataclass
class LipschitzEstimate:
    order: int  # 1 = gradient-Lipschitz, 2 = Hessian-Lipschitz
    value: float
    center: np.ndarray
    radius: float
    method: str  # "analytic" or "sampled"
    n_samples: int = 0
    seed: int | None = None


def _sample_ball(rng, center, radius, n):
    """n points uniform in the closed ball B(center, radius)."""
    dim = center.size
    directions = rng.standard_normal((n, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / dim)
    return center + directions * radii[:, None]


def _pairs(points, center):
    """Disjoint sample pairs plus each sample paired with the center."""
    n = len(points)
    for i in range(0, n - 1, 2):
        yield points[i], points[i + 1]
    for p in points:
        yield p, center


def _max_ratio(diff_fn, points, center):
    best = 0.0
    seen = False
    for a, b in _pairs(points, center):
        dist = float(np.linalg.norm(a - b))
        if dist < 1e-12:
            continue
        seen = True
        best = max(best, diff_fn(a, b) / dist)
    if not seen:
        raise EstimationError("all sampled pairs degenerate")
    return max(1.0, best)


def _estimate(order, oracle, center, radius, n_samples, seed, make_diff):
    """Shared body of the estimators: the analytic bound when the oracle has
    one, else the max ratio over sample pairs of ``make_diff(rng)``, a
    difference function built from the generator after the points are drawn."""
    center = as_vector(center)
    if radius <= 0:
        raise ValueError("radius must be positive")
    growth = oracle.growth1 if order == 1 else oracle.growth2
    if growth is not None:
        r = float(np.linalg.norm(center - oracle.anchor)) + radius
        return LipschitzEstimate(order, max(1.0, float(growth(r))), center, radius, "analytic")
    if n_samples < 2:
        raise ValueError("need at least 2 samples without analytic growth")
    rng = np.random.default_rng(seed)
    points = _sample_ball(rng, center, radius, n_samples)
    value = _max_ratio(make_diff(rng), points, center)
    return LipschitzEstimate(order, value, center, radius, "sampled", n_samples, seed)


def estimate_l1(oracle: ObjectiveOracle, center, radius, n_samples=50, seed=0) -> LipschitzEstimate:
    """Gradient-Lipschitz constant over B(center, radius).

    Analytic growth functions are evaluated on the enclosing ball around the
    oracle anchor; otherwise the max gradient-difference ratio over seeded
    sample pairs is returned, floored at 1. Sampled values are a lower bound
    of the true supremum; callers are expected to apply a safety factor.
    """
    def grad_diff(a, b):
        return float(np.linalg.norm(oracle.gradient(a) - oracle.gradient(b)))

    return _estimate(1, oracle, center, radius, n_samples, seed, lambda rng: grad_diff)


def estimate_l2(oracle: ObjectiveOracle, center, radius, n_samples=50, seed=0) -> LipschitzEstimate:
    """Hessian-Lipschitz constant over B(center, radius).

    The sampled path probes Hessian-vector products along one seeded random
    unit direction via central differences of the gradient.
    """
    h = 1e-4 * radius

    def hv_diff(rng):
        probe = rng.standard_normal(np.size(center))
        probe /= np.linalg.norm(probe)

        def hess_vec(p):
            return (oracle.gradient(p + h * probe) - oracle.gradient(p - h * probe)) / (2.0 * h)

        return lambda a, b: float(np.linalg.norm(hess_vec(a) - hess_vec(b)))

    return _estimate(2, oracle, center, radius, n_samples, seed, hv_diff)
