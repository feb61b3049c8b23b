"""Per-epoch local Lipschitz constants, analytic when available, sampled otherwise."""

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


def _max_ratio(probe, points, center):
    """Max of ||probe(a) - probe(b)|| / ||a - b|| over the sample pairs. probe
    runs once per distinct point, the center first, so that a caller's
    one-entry gradient memo at the center still serves it."""
    memo = {}

    def at(p):
        key = p.tobytes()
        if key not in memo:
            memo[key] = probe(p)
        return memo[key]

    at(center)
    best = 0.0
    seen = False
    for a, b in _pairs(points, center):
        dist = norm(a - b)
        if dist < 1e-12:
            continue
        seen = True
        best = max(best, norm(at(a) - at(b)) / dist)
    if not seen:
        raise EstimationError("all sampled pairs degenerate")
    return max(1.0, best)


def _estimate(order, oracle, center, radius, n_samples, seed, make_probe):
    """Shared body of the estimators: the analytic bound when the oracle has
    one, else the max ratio over sample pairs of ``make_probe(rng)``, a
    per-point function built from the generator after the points are drawn."""
    center = as_vector(center)
    if radius <= 0:
        raise ValueError("radius must be positive")
    growth = oracle.growth1 if order == 1 else oracle.growth2
    if growth is not None:
        r = norm(center) + radius
        return LipschitzEstimate(max(1.0, float(growth(r))), "analytic")
    if n_samples < 2:
        raise ValueError("need at least 2 samples without analytic growth")
    rng = np.random.default_rng(seed)
    points = _sample_ball(rng, center, radius, n_samples)
    value = _max_ratio(make_probe(rng), points, center)
    return LipschitzEstimate(value, "sampled")


def estimate_l1(oracle: ObjectiveOracle, center, radius, n_samples=50, seed=0) -> LipschitzEstimate:
    """Gradient-Lipschitz constant over B(center, radius).

    Analytic growth functions are evaluated on the enclosing ball around the
    origin; otherwise the max gradient-difference ratio over seeded
    sample pairs is returned, floored at 1, at a cost of ``n_samples + 1``
    gradient evaluations. Sampled values are a lower bound of the true
    supremum; callers are expected to apply a safety factor.
    """
    return _estimate(1, oracle, center, radius, n_samples, seed, lambda rng: oracle.gradient)


def estimate_l2(oracle: ObjectiveOracle, center, radius, n_samples=50, seed=0) -> LipschitzEstimate:
    """Hessian-Lipschitz constant over B(center, radius).

    The sampled path probes Hessian-vector products along one seeded random
    unit direction via central differences of the gradient, at a cost of
    ``2 * (n_samples + 1)`` gradient evaluations.
    """
    h = 1e-4 * radius

    def hess_vec(rng):
        u = rng.standard_normal(np.size(center))
        u /= norm(u)
        return lambda p: (oracle.gradient(p + h * u) - oracle.gradient(p - h * u)) / (2.0 * h)

    return _estimate(2, oracle, center, radius, n_samples, seed, hess_vec)
