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


def _estimate(order, oracle, center, radius, n_samples, seed, make_probe):
    """Shared body of the estimators: the analytic bound when the oracle has
    one, else the max of ||probe(a) - probe(b)|| / ||a - b|| over seeded pairs
    in the ball, floored at 1, with ``probe = make_probe(rng)`` built after the
    points are drawn. probe runs once per point a pair needs, the center first,
    so that a caller's one-entry gradient memo at the center still serves it."""
    center = as_vector(center)
    if radius <= 0:
        raise ValueError("radius must be positive")
    growth = oracle.growth1 if order == 1 else oracle.growth2
    if growth is not None:
        r = norm(center) + radius
        return LipschitzEstimate(max(1.0, float(growth(r))), "analytic")
    if n_samples < 2:
        raise ValueError("need at least 2 samples without analytic growth")
    # the center at index 0, then n_samples points uniform in the closed ball
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n_samples, center.size))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, size=n_samples) ** (1.0 / center.size)
    points = [center, *(center + directions * radii[:, None])]
    probe = make_probe(rng)
    probed = {0: probe(center)}
    # disjoint sample pairs, then each sample paired with the center
    pairs = [(i, i + 1) for i in range(1, n_samples, 2)]
    pairs += [(i, 0) for i in range(1, n_samples + 1)]
    best = 0.0
    seen = False
    for i, j in pairs:
        dist = norm(points[i] - points[j])
        if dist < 1e-12:
            continue
        seen = True
        for k in (i, j):
            if k not in probed:
                probed[k] = probe(points[k])
        best = max(best, norm(probed[i] - probed[j]) / dist)
    if not seen:
        raise EstimationError("all sampled pairs degenerate")
    return LipschitzEstimate(max(1.0, best), "sampled")


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
