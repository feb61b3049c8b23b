import math

import numpy as np
import pytest

from sloopt.core import CountingOracle, ObjectiveOracle
from sloopt.lipschitz import EstimationError, estimate_l1, estimate_l2
from sloopt.problems import (LinearNetProblem, LinearProblem, QuadraticProblem,
                             QuarticProblem, generate_planted_tensor)


def test_analytic_path_uses_growth_functions():
    p = QuarticProblem(2)
    est = estimate_l1(p, np.zeros(2), 0.5)
    assert est.method == "analytic"
    assert est.value == p.growth1(0.5)
    est2 = estimate_l2(p, np.zeros(2), 0.5)
    assert est2.method == "analytic"
    assert est2.value == p.growth2(0.5)


def test_analytic_ball_encloses_offset_center():
    p = QuarticProblem(1)
    # center at 2, radius 0.5: the ball around the oracle anchor (0) must
    # have radius 2.5
    est = estimate_l1(p, np.array([2.0]), 0.5)
    assert est.value == p.growth1(2.5)


def test_sampled_estimate_on_quadratic_close_to_one():
    p, _ = generate_planted_tensor(3, 3, 1, 0.5, 1.5, 0)
    est = estimate_l1(p, np.zeros(3), 2.0, n_samples=50, seed=0)
    assert est.method == "sampled"
    assert est.value >= 1.0
    # deterministic in the seed
    est_b = estimate_l1(p, np.zeros(3), 2.0, n_samples=50, seed=0)
    assert est.value == est_b.value
    est_c = estimate_l1(p, np.zeros(3), 2.0, n_samples=50, seed=1)
    assert est.value != est_c.value


class _NoGrowthQuadratic(QuadraticProblem):
    growth1 = None
    growth2 = None


def test_sampled_l1_lower_bounds_true_constant():
    # for f = 0.5||x||^2 every gradient ratio is exactly 1
    p = _NoGrowthQuadratic(4)
    est = estimate_l1(p, np.ones(4), 2.0, n_samples=40, seed=3)
    assert est.method == "sampled"
    assert abs(est.value - 1.0) < 1e-9


def test_l2_without_analytic_growth_is_rejected():
    p = _NoGrowthQuadratic(2)
    with pytest.raises(ValueError, match="growth2"):
        estimate_l2(p, np.zeros(2), 0.5)


def test_constant_gradient_floors_at_one():
    class _NoGrowthLinear(LinearProblem):
        growth1 = None
        growth2 = None

    p = _NoGrowthLinear(np.array([1.0, -2.0]))
    est = estimate_l1(p, np.zeros(2), 1.0, n_samples=20, seed=0)
    assert est.value == 1.0


@pytest.mark.parametrize("call, message", [
    (lambda: estimate_l1(_NoGrowthQuadratic(2), np.zeros(2), 1.0, n_samples=1),
     "need at least 2 samples without analytic growth"),
    (lambda: estimate_l2(QuarticProblem(2), np.zeros(2), 0.0), "radius must be positive"),
    (lambda: estimate_l1(QuarticProblem(1), np.array([100.0]), math.nan), "radius must be positive"),
    (lambda: estimate_l2(QuarticProblem(1), np.array([100.0]), math.nan), "radius must be positive"),
], ids=["one-sample", "l2-radius-zero", "l1-radius-nan", "l2-radius-nan"])
def test_lipschitz_rejections_name_their_cause(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_degenerate_radius_rejected():
    p = QuadraticProblem(2)
    with pytest.raises((ValueError, EstimationError)):
        estimate_l1(p, np.zeros(2), 0.0)


def _reference_draw(center, radius, n, seed):
    """The n sample points uniform in B(center, radius), in draw order."""
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n, center.size))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / center.size)
    return center + directions * radii[:, None]


def _reference_estimate(oracle, center, radius, n, seed):
    """The sampled estimate as a plain pairwise loop in which every pair
    evaluates both of its ends afresh."""
    points = _reference_draw(center, radius, n, seed)
    pairs = [(points[i], points[i + 1]) for i in range(0, n - 1, 2)]
    pairs += [(p, center) for p in points]
    best = 0.0
    for a, b in pairs:
        dist = float(np.linalg.norm(a - b))
        if dist >= 1e-12:
            gap = oracle.gradient(a) - oracle.gradient(b)
            best = max(best, float(np.linalg.norm(gap)) / dist)
    return max(1.0, best)


def _sampled_problems():
    tensor, _ = generate_planted_tensor(4, 3, 2, 0.5, 1.5, 1)
    rng = np.random.default_rng(2)
    net = LinearNetProblem(rng.standard_normal((3, 10)), [(2, 3), (3, 2)], "autoencoder")
    return [(tensor, np.full(tensor.dim, 0.3)), (net, rng.uniform(0.0, 0.5, net.dim))]


@pytest.mark.parametrize("case", [0, 1], ids=["tensor", "linear-net"])
def test_sampled_estimate_equals_pairwise_reference(case):
    oracle, center = _sampled_problems()[case]
    est = estimate_l1(oracle, center, 0.4, n_samples=25, seed=(3, 1))
    assert est.method == "sampled"
    assert est.value == _reference_estimate(oracle, center, 0.4, 25, (3, 1))


@pytest.mark.parametrize("n", [2, 7, 50])
def test_sampled_estimates_evaluate_each_point_once(n):
    for oracle, center in _sampled_problems():
        counting = CountingOracle(oracle)
        estimate_l1(counting, center, 0.4, n_samples=n, seed=0)
        assert counting.grad_evals == n + 1


class _LoggingOracle(ObjectiveOracle):
    """Passes calls to ``base`` and keeps a copy of every gradient point."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.points = []

    def value(self, x):
        return self.base.value(x)

    def gradient(self, x):
        self.points.append(np.array(x))
        return self.base.gradient(x)


def _as_bytes(points):
    return [p.tobytes() for p in points]


@pytest.mark.parametrize("n", [2, 7, 25])
@pytest.mark.parametrize("case", [0, 1], ids=["tensor", "linear-net"])
def test_sampled_estimates_probe_center_then_samples_in_draw_order(case, n):
    oracle, center = _sampled_problems()[case]
    samples = _reference_draw(center, 0.4, n, (3, 1))
    logged = _LoggingOracle(oracle)
    estimate_l1(logged, center, 0.4, n_samples=n, seed=(3, 1))
    assert _as_bytes(logged.points) == _as_bytes([center, *samples])


def test_radius_below_resolution_raises_after_probing_only_the_center():
    oracle, center = _sampled_problems()[0]
    logged = _LoggingOracle(oracle)
    with pytest.raises(EstimationError, match="all sampled pairs degenerate"):
        estimate_l1(logged, center, 1e-300, n_samples=10, seed=0)
    assert len(logged.points) == 1 and np.array_equal(logged.points[0], center)
