import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloopt.core import finite_diff_gradient
from sloopt.problems import (LinearNetProblem, QuarticProblem,
                             SymTensorProblem, generate_planted_labels,
                             generate_planted_tensor, tensor_from_components,
                             uniform_init)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


def test_tensor_value_zero_at_planted_components():
    prob, comps = generate_planted_tensor(4, 3, 2, 0.5, 1.5, 0)
    assert prob.value(comps.reshape(-1)) < 1e-24


def test_tensor_rank_one_hand_value():
    # T = e1^(x)3, one component x = e1: residual is exactly zero
    t = tensor_from_components(np.array([[1.0, 0.0]]), 3)
    prob = SymTensorProblem(t, 1)
    assert prob.value(np.array([1.0, 0.0])) == 0.0
    # at x = 0 the residual is T itself, ||T||^2 = 1
    assert prob.value(np.zeros(2)) == 1.0


def test_tensor_gradient_matches_finite_differences():
    prob, _ = generate_planted_tensor(3, 3, 2, 0.5, 1.5, 1)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(-1, 1, prob.dim)
        g = prob.gradient(x)
        assert rel_err(g, finite_diff_gradient(prob, x, 1e-6)) < 1e-6


def test_tensor_requires_odd_order():
    t = np.zeros((2, 2, 2, 2))
    with pytest.raises(ValueError):
        SymTensorProblem(t, 1)


def test_net_autoencoder_perfect_identity():
    X = np.random.default_rng(0).standard_normal((3, 10))
    prob = LinearNetProblem(X, [(3, 3), (3, 3)], "autoencoder")
    w = prob.flatten([np.eye(3), np.eye(3)])
    assert prob.value(w) == 0.0


def test_net_supervised_zero_at_planted_weights():
    shapes = [(4, 6), (4, 4), (6, 4)]
    X = np.random.default_rng(1).standard_normal((6, 20))
    Y, mats = generate_planted_labels(shapes, X, 2)
    prob = LinearNetProblem(X, shapes, "supervised", Y)
    assert prob.value(prob.flatten(mats)) < 1e-20


def test_net_gradient_matches_finite_differences():
    shapes = [(3, 4), (4, 3)]
    X = np.random.default_rng(3).standard_normal((4, 8))
    prob = LinearNetProblem(X, shapes, "autoencoder")
    rng = np.random.default_rng(4)
    for _ in range(5):
        w = rng.uniform(-0.5, 0.5, prob.dim)
        assert rel_err(prob.gradient(w),
                       finite_diff_gradient(prob, w, 1e-6)) < 1e-6


def test_net_rejects_incompatible_shapes():
    X = np.zeros((4, 5))
    with pytest.raises(ValueError):
        LinearNetProblem(X, [(3, 4), (4, 2)], "autoencoder")


def test_quartic_hand_values():
    p = QuarticProblem(1)
    assert p.value(np.array([2.0])) == 4.0
    np.testing.assert_allclose(p.gradient(np.array([2.0])), [8.0])


def test_uniform_init_range_and_determinism():
    a = uniform_init(10, 0.1, 5)
    b = uniform_init(10, 0.1, 5)
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= 0) and np.all(a <= 0.1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_tensor_value_nonnegative(seed):
    prob, _ = generate_planted_tensor(3, 3, 1, 0.5, 1.5, 0)
    x = uniform_init(prob.dim, 2.0, seed) - 1.0
    assert prob.value(x) >= 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_planted_tensor_is_symmetric(seed):
    prob, _ = generate_planted_tensor(3, 3, 2, 0.5, 1.5, seed)
    t = prob.tensor
    np.testing.assert_allclose(t, np.transpose(t, (1, 0, 2)), atol=1e-12)
    np.testing.assert_allclose(t, np.transpose(t, (2, 1, 0)), atol=1e-12)
