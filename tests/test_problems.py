import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sloopt.core import EvaluationError, finite_diff_gradient
import sloopt.problems
from sloopt.problems import (LinearNetProblem, LinearProblem, NegQuadraticProblem,
                             PlantedTensorProblem, QuadraticProblem,
                             QuarticProblem, SymTensorProblem,
                             generate_planted_labels,
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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(3, 3, 2), (4, 5, 3), (5, 3, 1)]))
def test_planted_gram_form_matches_dense(seed, shape):
    d, k, m = shape
    prob, comps = generate_planted_tensor(d, k, m, 0.5, 1.5, seed)
    assert isinstance(prob, PlantedTensorProblem)
    dense = SymTensorProblem(prob.tensor, m)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.uniform(-1.5, 1.5, prob.dim)
        f = dense.value(x)
        assert abs(prob.value(x) - f) <= 1e-10 * abs(f)
        assert rel_err(prob.gradient(x), dense.gradient(x)) <= 1e-10
    assert prob.value(comps.reshape(-1)) == 0.0


def test_planted_gram_form_validation():
    comps = np.eye(3)[:2]
    for k in (1, 2, 4):
        with pytest.raises(ValueError, match="odd"):
            PlantedTensorProblem(comps, k, 2)
    for bad, m in ((comps, 3), (comps.reshape(-1), 2), (comps[None], 2)):
        with pytest.raises(ValueError, match="shape"):
            PlantedTensorProblem(bad, 3, m)


def test_planted_gram_form_skips_the_size_cap():
    # dense, this instance would have 50^5 = 312,500,000 entries
    prob, _ = generate_planted_tensor(50, 5, 3, 0.5, 1.5, 0)
    x = np.random.default_rng(1).uniform(-1, 1, prob.dim)
    assert rel_err(prob.gradient(x), finite_diff_gradient(prob, x, 1e-6)) < 1e-6
    with pytest.raises(ValueError, match="size cap"):
        prob.tensor


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


_X = np.zeros((2, 5))  # data with 2 features and 5 samples


@pytest.mark.parametrize("call, message", [
    (lambda: tensor_from_components([[1.0, 0.0]], 0), "order_k must be >= 1"),
    (lambda: tensor_from_components([[1.0, 0.0], [1.0, 0.0, 0.0]], 3),
     "all components must share the same dimension"),
    (lambda: SymTensorProblem(np.zeros((2, 3, 2)), 1), "tensor must be cubical"),
    (lambda: SymTensorProblem(np.zeros((2, 2, 2)), 0), "rank_m must be >= 1"),
    (lambda: SymTensorProblem(np.zeros((2, 2, 2)), 1).value(np.zeros(3)),
     "expected dimension 2, got 3"),
    (lambda: LinearNetProblem(_X, [(2, 2)], "other"),
     "mode must be 'autoencoder' or 'supervised'"),
    (lambda: LinearNetProblem(_X, [(2, 3)]), "cols(W_1) must equal rows(data_X)"),
    (lambda: LinearNetProblem(_X, [(3, 2)], "autoencoder"),
     "autoencoder output must match input dimension"),
    (lambda: LinearNetProblem(_X, [(3, 2)], "supervised"), "supervised mode requires labels_Y"),
    (lambda: LinearNetProblem(_X, [(3, 2)], "supervised", np.zeros((3, 4))),
     "labels_Y shape does not match the network output"),
    (lambda: LinearNetProblem(_X, [(2, 2)]).value(np.zeros(5)), "expected dimension 4, got 5"),
    (lambda: QuarticProblem(3).value(np.ones(5)), "expected dimension 3, got 5"),
    (lambda: QuarticProblem(3).gradient(np.ones(5)), "expected dimension 3, got 5"),
    (lambda: QuadraticProblem(3).value(np.ones(5)), "expected dimension 3, got 5"),
    (lambda: QuadraticProblem(3).gradient(np.ones(5)), "expected dimension 3, got 5"),
    (lambda: NegQuadraticProblem(3).value(np.ones(5)), "expected dimension 3, got 5"),
    (lambda: NegQuadraticProblem(3).gradient(np.ones(5)), "expected dimension 3, got 5"),
    (lambda: LinearProblem([1.0, 2.0]).value(np.ones(5)), "expected dimension 2, got 5"),
    (lambda: LinearProblem([1.0, 2.0]).gradient(np.ones(5)), "expected dimension 2, got 5"),
    (lambda: generate_planted_tensor(2, 3, 3, 0.5, 1.5, 0),
     "rank_m must not exceed dim_d (orthonormality)"),
    (lambda: generate_planted_labels([(2, 3)], _X, 0), "cols(W_1) must equal rows(data_X)"),
], ids=["order-zero", "ragged-components", "non-cubical-tensor", "rank-zero",
        "tensor-point-length", "net-mode", "net-first-layer", "autoencoder-output",
        "labels-missing", "labels-shape", "net-point-length", "quartic-value-length",
        "quartic-gradient-length", "quadratic-value-length", "quadratic-gradient-length",
        "negquadratic-value-length", "negquadratic-gradient-length", "linear-value-length",
        "linear-gradient-length", "rank-above-dim",
        "labels-first-layer"])
def test_problem_rejections_name_their_cause(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


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


_NET_X = np.random.default_rng(5).standard_normal((3, 7))
_NET_Y, _ = generate_planted_labels([(2, 3), (4, 2)], _NET_X, 6)
# Builders of a fresh instance of each problem whose value and gradient share a memo.
MEMO_PROBLEMS = {
    "planted": lambda: generate_planted_tensor(3, 5, 2, 0.5, 1.5, 0)[0],
    "autoencoder": lambda: LinearNetProblem(_NET_X, [(2, 3), (4, 2), (3, 4)], "autoencoder"),
    "supervised": lambda: LinearNetProblem(_NET_X, [(2, 3), (4, 2)], "supervised", _NET_Y),
    "quartic": lambda: QuarticProblem(6),
    "dense": lambda: SymTensorProblem(
        tensor_from_components(generate_planted_tensor(3, 3, 2, 0.5, 1.5, 0)[1], 3), 2),
    "quadratic": lambda: QuadraticProblem(5),
    "negquadratic": lambda: NegQuadraticProblem(5),
    "linear": lambda: LinearProblem([0.5, -1.0, 2.0, 0.25]),
}
# Each call hands the point over in a new object: a copy, a list, or a strided view.
FORMS = {"copy": np.copy, "list": lambda x: x.tolist(),
         "strided": lambda x: np.repeat(x, 2)[::2]}


def _bits(out):
    return out.hex() if isinstance(out, float) else (out.dtype, out.shape, out.tobytes())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MEMO_PROBLEMS)), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from(["call", "mutate", "2-D", "non-finite", "wrong-dim"]),
                          st.sampled_from(["value", "gradient"]), st.integers(0, 2),
                          st.sampled_from(sorted(FORMS))), min_size=1, max_size=14))
def test_memo_answers_as_a_fresh_instance(name, seed, ops):
    """Any interleaving of value/gradient calls returns the bits a fresh instance
    returns at the same point, and rejects what ``as_vector`` rejects and a point of
    another length."""
    prob = MEMO_PROBLEMS[name]()
    rng = np.random.default_rng(seed)
    points = [rng.uniform(-1.5, 1.5, prob.dim) for _ in range(3)]
    answers = []  # (answer, its bits when returned): later calls must not change it
    last = points[0].copy()  # the caller's array of the latest call

    def check(method, x):
        expect = getattr(MEMO_PROBLEMS[name](), method)(np.array(x, dtype=float))
        got = getattr(prob, method)(x)
        assert _bits(got) == _bits(expect)
        answers.append((got, _bits(got)))

    for op, method, i, form in ops:
        if op == "call":
            last = points[i].copy()
            check(method, last)
            check(method, FORMS[form](last))
        elif op == "mutate":  # the caller's array changes after a call
            last = points[i].copy()
            check(method, last)
            last[i % last.size] += 0.25
            check("gradient", FORMS[form](points[i]))
            check("value", points[i].copy())
            check(method, last)
        elif op == "2-D":  # the memoized bytes, shaped as a matrix
            with pytest.raises(ValueError):
                getattr(prob, method)(last.reshape(1, -1))
        elif op == "wrong-dim":  # the latest point, one entry too long
            with pytest.raises(ValueError) as info:
                getattr(prob, method)(FORMS[form](np.append(last, 0.5)))
            assert str(info.value) == f"expected dimension {prob.dim}, got {prob.dim + 1}"
        else:  # the same non-finite point twice, after a finite one
            bad = last.copy()
            bad[i % bad.size] = (np.nan, np.inf, -np.inf)[i]
            for _ in range(2):
                with pytest.raises(EvaluationError):
                    getattr(prob, method)(bad)
    check("value", last)
    for got, bits in answers:
        assert _bits(got) == bits


def test_gradients_at_two_points_are_distinct_arrays():
    """A gradient is a new array per call: a later call neither returns it again
    nor writes into it (callers keep gradients and mark them read-only)."""
    for name in sorted(MEMO_PROBLEMS):
        prob = MEMO_PROBLEMS[name]()
        x, y = np.random.default_rng(3).uniform(-1.5, 1.5, (2, prob.dim))
        g = prob.gradient(x)
        bits = g.tobytes()
        h = prob.gradient(y)
        assert not np.shares_memory(g, h), name
        # the linear gradient is the slope at every point
        assert g.tobytes() == bits and (h.tobytes() != bits or name == "linear"), name


def test_dense_value_after_gradient_reuses_the_residual(monkeypatch):
    prob = SymTensorProblem(
        tensor_from_components(generate_planted_tensor(4, 3, 2, 0.5, 1.5, 1)[1], 3), 2)
    calls, outer_power = [], sloopt.problems._outer_power

    def counted(v, k):
        calls.append(k)
        return outer_power(v, k)

    monkeypatch.setattr(sloopt.problems, "_outer_power", counted)
    x = np.random.default_rng(2).uniform(-1.0, 1.0, prob.dim)
    prob.gradient(x)
    prob.value(x.copy())
    assert len(calls) == prob.rank_m == 2


def _net_reference(prob, w):
    """Value and gradient of a LinearNetProblem as ``@`` products, the form the
    oracle had before it used ``ndarray.dot``."""
    mats, pos = [], 0
    for r, c in prob.layer_dims:
        mats.append(w[pos:pos + r * c].reshape(r, c))
        pos += r * c
    acts = [prob.data_X]
    for m in mats:
        acts.append(m @ acts[-1])
    value = float(((prob.target - acts[-1]) ** 2).sum())
    g, end = np.empty(prob.dim), prob.dim
    back = 2.0 * (acts[-1] - prob.target)
    for i, (r, c) in reversed(list(enumerate(prob.layer_dims))):
        g[end - r * c:end] = (back @ acts[i].T).reshape(-1)
        if i:
            back = w[end - r * c:end].reshape(r, c).T @ back
        end -= r * c
    return value, g


def _planted_reference(prob, x):
    """Value and gradient of a PlantedTensorProblem as ``@`` products."""
    xs, k, comps = x.reshape(prob.rank_m, prob.dim_d), prob.order_k, prob.components
    gram, cross = xs @ xs.T, xs @ comps.T
    const = float(np.sum((comps @ comps.T) ** k))
    value = float((gram ** k).sum() - 2.0 * (cross ** k).sum() + const)
    g = gram ** (k - 1) @ xs - cross ** (k - 1) @ comps
    return value, (2.0 * k) * g.reshape(-1)


def _assert_same_bits(prob, reference, points):
    for x in points:  # value first, then gradient, as the memo serves them
        value, grad = reference(prob, x.copy())
        assert prob.value(x).hex() == value.hex()
        assert prob.gradient(x).tobytes() == grad.tobytes()
    for x in points:  # gradient first, on a fresh memo
        value, grad = reference(prob, x.copy())
        assert prob.gradient(x.copy()).tobytes() == grad.tobytes()
        assert prob.value(x.copy()).hex() == value.hex()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["autoencoder", "supervised"]),
       st.lists(st.integers(1, 6), min_size=2, max_size=4), st.integers(1, 9),
       st.integers(0, 2**32 - 1))
def test_net_oracle_bits_match_the_matmul_form(mode, widths, samples, seed):
    if mode == "autoencoder":
        widths[-1] = widths[0]
    rng = np.random.default_rng(seed)
    shapes = [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]
    X = rng.standard_normal((widths[0], samples))
    Y = rng.standard_normal((widths[-1], samples)) if mode == "supervised" else None
    prob = LinearNetProblem(X, shapes, mode, Y)
    _assert_same_bits(prob, _net_reference, rng.uniform(-1.5, 1.5, (3, prob.dim)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(1, 8), st.integers(1, 8),
       st.integers(0, 2**32 - 1))
def test_planted_oracle_bits_match_the_matmul_form(k, d, m, seed):
    prob, _ = generate_planted_tensor(d, k, min(m, d), 0.5, 1.5, seed)
    points = np.random.default_rng(seed).uniform(-1.5, 1.5, (3, prob.dim))
    _assert_same_bits(prob, _planted_reference, points)
