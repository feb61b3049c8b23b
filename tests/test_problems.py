import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import dense_tensor, dense_value_and_gradient, fd_gradient
from sloopt.core import EvaluationError
from sloopt.problems import (LinearNetProblem, LinearProblem, NegQuadraticProblem,
                             PlantedTensorProblem, QuadraticProblem,
                             QuarticProblem, generate_planted_labels,
                             generate_planted_tensor, uniform_init)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


def test_tensor_value_zero_at_planted_components():
    prob, comps = generate_planted_tensor(4, 3, 2, 0.5, 1.5, 0)
    assert prob.value(comps.reshape(-1)) < 1e-24


def test_tensor_rank_one_hand_value():
    # T = e1^(x)3, one component x = e1: residual is exactly zero
    prob = PlantedTensorProblem(np.array([[1.0, 0.0]]), 3, 1)
    assert prob.value(np.array([1.0, 0.0])) == 0.0
    # at x = 0 the residual is T itself, ||T||^2 = 1
    assert prob.value(np.zeros(2)) == 1.0


def test_tensor_gradient_matches_finite_differences():
    prob, _ = generate_planted_tensor(3, 3, 2, 0.5, 1.5, 1)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(-1, 1, prob.dim)
        g = prob.gradient(x)
        assert rel_err(g, fd_gradient(prob, x, 1e-6)) < 1e-6


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(3, 3, 2), (4, 5, 3), (5, 3, 1)]))
def test_planted_gram_form_matches_dense(seed, shape):
    d, k, m = shape
    prob, comps = generate_planted_tensor(d, k, m, 0.5, 1.5, seed)
    assert isinstance(prob, PlantedTensorProblem)
    tensor = dense_tensor(comps, k)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.uniform(-1.5, 1.5, prob.dim)
        f, g = dense_value_and_gradient(tensor, x, m)
        assert abs(prob.value(x) - f) <= 1e-10 * abs(f)
        assert rel_err(prob.gradient(x), g) <= 1e-10
    assert prob.value(comps.reshape(-1)) == 0.0


def test_tensor_requires_odd_order():
    comps = np.eye(3)[:2]
    for k in (1, 2, 4):
        with pytest.raises(ValueError, match="odd"):
            PlantedTensorProblem(comps, k, 2)


def test_planted_gram_form_validation():
    comps = np.eye(3)[:2]
    for bad, m in ((comps, 3), (comps.reshape(-1), 2), (comps[None], 2)):
        with pytest.raises(ValueError, match="shape"):
            PlantedTensorProblem(bad, 3, m)


def test_planted_gradient_needs_no_dense_tensor():
    # dense, this instance would have 50^5 = 312,500,000 entries
    prob, _ = generate_planted_tensor(50, 5, 3, 0.5, 1.5, 0)
    x = np.random.default_rng(1).uniform(-1, 1, prob.dim)
    assert rel_err(prob.gradient(x), fd_gradient(prob, x, 1e-6)) < 1e-6


def test_net_autoencoder_perfect_identity():
    X = np.random.default_rng(0).standard_normal((3, 10))
    prob = LinearNetProblem(X, [(3, 3), (3, 3)], "autoencoder")
    w = np.concatenate([np.eye(3).ravel(), np.eye(3).ravel()])
    assert prob.value(w) == 0.0


def test_net_supervised_zero_at_planted_weights():
    shapes = [(4, 6), (4, 4), (6, 4)]
    X = np.random.default_rng(1).standard_normal((6, 20))
    Y, mats = generate_planted_labels(shapes, X, 2)
    prob = LinearNetProblem(X, shapes, "supervised", Y)
    assert prob.value(np.concatenate([m.ravel() for m in mats])) < 1e-20


def test_net_gradient_matches_finite_differences():
    shapes = [(3, 4), (4, 3)]
    X = np.random.default_rng(3).standard_normal((4, 8))
    prob = LinearNetProblem(X, shapes, "autoencoder")
    rng = np.random.default_rng(4)
    for _ in range(5):
        w = rng.uniform(-0.5, 0.5, prob.dim)
        assert rel_err(prob.gradient(w),
                       fd_gradient(prob, w, 1e-6)) < 1e-6


def test_net_rejects_incompatible_shapes():
    X = np.zeros((4, 5))
    with pytest.raises(ValueError):
        LinearNetProblem(X, [(3, 4), (4, 2)], "autoencoder")


_X = np.zeros((2, 5))  # data with 2 features and 5 samples


@pytest.mark.parametrize("call, message", [
    (lambda: PlantedTensorProblem(np.zeros((1, 2)), 0, 1),
     "order_k must be an odd integer >= 3"),
    (lambda: PlantedTensorProblem(np.zeros((0, 2)), 3, 0), "rank_m must be >= 1"),
    (lambda: PlantedTensorProblem(np.zeros((1, 2)), 3, 1).value(np.zeros(3)),
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
], ids=["order-zero", "rank-zero", "tensor-point-length", "net-mode", "net-first-layer", "autoencoder-output",
        "labels-missing", "labels-shape", "net-point-length", "quartic-value-length",
        "quartic-gradient-length", "quadratic-value-length", "quadratic-gradient-length",
        "negquadratic-value-length", "negquadratic-gradient-length", "linear-value-length",
        "linear-gradient-length", "rank-above-dim",
        "labels-first-layer"])
def test_problem_rejections_name_their_cause(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quartic_hand_values():
    p = QuarticProblem(1)
    assert p.value(np.array([2.0])) == 4.0
    np.testing.assert_allclose(p.gradient(np.array([2.0])), [8.0])
    # ||x||^2 overflows, without numpy's overflow warning
    assert QuarticProblem(5).value(np.full(5, 1e200)) == np.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quartic_gradient_where_the_squared_norm_overflows():
    # ||x||^2 x would give inf * 0 = NaN where x is 0
    assert QuarticProblem(2).gradient(np.array([1e200, 0.0])).tolist() == [np.inf, 0.0]
    # a convention, signs kept: ||x||^2 * 1e-300 is about 1e100, but the largest entry is truly
    # inf, so a CountingOracle rejects the gradient either way
    g = QuarticProblem(3).gradient(np.array([-1e200, -0.0, 1e-300]))
    assert g.tolist() == [-np.inf, 0.0, np.inf] and np.signbit(g).tolist() == [True, True, False]


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
    t = dense_tensor(prob.components, prob.order_k)
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
    "quadratic": lambda: QuadraticProblem(5),
    "negquadratic": lambda: NegQuadraticProblem(5),
    "linear": lambda: LinearProblem([0.5, -1.0, 2.0, 0.25]),
}
NON_FINITE = "^vector contains NaN or infinite entries$"
# Each call hands the point over in a new object: a copy, a list, a strided view, a big-endian
# copy, or its entries rounded to ints.
FORMS = {"copy": np.copy, "list": lambda x: x.tolist(),
         "strided": lambda x: np.repeat(x, 2)[::2], "big-endian": lambda x: x.astype(">f8"),
         "int": lambda x: np.rint(x).astype(int)}


def _bits(out):
    return out.hex() if isinstance(out, float) else (out.dtype, out.shape, out.tobytes())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MEMO_PROBLEMS)), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from(["call", "mutate", "2-D", "non-finite", "wrong-dim",
                                           "huge"]),
                          st.sampled_from(["value", "gradient"]), st.integers(0, 2),
                          st.sampled_from(sorted(FORMS))), min_size=1, max_size=14))
def test_memo_answers_as_a_fresh_instance(name, seed, ops):
    """Any interleaving of value/gradient calls returns the bits a fresh instance
    returns at the same point, and rejects what ``as_vector`` rejects and a point of
    another length, in that order. The check reads finiteness off ||x||^2, yet accepts
    finite entries whose squares overflow, with no warning."""
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
        elif op == "2-D":  # the memoized bytes, shaped as a matrix, with a NaN when i > 0
            shaped = last.reshape(1, -1).copy()
            if i:
                shaped[0, i] = np.nan
            with pytest.raises(ValueError, match=rf"^expected a 1-D vector, got shape \(1, "
                                                 rf"{prob.dim}\)$"):
                getattr(prob, method)(shaped)
        elif op == "wrong-dim":  # the latest point, one entry too long; non-finite ones first
            with pytest.raises(ValueError) as info:
                getattr(prob, method)(FORMS[form](np.append(last, 0.5)))
            assert str(info.value) == f"expected dimension {prob.dim}, got {prob.dim + 1}"
            with pytest.raises(EvaluationError, match=NON_FINITE):
                getattr(prob, method)(np.append(last, (np.nan, np.inf, -np.inf)[i]))
        elif op == "huge":  # entries of 1e200, whose squares overflow: passed on to compute
            huge = np.where(last < 0, -1e200, 1e200)
            v, total = prob._at(huge, lambda v: float(v.sum()))
            assert _bits(v) == _bits(huge) and total == huge.sum()
        else:  # the same non-finite point twice, at its first or last index, after a finite one
            for index in (0, -1):
                bad = last.copy()
                bad[index] = (np.nan, np.inf, -np.inf)[i]
                for _ in range(2):
                    with pytest.raises(EvaluationError, match=NON_FINITE):
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
