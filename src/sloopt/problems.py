"""Bundled objectives: symmetric tensor decomposition, linear networks, analytics."""

from __future__ import annotations

import numpy as np

from .core import ObjectiveOracle, as_vector

# Dense tensors only; the largest instance we target is d=8, k=5 (32768 entries).
MAX_TENSOR_ENTRIES = 1_000_000


def _outer_power(v: np.ndarray, k: int) -> np.ndarray:
    """Rank-one symmetric tensor v (x) ... (x) v with k factors."""
    t = v
    for _ in range(k - 1):
        t = np.multiply.outer(t, v)
    return t


def tensor_from_components(components, order_k: int) -> np.ndarray:
    """Sum of k-th outer powers of the given vectors. Exactly symmetric."""
    if order_k < 1:
        raise ValueError("order_k must be >= 1")
    comps = [as_vector(c) for c in components]
    d = comps[0].size
    if any(c.size != d for c in comps):
        raise ValueError("all components must share the same dimension")
    if d ** order_k > MAX_TENSOR_ENTRIES:
        raise ValueError(f"tensor with {d}^{order_k} entries exceeds the size cap")
    t = np.zeros((d,) * order_k)
    for c in comps:
        t += _outer_power(c, order_k)
    return t


class SymTensorProblem(ObjectiveOracle):
    """Least-squares fit of a symmetric k-way tensor by m symmetric rank-one terms.

    The decision variable is the concatenation (x_1, ..., x_m), one block of
    size d per component. Requires odd k so that component scales can carry
    sign.
    """

    def __init__(self, tensor: np.ndarray, rank_m: int):
        tensor = np.asarray(tensor, dtype=float)
        self.order_k = tensor.ndim
        self.dim_d = tensor.shape[0]
        if tensor.shape != (self.dim_d,) * self.order_k:
            raise ValueError("tensor must be cubical")
        if self.order_k < 3 or self.order_k % 2 == 0:
            raise ValueError("order_k must be an odd integer >= 3")
        self.rank_m = int(rank_m)
        if self.rank_m < 1:
            raise ValueError("rank_m must be >= 1")
        self.tensor = tensor
        self.dim = self.rank_m * self.dim_d

    def _blocks(self, x: np.ndarray):
        x = as_vector(x)
        if x.size != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {x.size}")
        return x.reshape(self.rank_m, self.dim_d)

    def _residual(self, blocks) -> np.ndarray:
        r = self.tensor.copy()
        for b in blocks:
            r -= _outer_power(b, self.order_k)
        return r

    def value(self, x):
        return float(np.sum(self._residual(self._blocks(x)) ** 2))

    def gradient(self, x):
        blocks = self._blocks(x)
        resid = self._residual(blocks)
        k = self.order_k
        g = np.empty_like(blocks)
        for i, b in enumerate(blocks):
            # contract the residual with x_i over k-1 modes
            c = resid
            for _ in range(k - 1):
                c = np.tensordot(c, b, axes=([c.ndim - 1], [0]))
            g[i] = -2.0 * k * c
        return g.reshape(-1)


class LinearNetProblem(ObjectiveOracle):
    """Squared loss of a product of weight matrices applied to data.

    ``layer_dims`` lists (rows, cols) for W_1, ..., W_m in application order,
    i.e. the network computes W_m ... W_1 X. The activation is the identity.
    In "autoencoder" mode the target is the data itself; "supervised" mode
    fits given labels.
    """

    def __init__(self, data_X: np.ndarray, layer_dims, mode: str = "autoencoder",
                 labels_Y: np.ndarray | None = None):
        self.data_X = np.asarray(data_X, dtype=float)
        self.layer_dims = [tuple(map(int, s)) for s in layer_dims]
        self.mode = mode
        if mode not in ("autoencoder", "supervised"):
            raise ValueError("mode must be 'autoencoder' or 'supervised'")
        if self.layer_dims[0][1] != self.data_X.shape[0]:
            raise ValueError("cols(W_1) must equal rows(data_X)")
        for (r_lo, _), (_, c_hi) in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            if c_hi != r_lo:
                raise ValueError("adjacent layer dimensions do not compose")
        if mode == "autoencoder":
            if self.layer_dims[-1][0] != self.data_X.shape[0]:
                raise ValueError("autoencoder output must match input dimension")
            self.target = self.data_X
        else:
            if labels_Y is None:
                raise ValueError("supervised mode requires labels_Y")
            self.target = np.asarray(labels_Y, dtype=float)
            if self.target.shape != (self.layer_dims[-1][0], self.data_X.shape[1]):
                raise ValueError("labels_Y shape does not match the network output")
        self.dim = sum(r * c for r, c in self.layer_dims)

    def split(self, w: np.ndarray):
        w = as_vector(w)
        if w.size != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {w.size}")
        mats, pos = [], 0
        for r, c in self.layer_dims:
            mats.append(w[pos:pos + r * c].reshape(r, c))
            pos += r * c
        return mats

    @staticmethod
    def flatten(mats) -> np.ndarray:
        return np.concatenate([np.asarray(m, dtype=float).reshape(-1) for m in mats])

    def value(self, w):
        mats = self.split(w)
        p = self.data_X
        for m in mats:
            p = m @ p
        return float(np.sum((self.target - p) ** 2))

    def gradient(self, w):
        mats = self.split(w)
        # forward activations: a[i] = W_i ... W_1 X, with a[0] = X
        acts = [self.data_X]
        for m in mats:
            acts.append(m @ acts[-1])
        back = 2.0 * (acts[-1] - self.target)
        grads = [None] * len(mats)
        for i in range(len(mats) - 1, -1, -1):
            grads[i] = back @ acts[i].T
            back = mats[i].T @ back
        return self.flatten(grads)


class QuadraticProblem(ObjectiveOracle):
    """f(x) = 0.5 ||x||^2, with constant unit gradient-Lipschitz bound."""

    def __init__(self, dim: int):
        self.dim = dim

    def growth1(self, r):
        return 1.0

    def growth2(self, r):
        return 1.0

    def value(self, x):
        x = as_vector(x)
        return float(0.5 * np.dot(x, x))

    def gradient(self, x):
        return as_vector(x).copy()


class NegQuadraticProblem(ObjectiveOracle):
    """f(x) = -0.5 ||x||^2. Unbounded below; only used inside small balls."""

    def __init__(self, dim: int):
        self.dim = dim

    def growth1(self, r):
        return 1.0

    def growth2(self, r):
        return 1.0

    def value(self, x):
        x = as_vector(x)
        return float(-0.5 * np.dot(x, x))

    def gradient(self, x):
        return -as_vector(x)


class LinearProblem(ObjectiveOracle):
    """f(x) = <slope, x>. Gradient is constant, so both growth bounds floor to 1."""

    def __init__(self, slope):
        self.slope = as_vector(slope)
        self.dim = self.slope.size

    def growth1(self, r):
        return 1.0

    def growth2(self, r):
        return 1.0

    def value(self, x):
        return float(np.dot(self.slope, as_vector(x)))

    def gradient(self, x):
        return self.slope.copy()


class QuarticProblem(ObjectiveOracle):
    """f(x) = 0.25 ||x||^4, the canonical degree-4 polynomial test objective.

    grad = ||x||^2 x, Hessian norm = 3||x||^2, third-derivative norm
    <= 6||x||. The anchor only centers the growth-function balls: on
    B(anchor, r) every point has norm <= ||anchor|| + r.
    """

    def __init__(self, dim: int, anchor=None):
        self.dim = dim
        self._anchor = np.zeros(dim) if anchor is None else as_vector(anchor)
        self._anchor_norm = float(np.linalg.norm(self._anchor))

    @property
    def anchor(self):
        return self._anchor

    def growth1(self, r):
        s = self._anchor_norm + r
        return max(1.0, 3.0 * s * s)

    def growth2(self, r):
        return max(1.0, 6.0 * (self._anchor_norm + r))

    def value(self, x):
        n2 = float(np.dot(as_vector(x), as_vector(x)))
        return 0.25 * n2 * n2

    def gradient(self, x):
        x = as_vector(x)
        return float(np.dot(x, x)) * x


def generate_planted_tensor(dim_d, order_k, rank_m, scale_low, scale_high, seed):
    """Synthesize a tensor with a known exact decomposition.

    Components are orthonormal directions (QR of a seeded Gaussian matrix),
    each scaled by a uniform draw from [scale_low, scale_high]. Returns the
    problem and the planted component blocks (an m x d array); the objective
    value at the flattened planted components is 0.
    """
    if rank_m > dim_d:
        raise ValueError("rank_m must not exceed dim_d (orthonormality)")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim_d, rank_m)))
    scales = rng.uniform(scale_low, scale_high, size=rank_m)
    components = (q * scales).T  # rows are scaled orthonormal directions
    tensor = tensor_from_components(components, order_k)
    return SymTensorProblem(tensor, rank_m), components


def generate_planted_labels(layer_dims, data_X, seed):
    """Seeded planted weights and the exact labels they produce."""
    rng = np.random.default_rng(seed)
    data_X = np.asarray(data_X, dtype=float)
    dims = [tuple(map(int, s)) for s in layer_dims]
    if dims[0][1] != data_X.shape[0]:
        raise ValueError("cols(W_1) must equal rows(data_X)")
    mats = []
    for r, c in dims:
        mats.append(rng.standard_normal((r, c)))
    y = data_X
    for m in mats:
        y = m @ y
    return y, mats


def uniform_init(dim, c, seed):
    """Elementwise Unif[0, c] initial point, the experiment-table convention."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, c, size=dim)
