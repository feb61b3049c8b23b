"""Bundled objectives: symmetric tensor decomposition, linear networks, analytics."""

from __future__ import annotations

import numpy as np

from .core import ObjectiveOracle, as_vector, check_finite


class PlantedTensorProblem(ObjectiveOracle):
    """Least-squares fit of T = sum_j c_j^(x)k by m symmetric rank-one terms x_i^(x)k.

    The decision variable is the concatenation (x_1, ..., x_m), one block of
    size d per component. Requires odd k so that component scales can carry
    sign. With X the m x d iterate blocks, C the components, G = X X^T and
    P = X C^T (powers elementwise), <a^(x)k, b^(x)k> = <a, b>^k gives

        f = ||T - sum_i x_i^(x)k||^2 = sum(G^k) - 2 sum(P^k) + sum((C C^T)^k)
        grad = 2k (G^(k-1) X - P^(k-1) C),

    which costs O(m^2 d) per call. The dense tensor T is never built.
    """

    def __init__(self, components, order_k: int, rank_m: int):
        comps = np.array(components, dtype=float, order="C")
        if comps.ndim != 2 or comps.shape[0] != rank_m:
            raise ValueError(f"components must have shape (rank_m, d) = ({rank_m}, d), "
                             f"got {comps.shape}")
        if order_k < 3 or order_k % 2 == 0:
            raise ValueError("order_k must be an odd integer >= 3")
        if rank_m < 1:
            raise ValueError("rank_m must be >= 1")
        self.order_k, self.rank_m, self.dim_d = int(order_k), int(rank_m), comps.shape[1]
        self.dim = self.rank_m * self.dim_d
        self.components = check_finite(comps, "components")
        self._const = float(np.sum((comps @ comps.T) ** order_k))

    def _blocks(self, x: np.ndarray):
        """The m x d blocks of a point that passed ``_at``'s checks."""
        return x.reshape(self.rank_m, self.dim_d)

    def _grams(self, x):
        xs = self._blocks(x)
        return xs.dot(xs.T), xs.dot(self.components.T)

    def value(self, x):
        k, (gram, cross) = self.order_k, self._at(x, self._grams)[1]
        return float((gram ** k).sum() - 2.0 * (cross ** k).sum() + self._const)

    def gradient(self, x):
        x, (gram, cross) = self._at(x, self._grams)
        xs, k = self._blocks(x), self.order_k
        g = (gram ** (k - 1)).dot(xs) - (cross ** (k - 1)).dot(self.components)
        return (2.0 * k) * g.reshape(-1)


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
        if not self.layer_dims:
            raise ValueError("layer_dims must list at least one layer")
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
        self._layout, self.dim = [], 0  # (start, stop, shape) of each W_i in the vector
        for r, c in self.layer_dims:
            self._layout.append((self.dim, self.dim + r * c, (r, c)))
            self.dim += r * c

    def _forward(self, w):
        """[X, W_1 X, ..., W_m ... W_1 X, that product minus the target] at a valid w."""
        acts = [self.data_X]
        for start, stop, shape in self._layout:
            acts.append(w[start:stop].reshape(shape).dot(acts[-1]))
        acts.append(acts[-1] - self.target)
        return acts

    def value(self, w):
        r = self._at(w, self._forward)[1][-1]
        return float(np.add.reduce(r ** 2, axis=None))

    def gradient(self, w):
        w, acts = self._at(w, self._forward)
        g = np.empty(self.dim)
        back = 2.0 * acts[-1]
        for i in range(len(self._layout) - 1, -1, -1):
            start, stop, shape = self._layout[i]
            back.dot(acts[i].T, out=g[start:stop].reshape(shape))
            if i:  # W_1^T back is never read
                back = w[start:stop].reshape(shape).T.dot(back)
        return g


def _unit_bound(self, r):
    """Growth bound of the objectives below, whose Hessian is constant."""
    return 1.0


class QuadraticProblem(ObjectiveOracle):
    """f(x) = 0.5 ||x||^2, with constant unit gradient-Lipschitz bound."""

    growth1 = growth2 = _unit_bound
    sign = 1.0

    def __init__(self, dim: int):
        self.dim = dim

    def value(self, x):
        return self.sign * 0.5 * self._at(x, None)[1]

    def gradient(self, x):
        return self.sign * self._at(x, None)[0]


class NegQuadraticProblem(QuadraticProblem):
    """f(x) = -0.5 ||x||^2. Unbounded below; only used inside small balls."""

    sign = -1.0


class LinearProblem(ObjectiveOracle):
    """f(x) = <slope, x>. Gradient is constant, so both growth bounds floor to 1."""

    growth1 = growth2 = _unit_bound

    def __init__(self, slope):
        self.slope = as_vector(slope)
        self.dim = self.slope.size

    def value(self, x):
        return float(self._at(x, self.slope.dot)[1])

    def gradient(self, x):
        self._at(x, self.slope.dot)  # checks the point
        return self.slope.copy()


class QuarticProblem(ObjectiveOracle):
    """f(x) = 0.25 ||x||^4, the canonical degree-4 polynomial test objective.

    grad = ||x||^2 x, Hessian norm = 3||x||^2, third-derivative norm
    <= 6||x||, so on the ball of radius r about the origin the growth
    bounds are 3r^2 and 6r.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def growth1(self, r):
        return max(1.0, 3.0 * r * r)

    def growth2(self, r):
        return max(1.0, 6.0 * r)

    def value(self, x):
        n2 = self._at(x, None)[1]
        return 0.25 * n2 * n2

    def gradient(self, x):
        x, n2 = self._at(x, None)
        if n2 == np.inf:  # not n2 * x, whose inf * 0 is NaN: +-inf where x != 0, by convention
            return np.where(x == 0, x, np.copysign(np.inf, x))
        return n2 * x


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
    return PlantedTensorProblem(components, order_k, rank_m), components


def generate_planted_labels(layer_dims, data_X, seed):
    """Seeded planted weights and the exact labels they produce."""
    rng = np.random.default_rng(seed)
    data_X = np.asarray(data_X, dtype=float)
    dims = [tuple(map(int, s)) for s in layer_dims]
    if not dims:
        raise ValueError("layer_dims must list at least one layer")
    if dims[0][1] != data_X.shape[0]:
        raise ValueError("cols(W_1) must equal rows(data_X)")
    mats = [rng.standard_normal(shape) for shape in dims]
    y = data_X
    for m in mats:
        y = m @ y
    return y, mats


def uniform_init(dim, c, seed):
    """Elementwise Unif[0, c] initial point, the experiment-table convention."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, c, size=dim)
