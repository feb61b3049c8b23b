"""Reference forms that tests check the oracles against: a central-difference
gradient, and the planted tensor objective evaluated on the dense tensor."""

import numpy as np


def fd_gradient(oracle, x, h):
    """Central-difference gradient of ``oracle.value`` at x."""
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (oracle.value(x + e) - oracle.value(x - e)) / (2.0 * h)
    return g


def _outer_power(v, k):
    """v (x) ... (x) v with k factors."""
    t = v
    for _ in range(k - 1):
        t = np.multiply.outer(t, v)
    return t


def dense_tensor(components, k):
    """T = sum_j c_j^(x)k, with d^k entries."""
    return sum(_outer_power(c, k) for c in components)


def dense_value_and_gradient(tensor, x, rank_m):
    """||R||^2 for the residual R = T - sum_i x_i^(x)k, and its gradient
    -2k R(x_i, ..., x_i, .), R contracted with block x_i over k - 1 modes."""
    k, blocks = tensor.ndim, x.reshape(rank_m, -1)
    resid = tensor - sum(_outer_power(b, k) for b in blocks)
    g = np.empty_like(blocks)
    for i, b in enumerate(blocks):
        c = resid
        for _ in range(k - 1):
            c = c @ b  # contracts the last mode
        g[i] = -2.0 * k * c
    return float(np.sum(resid ** 2)), g.reshape(-1)
