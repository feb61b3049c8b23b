"""Accelerated ball-constrained subroutine with negative-curvature exploitation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ObjectiveOracle, as_vector, check_finite, project_ball

_BOUNDARY_TOL = 1e-12


class AgpError(RuntimeError):
    """Internal inconsistency in the accelerated subroutine (bad constants)."""


class AugmentedOracle(ObjectiveOracle):
    """The proximally regularized objective f(x) + agp_alpha * ||x - anchor||^2."""

    def __init__(self, base: ObjectiveOracle, anchor_xbar, agp_alpha: float):
        if agp_alpha <= 0:
            raise ValueError("agp_alpha must be positive")
        self.base = base
        self.dim = base.dim
        self.anchor_xbar = as_vector(anchor_xbar)
        self.agp_alpha = float(agp_alpha)

    def value(self, x):
        d = as_vector(x) - self.anchor_xbar
        return self.base.value(x) + self.agp_alpha * float(np.dot(d, d))

    def gradient(self, x):
        d = as_vector(x) - self.anchor_xbar
        return self.base.gradient(x) + 2.0 * self.agp_alpha * d


@dataclass
class AgpRegion:
    """Closed ball X used by the inner accelerated loop; interior is strict."""
    center: np.ndarray
    inner_radius: float

    def __post_init__(self):
        self.center = as_vector(self.center)
        if self.inner_radius <= 0:
            raise ValueError("inner_radius must be positive")

    def is_interior(self, x) -> bool:
        return float(np.linalg.norm(x - self.center)) < self.inner_radius

    def on_boundary(self, x) -> bool:
        d = float(np.linalg.norm(x - self.center))
        return d >= self.inner_radius * (1 - _BOUNDARY_TOL)

    def project(self, x):
        return project_ball(x, self.center, self.inner_radius)


@dataclass
class UpgOutcome:
    flag: int
    point_p: np.ndarray | None = None
    nc_u: np.ndarray | None = None
    nc_v: np.ndarray | None = None
    y_history: list | None = None
    iters_t: int = 0
    grad_evals: int = 0
    iter_bound: float | None = None  # theoretical cap evaluated at exit, for audits

    def __post_init__(self):
        if self.flag in (1, 3, 5):
            assert self.point_p is not None and self.nc_u is None
        elif self.flag in (2, 4):
            assert self.nc_u is not None and self.nc_v is not None
            assert self.y_history is not None and self.point_p is None
        else:
            raise ValueError(f"invalid flag {self.flag}")


def find_nc_pair(f_hat, x_hist, y_hist, w, alpha):
    """First witness that f_hat is not alpha-strongly convex above its tangents.

    Scans j ascending, trying u = y_hist[j] then u = w against v = x_hist[j];
    returns (u, v) for the first strict violation, or None.
    """
    if len(x_hist) != len(y_hist):
        raise ValueError("x_hist and y_hist must have equal length")
    w = as_vector(w)
    fw = f_hat.value(w)
    for xj, yj in zip(x_hist, y_hist):
        fxj = f_hat.value(xj)
        gxj = f_hat.gradient(xj)
        for u, fu in ((yj, f_hat.value(yj)), (w, fw)):
            gap = u - xj
            tangent = fxj + float(np.dot(gxj, gap)) + 0.5 * alpha * float(np.dot(gap, gap))
            if fu < tangent:
                return np.array(u, dtype=float), np.array(xj, dtype=float)
    return None


def certify_progress(f_hat, region: AgpRegion, y0, yt, l1_hat, alpha, kappa, t,
                     grad_yt=None):
    """Witness that the accelerated iterates are not making certified progress.

    Returns a witness point or None. The three branches, in order: objective
    increase (witness y0), a gradient step exiting the interior (witness its
    projection), or a gradient norm too large for t accelerated iterations
    (witness the gradient step itself).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    y0 = as_vector(y0)
    yt = as_vector(yt)
    if f_hat.value(yt) > f_hat.value(y0):
        return np.array(y0)
    g = f_hat.gradient(yt) if grad_yt is None else grad_yt
    z = yt - g / l1_hat
    if not region.is_interior(z):
        return region.project(z)
    psi = _psi(f_hat, y0, z, alpha)
    if float(np.dot(g, g)) > 2.0 * l1_hat * psi * math.exp(-t / math.sqrt(kappa)):
        return z
    return None


def _psi(f_hat, y0, z, alpha):
    dz = z - y0
    return f_hat.value(y0) - f_hat.value(z) + 0.5 * alpha * float(np.dot(dz, dz))


def _iter_bound(l1_hat, alpha, psi, eps_hat):
    if psi <= 0:
        return 1.0
    return 1.0 + max(0.0, math.sqrt(l1_hat / alpha) * math.log(2.0 * l1_hat * psi / eps_hat))


def agp_upg(f_hat, region: AgpRegion, y0, eps_hat, l1_hat, alpha) -> UpgOutcome:
    """Accelerated projected gradient loop that stops at one of five outcomes.

    Flags: 1 boundary exit with descent, 2 boundary exit with an NC pair,
    3 certified witness on the boundary, 4 interior NC pair, 5 small
    augmented gradient.
    """
    y0 = as_vector(y0)
    if not region.is_interior(y0):
        raise ValueError("y0 must be interior to the region")
    if not (l1_hat >= alpha > 0):
        raise ValueError("require l1_hat >= alpha > 0")
    if eps_hat <= 0:
        raise ValueError("eps_hat must be positive")
    kappa = l1_hat / alpha
    omega = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    x_hist = [y0]
    y_hist = [y0]
    grad_evals = 0
    cap = 10_000  # refined from the theoretical bound at t = 1
    bound_at_exit = None
    t = 1
    while True:
        g = f_hat.gradient(x_hist[t - 1])
        grad_evals += 1
        y_tilde = x_hist[t - 1] - g / l1_hat
        check_finite(y_tilde, "accelerated iterate")
        if region.is_interior(y_tilde):
            y_hist.append(y_tilde)
        else:
            yt = region.project(y_tilde)
            y_hist.append(yt)
            if f_hat.value(yt) <= f_hat.value(y0):
                return UpgOutcome(1, point_p=yt, iters_t=t, grad_evals=grad_evals,
                                  iter_bound=bound_at_exit)
            pair = find_nc_pair(f_hat, x_hist[:t], y_hist[:t], y0, alpha)
            if pair is None:
                raise AgpError("boundary exit without descent but no NC pair found; "
                               "l1_hat is likely underestimated")
            return UpgOutcome(2, nc_u=pair[0], nc_v=pair[1],
                              y_history=[np.array(v) for v in y_hist],
                              iters_t=t, grad_evals=grad_evals,
                              iter_bound=bound_at_exit)
        yt = y_hist[t]
        x_hist.append(yt + omega * (yt - y_hist[t - 1]))
        gy = f_hat.gradient(yt)
        grad_evals += 1
        w = certify_progress(f_hat, region, y0, yt, l1_hat, alpha, kappa, t, grad_yt=gy)
        z = yt - gy / l1_hat
        if region.is_interior(z):
            psi = _psi(f_hat, y0, z, alpha)
            bound_at_exit = _iter_bound(l1_hat, alpha, psi, eps_hat)
            if t == 1:
                cap = max(10_000, int(10 * bound_at_exit) + 1)
        if w is not None:
            if region.on_boundary(w):
                return UpgOutcome(3, point_p=w, iters_t=t, grad_evals=grad_evals,
                                  iter_bound=bound_at_exit)
            pair = find_nc_pair(f_hat, x_hist[:t], y_hist[:t], w, alpha)
            if pair is None:
                raise AgpError("progress certificate failed but no NC pair found; "
                               "l1_hat is likely underestimated")
            return UpgOutcome(4, nc_u=pair[0], nc_v=pair[1],
                              y_history=[np.array(v) for v in y_hist],
                              iters_t=t, grad_evals=grad_evals,
                              iter_bound=bound_at_exit)
        if float(np.linalg.norm(gy)) <= math.sqrt(eps_hat):
            return UpgOutcome(5, point_p=yt, iters_t=t, grad_evals=grad_evals,
                              iter_bound=bound_at_exit)
        t += 1
        if t > cap:
            raise AgpError(
                f"accelerated loop exceeded the safety cap of {cap} iterations; "
                "the Lipschitz estimates are inconsistent with the objective"
            )


def a_agp(oracle: ObjectiveOracle, xbar, l1, l2, epoch_anchor, radius_D, epsilon):
    """One accelerated epoch step: regularize at xbar, run the inner loop,
    and convert NC pairs into descent via the curvature-exploiting probes.

    The output always stays within radius_D of the epoch anchor.
    """
    xbar = as_vector(xbar)
    epoch_anchor = as_vector(epoch_anchor)
    quarter = epsilon ** 0.25
    inner_radius = radius_D - 2.0 * quarter
    if inner_radius <= 0:
        raise ValueError("radius_D must exceed 2*eps^(1/4)")
    if float(np.linalg.norm(xbar - epoch_anchor)) >= inner_radius:
        raise ValueError("xbar must lie strictly inside the inner region")
    if l1 < 1 or l2 < 1:
        raise ValueError("Lipschitz constants are floored at 1")
    alpha = 2.0 * math.sqrt(l2) * quarter
    f_hat = AugmentedOracle(oracle, xbar, alpha)
    region = AgpRegion(epoch_anchor, inner_radius)
    outcome = agp_upg(f_hat, region, xbar, epsilon / 100.0, l1 + 2.0 * alpha, alpha)
    if outcome.flag in (1, 3, 5):
        return outcome.point_p, outcome
    u, v = outcome.nc_u, outcome.nc_v
    sep = u - v
    sep_norm = float(np.linalg.norm(sep))
    if sep_norm < 1e-15:
        raise AgpError("degenerate NC pair (u == v); oracle inconsistency")
    candidates_1 = outcome.y_history[1:outcome.iters_t] + [u]
    b1 = min(candidates_1, key=oracle.value)
    step = (alpha / (l2 * sep_norm)) * sep
    b2 = min((u + step, u - step), key=oracle.value)
    threshold = oracle.value(xbar) - alpha ** 3 / (64.0 * l2 * l2)
    out = b1 if oracle.value(b1) <= threshold else b2
    return check_finite(np.array(out), "a_agp output"), outcome
