"""Accelerated ball-constrained subroutine with negative-curvature exploitation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ObjectiveOracle, as_vector, check_finite, norm, project_ball
from .subroutines import MAX_BACKTRACKS, BacktrackBudgetError

_BOUNDARY_TOL = 1e-12


class AgpError(RuntimeError):
    """Internal inconsistency in the accelerated subroutine (bad constants)."""


class AugmentedOracle(ObjectiveOracle):
    """The proximally regularized objective f(x) + agp_alpha * ||x - anchor||^2.
    The base oracle validates each x before x - anchor is formed."""

    def __init__(self, base: ObjectiveOracle, anchor_xbar, agp_alpha: float):
        if not agp_alpha > 0:
            raise ValueError("agp_alpha must be positive")
        self.base = base
        self.dim = base.dim
        self.anchor_xbar = as_vector(anchor_xbar)
        self.agp_alpha = float(agp_alpha)

    def value(self, x):
        f = self.base.value(x)
        d = x - self.anchor_xbar
        return f + self.agp_alpha * float(d.dot(d))

    def gradient(self, x):
        g = self.base.gradient(x)
        return g + 2.0 * self.agp_alpha * (x - self.anchor_xbar)


@dataclass
class AgpRegion:
    """Closed ball X used by the inner accelerated loop; interior is strict."""
    center: np.ndarray
    inner_radius: float

    def __post_init__(self):
        self.center = as_vector(self.center)
        if not self.inner_radius > 0:
            raise ValueError("inner_radius must be positive")

    def is_interior(self, x) -> bool:
        return norm(x - self.center) < self.inner_radius

    def on_boundary(self, x) -> bool:
        d = norm(x - self.center)
        return d >= self.inner_radius * (1 - _BOUNDARY_TOL)

    def project(self, x, dist=None):
        """The projection of x onto the region; dist = ||x - center|| when the caller holds it."""
        return project_ball(x, self.center, self.inner_radius, dist)[0]


@dataclass
class UpgOutcome:
    flag: int
    point_p: np.ndarray | None = None
    nc_u: np.ndarray | None = None
    nc_v: np.ndarray | None = None
    y_history: list | None = None
    iters_t: int = 0
    iter_bound: float | None = None  # theoretical cap evaluated at exit, for audits

    def __post_init__(self):
        if self.flag in (1, 3, 5):
            assert self.point_p is not None and self.nc_u is None
        elif self.flag in (2, 4):
            assert self.nc_u is not None and self.nc_v is not None
            assert self.y_history is not None and self.point_p is None
        else:
            raise ValueError(f"invalid flag {self.flag}")


def find_nc_pair(f_hat, x_hist, y_hist, w, alpha, x_grads=None, y_values=None, w_value=None):
    """First witness that f_hat is not alpha-strongly convex above its tangents.

    Scans j ascending, trying u = y_hist[j] then u = w against v = x_hist[j];
    returns (u, v) for the first strict violation, or None. A caller that holds
    f_hat's gradients at x_hist, values at y_hist or value at w passes them in as
    x_grads, y_values or w_value; an x_hist[j] that is y_hist[j] shares its value.
    """
    if len(x_hist) != len(y_hist):
        raise ValueError("x_hist and y_hist must have equal length")
    w = as_vector(w)
    fw = f_hat.value(w) if w_value is None else w_value
    for j, (xj, yj) in enumerate(zip(x_hist, y_hist)):
        fyj = f_hat.value(yj) if y_values is None else y_values[j]
        fxj = fyj if xj is yj else f_hat.value(xj)
        gxj = f_hat.gradient(xj) if x_grads is None else x_grads[j]
        for u, fu in ((yj, fyj), (w, fw)):
            gap = u - xj
            tangent = fxj + float(gxj.dot(gap)) + 0.5 * alpha * float(gap.dot(gap))
            if fu < tangent:
                return np.array(u, dtype=float), np.array(xj, dtype=float)
    return None


def _iter_bound(l1_hat, alpha, psi, eps_hat):
    if psi <= 0:
        return 1.0
    return 1.0 + max(0.0, math.sqrt(l1_hat / alpha) * math.log(2.0 * l1_hat * psi / eps_hat))


def agp_upg(f_hat, region: AgpRegion, y0, eps_hat, l1_hat, alpha, grad_y0=None,
            f_y0=None) -> UpgOutcome:
    """Accelerated projected gradient loop that stops at one of five outcomes.

    Flags: 1 boundary exit with descent, 2 boundary exit with an NC pair,
    3 certified witness on the boundary, 4 interior NC pair, 5 small
    augmented gradient. A failed progress certificate gives the witness of
    flags 3 and 4: y0 if f_hat rose, else the projection of the gradient step z
    from yt if z leaves the interior, else z if the gradient is too large for t
    accelerated iterations. The NC-pair search reuses the values and gradients
    the loop holds; a caller that has f_hat's gradient or value at y0 passes it in.
    An accelerated iterate is scanned for NaN/inf only where its distance to the center is not
    finite. ``iter_bound`` is ``_iter_bound`` at the last interior z's psi, else None.
    """
    y0 = as_vector(y0)
    if not region.is_interior(y0):
        raise ValueError("y0 must be interior to the region")
    if not (l1_hat >= alpha > 0):
        raise ValueError("require l1_hat >= alpha > 0")
    if not eps_hat > 0:
        raise ValueError("eps_hat must be positive")
    kappa = l1_hat / alpha
    omega = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    f_y0 = f_hat.value(y0) if f_y0 is None else f_y0
    x_hist = [y0]
    y_hist = [y0]
    cap = 10_000  # refined from the theoretical bound at t = 1
    psi = None  # of the last interior z
    def exit_bound():
        return None if psi is None else _iter_bound(l1_hat, alpha, psi, eps_hat)
    t = 1
    g = f_hat.gradient(y0) if grad_y0 is None else grad_y0
    x_grads, y_values = [g], [f_y0]  # grad f_hat at each x_hist[j], f_hat at each y_hist[j]
    while True:
        y_tilde = x_hist[t - 1] - g / l1_hat
        dist = norm(y_tilde - region.center)
        if not math.isfinite(dist):  # a finite distance has only finite entries beneath it
            check_finite(y_tilde, "accelerated iterate")
        if dist < region.inner_radius:
            y_hist.append(y_tilde)
        else:
            yt = region.project(y_tilde, dist)
            y_hist.append(yt)
            if f_hat.value(yt) <= f_y0:
                return UpgOutcome(1, point_p=yt, iters_t=t, iter_bound=exit_bound())
            flag, w, f_w, exit_kind = 2, y0, f_y0, "boundary exit without descent"
            break
        yt = y_hist[t]
        x_hist.append(yt + omega * (yt - y_hist[t - 1]))
        gy = f_hat.gradient(yt)
        f_yt = f_hat.value(yt)  # next to the gradient, so the base oracle's memo serves it
        y_values.append(f_yt)
        z = yt - gy / l1_hat
        z_dist = norm(z - region.center)
        z_interior = z_dist < region.inner_radius
        if z_interior:
            dz = z - y0
            f_z = f_hat.value(z)
            psi = f_y0 - f_z + 0.5 * alpha * float(dz.dot(dz))
            if t == 1:
                cap = max(10_000, int(10 * _iter_bound(l1_hat, alpha, psi, eps_hat)) + 1)
        if not f_yt <= f_y0:  # a NaN value routes like a rise
            w, f_w = y0, f_y0
        elif not z_interior:
            w, f_w = region.project(z, z_dist), None
        elif (gy_sq := float(gy.dot(gy))) > 2.0 * l1_hat * psi * math.exp(-t / math.sqrt(kappa)):
            w, f_w = z, f_z
        elif math.sqrt(gy_sq) <= math.sqrt(eps_hat):  # sqrt(gy_sq) is norm(gy)
            return UpgOutcome(5, point_p=yt, iters_t=t, iter_bound=exit_bound())
        else:
            t += 1
            if t > cap:
                raise AgpError(
                    f"accelerated loop exceeded the safety cap of {cap} iterations; "
                    "the Lipschitz estimates are inconsistent with the objective"
                )
            g = f_hat.gradient(x_hist[t - 1])
            x_grads.append(g)
            continue
        if region.on_boundary(w):
            return UpgOutcome(3, point_p=w, iters_t=t, iter_bound=exit_bound())
        flag, exit_kind = 4, "progress certificate failed"
        break
    # flags 2 and 4: an NC pair among the iterates so far, tested against w
    pair = find_nc_pair(f_hat, x_hist[:t], y_hist[:t], w, alpha, x_grads, y_values, f_w)
    if pair is None:
        raise AgpError(f"{exit_kind} but no NC pair found; l1_hat is likely underestimated")
    return UpgOutcome(flag, nc_u=pair[0], nc_v=pair[1], y_history=[np.array(v) for v in y_hist],
                      iters_t=t, iter_bound=exit_bound())


def a_agp(oracle: ObjectiveOracle, xbar, l1, l2, epoch_anchor, radius_D, epsilon, grad=None,
          f_x=None):
    """One accelerated epoch step: regularize at xbar, run the inner loop,
    and convert NC pairs into descent via the curvature-exploiting probes.

    The output always stays within radius_D of the epoch anchor. Given ``f_x = f(xbar)``,
    the step is redone from xbar until it is certified, and ``(out, outcome, l1, l2)`` is
    returned: l1 is doubled when the inner loop raises AgpError or a flag-3 point has
    ``f(out) > f_x`` (a flag-1/5 point passed agp_upg's own test and costs no value call),
    l2 when a flag-2/4 point misses ``f_x - alpha^3 / (64 l2^2)``, and BacktrackBudgetError
    follows MAX_BACKTRACKS doublings. Given ``grad`` at xbar, no trial evaluates it, and an
    AgpError whose step ``xbar - grad / l1_hat`` equals xbar returns ``(xbar, None, l1, l2)``.
    """
    xbar = as_vector(xbar)
    quarter = epsilon ** 0.25
    inner_radius = radius_D - 2.0 * quarter
    if not inner_radius > 0:
        raise ValueError("radius_D must exceed 2*eps^(1/4)")
    region = AgpRegion(epoch_anchor, inner_radius)
    if not region.is_interior(xbar):
        raise ValueError("xbar must lie strictly inside the inner region")
    if not (l1 >= 1 and l2 >= 1):
        raise ValueError("Lipschitz constants are floored at 1")
    for _ in range(MAX_BACKTRACKS + 1):
        tried = (l1, l2)
        alpha = 2.0 * math.sqrt(l2) * quarter
        f_hat = AugmentedOracle(oracle, xbar, alpha)
        try:  # f_hat's gradient at xbar is grad, and its value is f_x
            outcome = agp_upg(f_hat, region, xbar, epsilon / 100.0, l1 + 2.0 * alpha, alpha, grad,
                              f_x)
        except AgpError:  # no NC pair, or the iteration cap: l1 is too small
            if f_x is None:
                raise
            if grad is not None and np.array_equal(xbar - grad / (l1 + 2.0 * alpha), xbar):
                return xbar, None, l1, l2  # below resolution: drive ends the run stalled
            l1 *= 2.0
            continue
        if outcome.flag in (1, 3, 5):
            out, f_out, bound = outcome.point_p, None, f_x
        else:
            u, v = outcome.nc_u, outcome.nc_v
            sep = u - v
            sep_norm = norm(sep)
            if sep_norm < 1e-15:
                raise AgpError("degenerate NC pair (u == v); oracle inconsistency")
            b1 = min(((oracle.value(c), c) for c in outcome.y_history[1:outcome.iters_t] + [u]),
                     key=lambda vc: vc[0])  # (value, point) of the first least-valued point
            step = (alpha / (l2 * sep_norm)) * sep
            b2 = min(((oracle.value(c), c) for c in (u + step, u - step)), key=lambda vc: vc[0])
            bound = (oracle.value(xbar) if f_x is None else f_x) - alpha ** 3 / (64.0 * l2 * l2)
            f_out, out = b1 if b1[0] <= bound else b2
            out = check_finite(np.array(out), "a_agp output")
        if f_x is None:
            return out, outcome
        # flags 1, 5: agp_upg tested f_hat(out) <= f_x, and f <= f_hat = f + alpha ||x - xbar||^2
        if outcome.flag in (1, 5) or (oracle.value(out) if f_out is None else f_out) <= bound:
            return out, outcome, l1, l2
        l1, l2 = (2.0 * l1, l2) if outcome.flag == 3 else (l1, 2.0 * l2)
    raise BacktrackBudgetError(tried, "AGP certificate")
