"""Benchmark workloads and the independent checks applied to every solve.

Nothing here trusts sloopt for a reference value. The instances are rebuilt
from the documented recipes of ``sloopt --problem ...`` (seeded planted
tensor, seeded Gaussian data, ``Unif[0, c]`` start per round seeded
``seed + round``), and each objective is re-implemented in its own closed
form: the planted tensor through Gram matrices instead of the dense residual,
the linear network as a plain matrix product. The lower bounds come from
theory (0 for a planted tensor and the quartic, Eckart-Young for the
autoencoder), not from any stored output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

CSV_HEADER_LINE = "round,epoch,iter,grad_evals,elapsed_s,f_value,grad_norm,dist_from_anchor"
METHODS = ("gd", "bpg", "pgd", "ngd", "ls", "agp")


@dataclass
class Workload:
    """One fixed set of ``run_experiment`` inputs; see README.md for why each was chosen."""

    name: str
    problem: str
    rounds: int
    epsilon: float
    init_c: float
    gd_step: float
    bpg_n: int
    bpg_l: float
    params: dict
    margin: float = 0.0
    radius: float = 0.1
    budget_evals: int = 200_000
    # Pinned instance seed, or None when --seed picks the instance.
    instance_seed: int | None = None
    # (method, round) -> error prefix of a known program fault. The solve is
    # counted as failed; it does not make the run incorrect.
    known_faults: dict = field(default_factory=dict)
    # run_experiment calls per method in one repetition (default 1), so that
    # a run holds enough samples of the short calls for a steady median.
    calls: dict = field(default_factory=dict)

    def repetition(self) -> list:
        return [m for m in METHODS for _ in range(self.calls.get(m, 1))]

    def spec_seed(self, seed: int) -> int:
        return seed if self.instance_seed is None else self.instance_seed

    def spec_kwargs(self, seed: int) -> dict:
        """Keyword arguments for ``sloopt.harness.ExperimentSpec`` minus methods and output_dir."""
        return dict(problem=self.problem, rounds=self.rounds, epsilon=self.epsilon,
                    radius=self.radius, margin=self.margin, init_c=self.init_c,
                    seed=self.spec_seed(seed), budget_evals=self.budget_evals,
                    gd_step=self.gd_step, bpg_n=self.bpg_n, bpg_l=self.bpg_l,
                    problem_params=dict(self.params))


WORKLOADS = {
    "tensor-k5": Workload(
        name="tensor-k5", problem="tensor", rounds=1, epsilon=1e-6, init_c=0.5,
        gd_step=0.03, bpg_n=10, bpg_l=10.0, instance_seed=7,
        params={"tensor_d": 8, "tensor_k": 5, "tensor_m": 3},
        calls={"bpg": 2, "pgd": 3, "ls": 8}),
    "net-ae": Workload(
        name="net-ae", problem="autoencoder", rounds=2, epsilon=1e-6, init_c=0.1,
        gd_step=0.002, bpg_n=6, bpg_l=10.0, instance_seed=7,
        params={"net_layers": "6,4,4,6", "net_samples": 50},
        known_faults={("agp", 1): "AgpError: boundary exit without descent but no NC pair found"},
        calls={"gd": 2, "bpg": 6, "ls": 2}),
    "quartic-50": Workload(
        name="quartic-50", problem="quartic", rounds=3, epsilon=1e-10, init_c=1.0,
        gd_step=0.03, bpg_n=4, bpg_l=1.0, margin=0.01,
        params={"quartic_dim": 50},
        calls={"bpg": 3, "pgd": 4, "ngd": 4, "ls": 16, "agp": 3}),
}


@dataclass
class Reference:
    """The benchmark's own model of a workload instance."""

    dim: int
    f: object            # callable: x -> float
    lower_bound: float   # f never goes below this
    spec_seed: int
    init_c: float

    def x0(self, round_idx: int) -> np.ndarray:
        return np.random.default_rng(self.spec_seed + round_idx).uniform(
            0.0, self.init_c, size=self.dim)


def reference(wl: Workload, seed: int) -> Reference:
    s = wl.spec_seed(seed)
    p = wl.params
    if wl.problem == "tensor":
        d, k, m = int(p["tensor_d"]), int(p["tensor_k"]), int(p["tensor_m"])
        rng = np.random.default_rng(s)
        q, _ = np.linalg.qr(rng.standard_normal((d, m)))
        comps = (q * rng.uniform(0.5, 1.5, size=m)).T
        const = float(np.sum((comps @ comps.T) ** k))

        def f(x):
            xs = x.reshape(m, d)
            return float(np.sum((xs @ xs.T) ** k) - 2.0 * np.sum((xs @ comps.T) ** k)) + const

        return Reference(m * d, f, 0.0, s, wl.init_c)
    if wl.problem == "autoencoder":
        widths = [int(v) for v in str(p["net_layers"]).split(",")]
        data = np.random.default_rng(s).standard_normal((widths[0], int(p["net_samples"])))
        shapes = [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]

        def f(w):
            out, pos = data, 0
            for r, c in shapes:
                out = w[pos:pos + r * c].reshape(r, c) @ out
                pos += r * c
            return float(np.sum((data - out) ** 2))

        # Eckart-Young: W_m...W_1 has rank <= min(widths), so the best fit
        # leaves at least the trailing squared singular values of the data.
        sv = np.linalg.svd(data, compute_uv=False)
        return Reference(sum(r * c for r, c in shapes), f,
                         float(np.sum(sv[min(widths):] ** 2)), s, wl.init_c)
    if wl.problem == "quartic":
        return Reference(int(p["quartic_dim"]), lambda x: 0.25 * float(x @ x) ** 2,
                         0.0, s, wl.init_c)
    raise ValueError(f"no reference for problem {wl.problem!r}")


def ball_radius(wl: Workload, method: str) -> float | None:
    """Epoch-ball radius D that ``run_experiment`` gives an epoch solver; None for gd/bpg."""
    root_eps = math.sqrt(wl.epsilon)
    if method == "pgd":
        return max(wl.radius, root_eps / 2)
    if method == "ngd":
        return max(wl.radius, root_eps / 2 + 2 * max(wl.margin, root_eps))
    if method == "ls":
        return max(wl.radius, 2 * root_eps)
    if method == "agp":
        return max(wl.radius, 6 * wl.epsilon ** 0.25)
    return None


def fd_gradient(f, x: np.ndarray, h: float) -> np.ndarray:
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


@dataclass
class Trace:
    """What the checks need from one trace CSV, read in a single pass."""

    header: str
    n_rows: int
    first: list          # first row as floats, in CSV column order
    last: list           # last row as floats
    min_f: float
    max_dist: float
    digest: str          # sha256 of the CSV with the elapsed_s column removed

    @property
    def grad_evals(self) -> int:
        return int(self.last[3])


def read_trace(text: str) -> Trace:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    digest = hashlib.sha256(",".join(header).encode())
    first = last = None
    n, min_f, max_dist = 0, math.inf, -math.inf
    for line in reader:
        digest.update(("\n" + ",".join(line[:4] + line[5:])).encode())
        last = [float(v) for v in line]
        first = first or last
        n += 1
        min_f = min(min_f, last[5])
        max_dist = max(max_dist, last[7])
    return Trace(",".join(header), n, first, last, min_f, max_dist, digest.hexdigest())


def check_solve(wl: Workload, ref: Reference, method: str, round_idx: int,
                trace: Trace, final_point, oracle_grad_calls: int | None = None) -> list[str]:
    """Every independent check for one solve; returns the failures (empty when all pass)."""
    fails = []
    if trace.header != CSV_HEADER_LINE:
        return [f"CSV header is {trace.header!r}"]
    if not trace.n_rows:
        return ["trace has no rows"]
    g_last = trace.last[6]
    tol = math.sqrt(wl.epsilon)
    if not g_last < tol:
        fails.append(f"final grad_norm {g_last!r} is not below sqrt(eps) = {tol!r}")
    if oracle_grad_calls is not None and oracle_grad_calls != trace.grad_evals:
        fails.append(f"grad_evals {trace.grad_evals} != {oracle_grad_calls} oracle gradient calls")
    x = np.asarray(final_point, dtype=float)
    f0, f_end = ref.f(ref.x0(round_idx)), ref.f(x)
    if not math.isclose(trace.first[5], f0, rel_tol=1e-9, abs_tol=1e-12):
        fails.append(f"first f_value {trace.first[5]!r} != f(x0) = {f0!r}")
    if not math.isclose(trace.last[5], f_end, rel_tol=1e-9, abs_tol=1e-12):
        fails.append(f"last f_value {trace.last[5]!r} != f(final point) = {f_end!r}")
    if not f_end <= f0:
        fails.append(f"f(final point) = {f_end!r} exceeds f(x0) = {f0!r}")
    floor = ref.lower_bound - 1e-9 * max(1.0, abs(ref.lower_bound))
    if trace.min_f < floor:
        fails.append(f"f_value {trace.min_f!r} below the lower bound {ref.lower_bound!r}")
    # Central differences at h and 2h; their gap bounds the truncation error,
    # and the second term the rounding error of the differenced values.
    h = 1e-5 * max(1.0, float(np.max(np.abs(x))))
    g_h, g_2h = fd_gradient(ref.f, x, h), fd_gradient(ref.f, x, 2 * h)
    fd_err = 2.0 * float(np.linalg.norm(g_h - g_2h)) \
        + 1e-13 * (1.0 + abs(f_end)) / h * math.sqrt(x.size)
    fd_norm = float(np.linalg.norm(g_h))
    if abs(fd_norm - g_last) > fd_err:
        fails.append(f"final grad_norm {g_last!r} vs finite differences {fd_norm!r} "
                     f"(allowed error {fd_err:.3g})")
    if wl.problem == "quartic":
        cubed = float(np.linalg.norm(x)) ** 3
        if not math.isclose(g_last, cubed, rel_tol=1e-12):
            fails.append(f"final grad_norm {g_last!r} != ||x||^3 = {cubed!r}")
    radius = ball_radius(wl, method)
    if radius is not None:
        if trace.max_dist > radius * (1 + 1e-9):
            fails.append(f"dist_from_anchor {trace.max_dist!r} exceeds D = {radius!r}")
    return fails
