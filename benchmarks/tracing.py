"""Instrumentation of sloopt from outside: nothing under src/ is changed.

``Instrument.call`` replaces, for one ``run_experiment`` call, the module
attributes through which sloopt calls its public functions (for example
``sloopt.slo.a_gp`` and ``sloopt.harness.build_problem``) and restores them
afterwards. Untraced, only the three solver entry points are wrapped, to keep
each solve's ``RunResult``: the final point is not in the trace CSV. Traced,
every wrapped call and every oracle ``value``/``gradient`` call also records
a span: name, start, end, parent and a run id per (method, round). Spans stay
in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import sloopt.baselines
import sloopt.harness
import sloopt.slo

GRADIENT, VALUE = "problems.gradient", "problems.value"
SOLVERS = ((sloopt.slo, "run_slo"), (sloopt.baselines, "gd_fixed"),
           (sloopt.baselines, "run_bpg"))
ESTIMATORS = ((sloopt.slo, "estimate_l1"), (sloopt.slo, "estimate_l2"))
SPANNED = ((sloopt.harness, "run_experiment"), (sloopt.harness, "summarize"),
           (sloopt.slo, "a_gp"), (sloopt.slo, "a_ng"), (sloopt.slo, "a_ls"),
           (sloopt.slo, "a_agp"), (sloopt.baselines, "bpg_subproblem"))
SUBROUTINES = ("subroutines.a_gp", "subroutines.a_ng", "subroutines.a_ls", "agp.a_agp")


def span_name(fn) -> str:
    """Layer-qualified name: the defining module, not the one that calls it."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Spans:
    """Flat span store; a span's index is its id, and -1 means no parent."""

    def __init__(self):
        self.name, self.start, self.end = [], [], []
        self.parent, self.run, self.child_s = [], [], []
        self.stack = []
        self.runs = []      # run id -> (method, round); round 0 is the call itself
        self.current = -1

    def set_run(self, method: str, round_idx: int):
        self.runs.append((method, round_idx))
        self.current = len(self.runs) - 1

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.current)
        self.child_s.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        t = time.perf_counter()
        self.end[i] = t
        self.stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child_s[p] += t - self.start[i]

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,method,round,name,start_s,end_s,parent\n")
            t0 = self.start[0] if self.start else 0.0
            for i, name in enumerate(self.name):
                method, round_idx = self.runs[self.run[i]]
                fh.write(f"{i},{method},{round_idx},{name},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]}\n")


class Instrument:
    """Wraps sloopt for one ``run_experiment`` call at a time; see the module docstring."""

    def __init__(self, traced: bool):
        self.spans = Spans() if traced else None
        self.results = {}           # round -> RunResult, for the current call
        self.grad_calls = Counter()  # round -> oracle gradient calls, traced only
        self.distinct_points = 0    # distinct gradient points inside estimation
        self._points = None
        self._method, self._round = "", 0

    @contextmanager
    def call(self, method: str):
        self._method, self._round = method, 0
        self.results, self.grad_calls = {}, Counter()
        patches = {target: self._solver(getattr(*target)) for target in SOLVERS}
        if self.spans is not None:
            self.spans.set_run(method, 0)
            for target in SPANNED:
                patches[target] = self._span(getattr(*target))
            for target in ESTIMATORS:
                patches[target] = self._estimator(getattr(*target))
            build = sloopt.harness.build_problem
            patches[(sloopt.harness, "build_problem")] = self._builder(build)
        saved = {target: getattr(*target) for target in patches}
        try:
            for (module, attr), fn in patches.items():
                setattr(module, attr, fn)
            yield self
        finally:
            for (module, attr), fn in saved.items():
                setattr(module, attr, fn)

    def _span(self, fn, name=None):
        spans, name = self.spans, name or span_name(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = spans.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                spans.close(i)
        return wrapper

    def _solver(self, fn):
        inner = fn if self.spans is None else self._span(fn)

        @functools.wraps(fn)
        def solver(*args, **kwargs):
            # run_experiment runs one method's rounds in order, so the n-th
            # solve of a call is round n.
            self._round += 1
            round_idx = self._round
            if self.spans is not None:
                self.spans.set_run(self._method, round_idx)
            try:
                self.results[round_idx] = inner(*args, **kwargs)
            finally:
                if self.spans is not None:
                    self.spans.set_run(self._method, 0)
            return self.results[round_idx]
        return solver

    def _estimator(self, fn):
        inner = self._span(fn)

        @functools.wraps(fn)
        def estimator(*args, **kwargs):
            self._points = set()
            try:
                return inner(*args, **kwargs)
            finally:
                self.distinct_points += len(self._points)
                self._points = None
        return estimator

    def _builder(self, fn):
        inner = self._span(fn)

        @functools.wraps(fn)
        def build_problem(*args, **kwargs):
            oracle, f_star = inner(*args, **kwargs)
            oracle.value = self._span(oracle.value, VALUE)
            oracle.gradient = self._gradient(oracle.gradient)
            return oracle, f_star
        return build_problem

    def _gradient(self, fn):
        spans = self.spans

        @functools.wraps(fn)
        def gradient(x):
            i = spans.open(GRADIENT)
            try:
                return fn(x)
            finally:
                spans.close(i)
                self.grad_calls[self._round] += 1
                if self._points is not None:
                    self._points.add(x.tobytes())
        return gradient


def _per(num, den):
    return num / den if den else 0.0


def layer_metrics(inst: Instrument, solves, bytes_written: int) -> dict:
    """Per-layer figures of one traced repetition.

    ``solves`` are the repetition's completed solves (objects with
    ``method``, ``rows`` and ``epochs``). Self time is a span's duration
    minus the time covered by its child spans.
    """
    sp = inst.spans
    total, count, self_s = defaultdict(float), Counter(), defaultdict(float)
    inside = Counter()     # (ancestor span name, leaf name) -> leaf calls
    slo_value_calls = 0
    for i, name in enumerate(sp.name):
        dur = sp.end[i] - sp.start[i]
        total[name] += dur
        count[name] += 1
        self_s[name] += dur - sp.child_s[i]
        if name in (GRADIENT, VALUE):
            p = sp.parent[i]
            if name == VALUE and p >= 0 and sp.name[p] == "slo.run_slo":
                slo_value_calls += 1
            seen = set()
            while p >= 0:
                if sp.name[p] not in seen:
                    seen.add(sp.name[p])
                    inside[(sp.name[p], name)] += 1
                p = sp.parent[p]
    rows = Counter()
    for s in solves:
        rows[s.method] += s.rows
    m = {}
    for leaf in (GRADIENT, VALUE):
        m[f"{leaf}.calls"] = count[leaf]
        m[f"{leaf}.us"] = _per(total[leaf] * 1e6, count[leaf])
        m[f"{leaf}.s"] = total[leaf]
    m["slo.value_calls"] = slo_value_calls
    lip_evals = 0
    for est in ("lipschitz.estimate_l1", "lipschitz.estimate_l2"):
        m[f"{est}.calls"] = count[est]
        m[f"{est}.grad_evals"] = inside[(est, GRADIENT)]
        m[f"{est}.s"] = total[est]
        lip_evals += inside[(est, GRADIENT)]
    m["lipschitz.grad_evals"] = lip_evals
    m["lipschitz.grad_share"] = _per(lip_evals, count[GRADIENT])
    m["lipschitz.distinct_points"] = inst.distinct_points
    m["lipschitz.distinct_share"] = _per(inst.distinct_points, lip_evals)
    for sub in SUBROUTINES:
        m[f"{sub}.calls"] = count[sub]
        m[f"{sub}.self_us"] = _per(self_s[sub] * 1e6, count[sub])
    m["subroutines.a_ls.value_calls"] = inside[("subroutines.a_ls", VALUE)]
    m["agp.a_agp.grad_evals"] = inside[("agp.a_agp", GRADIENT)]
    iters = sum(count[sub] for sub in SUBROUTINES)
    m["slo.run_slo.self_s"] = self_s["slo.run_slo"]
    m["slo.self_us_per_iter"] = _per(self_s["slo.run_slo"] * 1e6, iters)
    m["slo.iters"] = iters
    m["slo.epochs"] = sum(s.epochs for s in solves if s.method not in ("gd", "bpg"))
    m["baselines.gd_fixed.self_us_per_iter"] = _per(self_s["baselines.gd_fixed"] * 1e6, rows["gd"])
    m["baselines.run_bpg.self_us_per_iter"] = _per(self_s["baselines.run_bpg"] * 1e6, rows["bpg"])
    m["baselines.bpg_subproblem.calls"] = count["baselines.bpg_subproblem"]
    m["baselines.bpg_subproblem.us"] = _per(total["baselines.bpg_subproblem"] * 1e6,
                                            count["baselines.bpg_subproblem"])
    solve_s = total["harness.run_experiment"]
    m["harness.run_experiment.self_s"] = self_s["harness.run_experiment"]
    m["harness.run_experiment.self_share"] = _per(self_s["harness.run_experiment"], solve_s)
    m["harness.summarize.s"] = total["harness.summarize"]
    m["harness.build_problem.s"] = total["harness.build_problem"]
    m["harness.trace_rows"] = sum(rows.values())
    m["harness.bytes_written"] = bytes_written
    m["problems.share"] = _per(total[GRADIENT] + total[VALUE], solve_s)
    m["trace.solve_s"] = solve_s
    return m
