"""Span tracing from outside the package, and the per-layer metrics it yields.

The tracer replaces module attributes of ``fedbilevel`` with thin wrappers
that record one span per call: name, start, end and the enclosing span.
Spans live in flat in-memory arrays and are written out once, at the end.
Names that do not exist in the package (a later refactor may delete them)
are reported as absent; patching never raises for them.

The package's closures and drivers look these names up in module globals at
call time, which is why wrapping the module attribute catches every call.
"""
from __future__ import annotations

import fnmatch
import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute pattern, span name or None to name it after the
# function's own module). Patterns follow fnmatch.
TARGETS = (
    ("fedbilevel.oracles", "ball_dist_eval", "oracles.inner.ball_dist_eval"),
    ("fedbilevel.oracles", "logistic_eval", "oracles.inner.logistic_eval"),
    ("fedbilevel.oracles", "outer_quad_anchor_eval", "oracles.outer.outer_quad_anchor_eval"),
    ("fedbilevel.oracles", "outer_l1_quad_eval", "oracles.outer.outer_l1_quad_eval"),
    ("fedbilevel.solvers", "project_box", "oracles.project_box"),
    ("fedbilevel.solvers", "client_local_pass", "solvers.client_local_pass"),
    ("fedbilevel.solvers", "fism_round", "solvers.round.fism_round"),
    ("fedbilevel.solvers", "irig_round", "solvers.round.irig_round"),
    ("fedbilevel.solvers", "round_time_from_sizes", "federation.round_time.round_time_from_sizes"),
    ("fedbilevel.solvers", "uniform_costs", "federation.round_time.uniform_costs"),
    ("fedbilevel.problem", "ProblemSpec.inner_objective", "problem.objective.inner_objective"),
    ("fedbilevel.problem", "ProblemSpec.outer_objective", "problem.objective.outer_objective"),
    ("fedbilevel.cli", "run_solver", "solvers.run_solver"),
    ("fedbilevel.cli", "execute", "cli.execute"),
    ("fedbilevel.cli", "write_outputs", "cli.write_outputs"),
    ("fedbilevel.cli", "write_r*", None),
    ("fedbilevel.cli", "make_*", None),
    ("fedbilevel.cli", "*_problem", None),
    ("fedbilevel.cli", "partition_data", "federation.partition.partition_data"),
)

# Span-name prefixes whose summed time a layer metric reports.
_LAYER_PREFIX = {
    "data.gen_s": "data.",
    "instances.build_s": "instances.",
    "federation.partition_s": "federation.partition.",
    "federation.round_time_s": "federation.round_time.",
    "metrics.write_s": "metrics.",
}

ROOT = "pass"


class Tracer:
    """Flat span store; span i has name ``names[name_ids[i]]``, times
    ``start[i]``/``end[i]`` and enclosing span ``parent[i]`` (-1 at the root)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        name_ids, start, end, parent, stack = (self.name_ids, self.start, self.end,
                                               self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_ids.append(name_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def patch(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the rest as absent."""
        for module_name, pattern, span_name in targets:
            module = sys.modules.get(module_name)
            owner_path, _, attr_pattern = pattern.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            if owner is None:
                self.absent.append(f"{module_name}.{pattern}")
                continue
            # Private helpers never match a glob; only public functions are wrapped.
            matches = [a for a, v in vars(owner).items()
                       if fnmatch.fnmatchcase(a, attr_pattern) and inspect.isfunction(v)
                       and (a == attr_pattern or not a.startswith("_"))]
            if not matches:
                self.absent.append(f"{module_name}.{pattern}")
            for attr in matches:
                fn = vars(owner)[attr]
                name = span_name or f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
                self.patched.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name))

    def unpatch(self) -> None:
        for owner, attr, fn in reversed(self.patched):
            setattr(owner, attr, fn)
        self.patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def _percentile_with_tail(values: np.ndarray, min_beyond: int = 10) -> tuple[float, float]:
    """Highest of p50/p90/p99/p99.9 with at least ``min_beyond`` samples
    above it; returns (percentile, value)."""
    pct = 50.0
    for p in (90.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= min_beyond:
            pct = p
    return pct, float(np.percentile(values, pct)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, as name -> (value, unit).

    Self time is a span's duration minus the part its child spans cover;
    calls nest strictly in one thread, so that is the sum of the children.
    """
    a = tracer.arrays()
    names = tracer.names
    dur = a["end"] - a["start"]
    parent = a["parent"]
    n = len(dur)
    child = np.bincount(np.where(parent >= 0, parent, n), weights=dur, minlength=n + 1)
    self_t = dur - child[:n]

    def mask(prefix: str) -> np.ndarray:
        ids = [i for i, name in enumerate(names) if name.startswith(prefix)]
        return np.isin(a["name_id"], ids)

    inner, outer, project = mask("oracles.inner."), mask("oracles.outer."), mask("oracles.project_box")
    inner_obj = mask("problem.objective.inner_objective")
    objectives = mask("problem.objective.")
    rounds, passes, runs = mask("solvers.round."), mask("solvers.client_local_pass"), mask("solvers.run_solver")

    # Ancestor test by repeated parent lookup; converges after as many steps
    # as the deepest nesting below an inner_objective span (one, today).
    under_obj = inner_obj.copy()
    safe_parent = np.where(parent >= 0, parent, 0)
    has_parent = parent >= 0
    while True:
        nxt = under_obj | (has_parent & under_obj[safe_parent])
        if np.array_equal(nxt, under_obj):
            break
        under_obj = nxt

    round_ms = dur[rounds] * 1e3
    tail_pct, tail_ms = _percentile_with_tail(round_ms)
    skew = 1.0
    pass_idx = np.flatnonzero(passes)
    if len(pass_idx):
        groups = parent[pass_idx]
        bounds = np.flatnonzero(np.r_[True, groups[1:] != groups[:-1]])
        d = dur[pass_idx]
        counts = np.diff(np.r_[bounds, len(d)])
        ratios = np.maximum.reduceat(d, bounds) / (np.add.reduceat(d, bounds) / counts)
        # A one-client round has no skew to show; S=1 rounds would pin the median at 1.
        if np.any(counts > 1):
            skew = float(np.median(ratios[counts > 1]))

    def total(m: np.ndarray, values: np.ndarray = dur) -> float:
        return float(values[m].sum())

    out = {
        "oracles.inner_calls": (int(inner.sum()), "count"),
        "oracles.inner_s": (total(inner), "s"),
        "oracles.outer_calls": (int(outer.sum()), "count"),
        "oracles.outer_s": (total(outer), "s"),
        "oracles.project_calls": (int(project.sum()), "count"),
        "oracles.project_s": (total(project), "s"),
        "problem.objective_calls": (int(objectives.sum()), "count"),
        "problem.objective_incl_s": (total(objectives), "s"),
        "problem.metric_call_share": (float((under_obj & inner).sum() / max(inner.sum(), 1)),
                                      "frac"),
        "solvers.rounds": (int(rounds.sum()), "count"),
        "solvers.round_ms_p50": (float(np.median(round_ms)) if len(round_ms) else 0.0, "ms"),
        "solvers.round_ms_tail": (tail_ms, "ms"),
        "solvers.round_tail_pct": (tail_pct, "%"),
        "solvers.round_self_s": (total(rounds, self_t), "s"),
        "solvers.client_pass_calls": (int(passes.sum()), "count"),
        "solvers.client_pass_self_s": (total(passes, self_t), "s"),
        "solvers.client_pass_skew": (skew, "ratio"),
        "solvers.run_self_s": (total(runs, self_t), "s"),
        "cli.execute_s": (total(mask("cli.execute")), "s"),
        "cli.write_outputs_s": (total(mask("cli.write_outputs")), "s"),
    }
    for metric, prefix in _LAYER_PREFIX.items():
        out[metric] = (total(mask(prefix)), "s")
    out["trace.spans"] = (n, "count")
    return out
