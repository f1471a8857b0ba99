"""Solver rounds, the run driver, and a high-accuracy reference solver.

The federated round picks one outer subgradient per round, broadcasts it,
lets every client run an incremental projected-subgradient pass over its own
share of the inner family, and averages the returned iterates. The
incremental baseline sweeps all inner functions sequentially, refreshing the
outer subgradient at every local step. Both share one step kernel,
``_local_step``, which takes only subgradients: the scaled outer term is
formed once per client pass (FISM) or once per step (IRIG), and no function
value is computed on the solver path.
So the two methods coincide bitwise when one client holds one function.

``run_solver`` runs rounds in blocks of up to ``_BLOCK`` and then takes the
block's metrics in a few vectorized calls: one ``inner.values`` on the new
iterates and the running averages, one ``outer.values`` and one stack of
step norms. Each of these gives a row the bits a one-point call gives, so
the records do not depend on the block length. A non-finite objective value
stops a run with ``stop_reason="non-finite"``; the rounds computed after it
in its block are discarded. With a tolerance set, a block is one round, so
a run computes no round that it does not record.

Two or more clients are stepped together as the rows of one stack (lanes),
each row getting the bits ``client_local_pass`` gives it, and averaged in
ascending client index with left-to-right ``+``; parallelism in time lives
only in the simulated timing model (``round_time``).

``run_solver`` reports progress through one optional hook, ``observe``,
called with the projected initial state and then with the state after every
recorded round, in order, as each block is recorded; a client's local path
is recovered by chaining ``client_local_pass`` calls over one function at a
time.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .federation import FISM, METHODS, CostModel, round_time, uniform_costs
from .metrics import RoundRow, RunRecord
from .oracles import InnerFamily, project_box
from .problem import BoxConstraint, ProblemSpec, StepSchedule
from .rng import STREAM_INIT, make_rng, open_uniform

# Rounds run between two metric passes when no tolerance is set. The records
# do not depend on it; it only bounds the rounds computed past a stop.
_BLOCK = 32


@dataclass
class RoundState:
    """Driver-owned state between rounds: the current global iterate, the
    round index, the running numerator/denominator of the stepsize-weighted
    average, and cumulative subgradient-evaluation counters."""

    x: np.ndarray
    k: int
    avg_num: np.ndarray
    avg_den: float
    inner_evals: int
    outer_evals: int

    @classmethod
    def initial(cls, x: np.ndarray) -> "RoundState":
        x = np.asarray(x, dtype=float)
        return cls(x=x, k=1, avg_num=np.zeros_like(x), avg_den=0.0,
                   inner_evals=0, outer_evals=0)


def _local_step(x: np.ndarray, g: np.ndarray, co: np.ndarray, gamma: float,
                lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # Shared by both methods so their single-function iterates agree bitwise;
    # co = (gamma * lam / m) * outer subgradient. x is one point or a stack of
    # lanes, and co, lo, hi have its shape: a broadcast operand costs more.
    return np.minimum(np.maximum(x - gamma * g - co, lo), hi)


def client_local_pass(x_start: np.ndarray, outer_subgrad: np.ndarray,
                      gamma: float, lam: float, m_total: int, inner: InnerFamily,
                      indices: Sequence[int], box: BoxConstraint) -> np.ndarray:
    """One client's in-round pass: an incremental projected subgradient step
    per local index of ``inner``, in the given order, reusing the frozen outer
    subgradient throughout.

    Returns the client's final local iterate. Performs exactly
    ``len(indices)`` inner subgradient evaluations and no outer ones.
    """
    if len(indices) == 0:
        raise ValueError("client holds no inner functions")
    if x_start.shape != outer_subgrad.shape:
        raise ValueError("outer subgradient dimension does not match the iterate")
    co = (gamma * lam / m_total) * outer_subgrad
    subgrad = inner.subgrad
    x = x_start
    for i in indices:
        x = _local_step(x, subgrad(i, x), co, gamma, box.lo, box.hi)
    return x


def _lane_average(x_start: np.ndarray, outer_subgrad: np.ndarray, gamma: float, lam: float,
                  problem: ProblemSpec) -> np.ndarray:
    # Every client's pass at once, lane j of problem.lanes as row j, and the
    # average of the ends in client order. A lane leaves after its last step.
    order, blocks = problem.lanes
    shape = (len(order), 1)
    co = np.tile((gamma * lam / problem.n_inner) * outer_subgrad, shape)
    lo, hi = np.tile(problem.constraint.lo, shape), np.tile(problem.constraint.hi, shape)
    X = np.tile(x_start, shape)
    ends = list(X)
    for k, block in blocks:
        ends[k:len(X)] = X[k:]
        X, co, lo, hi = X[:k], co[:k], lo[:k], hi[:k]
        for idx in block:
            X = _local_step(X, problem.inner.subgrads(idx, X), co, gamma, lo, hi)
    ends[:len(X)] = X
    acc = ends[order.index(0)]
    for c in range(1, len(order)):
        acc = acc + ends[order.index(c)]
    return acc / len(order)


def fism_round(state: RoundState, sched: StepSchedule, problem: ProblemSpec) -> RoundState:
    """One federated round: freeze the outer subgradient at the current
    iterate, run every client's local pass on it (two or more as lanes),
    average the results in ascending client index.

    The weighted-average accumulators pick up the round's starting iterate
    before the update. Counters grow by (total inner functions, 1).
    """
    gamma, lam = sched.at(state.k)
    outer_subgrad = problem.outer.subgrad(state.x)
    m = problem.n_inner
    if problem.n_clients == 1:  # x / 1 is x: one client's end is the average
        x_next = client_local_pass(state.x, outer_subgrad, gamma, lam, m, problem.inner,
                                   problem.clients[0], problem.constraint)
    else:
        x_next = _lane_average(state.x, outer_subgrad, gamma, lam, problem)
    return RoundState(
        x=x_next,
        k=state.k + 1,
        avg_num=state.avg_num + gamma * state.x,
        avg_den=state.avg_den + gamma,
        inner_evals=state.inner_evals + m,
        outer_evals=state.outer_evals + 1,
    )


def irig_round(state: RoundState, sched: StepSchedule, problem: ProblemSpec) -> RoundState:
    """One incremental-baseline round: a sequential pass over all inner
    functions in global order, with a fresh outer subgradient at every local
    step. Counters grow by (total inner functions, total inner functions)."""
    gamma, lam = sched.at(state.k)
    m = problem.n_inner
    coef = gamma * lam / m
    lo, hi = problem.constraint.lo, problem.constraint.hi
    subgrad, outer_subgrad = problem.inner.subgrad, problem.outer.subgrad
    x = state.x
    for i in chain.from_iterable(problem.clients):
        x = _local_step(x, subgrad(i, x), coef * outer_subgrad(x), gamma, lo, hi)
    return RoundState(
        x=x,
        k=state.k + 1,
        avg_num=state.avg_num + gamma * state.x,
        avg_den=state.avg_den + gamma,
        inner_evals=state.inner_evals + m,
        outer_evals=state.outer_evals + m,
    )


def _norm(v: np.ndarray) -> float:
    # Bitwise what np.linalg.norm computes for a 1-d float array. Like it,
    # copy a strided view first: a strided dot sums in another order.
    v = np.ascontiguousarray(v)
    return math.sqrt(float(np.dot(v, v)))


def _step_norms(xs: np.ndarray) -> list[float]:
    # ||x_{j+1} - x_j|| for consecutive rows; vecdot rows carry np.dot's bits,
    # so each norm is bitwise _norm of its step.
    d = xs[1:] - xs[:-1]
    return np.sqrt(np.vecdot(d, d)).tolist()


def weighted_average(state: RoundState) -> np.ndarray:
    """Stepsize-weighted mean of the global iterates seen so far."""
    if state.avg_den <= 0.0:
        raise ValueError("weighted average is undefined before the first round")
    return state.avg_num / state.avg_den


def stopping_criterion(x_prev: np.ndarray, x_next: np.ndarray,
                       f_prev: float, f_next: float,
                       h_prev: float, h_next: float, tol: float) -> bool:
    """Composite relative-change test with denominators |previous| + 1.

    Fires when max(||dx|| / (||x_prev|| + 1), |dh| / (|h_prev| + 1),
    |df| / (|f_prev| + 1)) <= tol. The absolute values keep every denominator
    at least 1 for signed objectives; for nonnegative objectives they change
    nothing.
    """
    rx = _norm(x_next - x_prev) / (_norm(x_prev) + 1.0)
    rh = abs(h_next - h_prev) / (abs(h_prev) + 1.0)
    rf = abs(f_next - f_prev) / (abs(f_prev) + 1.0)
    return max(rx, rh, rf) <= tol


def run_solver(problem: ProblemSpec, sched: StepSchedule, method: str,
               x_init: np.ndarray, max_rounds: int, tol: float | None = None,
               seed: int = 0, costs: CostModel | None = None,
               observe: Callable[[RoundState], None] | None = None) -> RunRecord:
    """Drive rounds of the chosen method and record per-round metrics.

    Deterministic given its arguments. The initial point is projected onto
    the box before round 1 so every logged iterate is feasible. With ``tol``
    set, the composite relative-change test is evaluated on the full
    inner/outer objectives after every round; otherwise the round budget
    alone stops the run. A non-finite inner or outer value (at the new
    iterate or the running average) ends the run after logging that round,
    with stop reason ``"non-finite"``; rounds already computed past it are
    discarded, and an error raised in the block past it is dropped by
    replaying the block one round at a time.
    ``costs`` must price exactly ``problem.client_sizes`` updates (default:
    unit costs, no communication). ``observe``, when given, is called with
    the projected initial state and then with the state after every recorded
    round, in round order, once that round's metrics are taken.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    x0 = project_box(np.asarray(x_init, dtype=float), problem.constraint)
    if costs is None:
        costs = uniform_costs(problem.client_sizes)
    if costs.sizes != problem.client_sizes:
        raise ValueError(f"cost model prices client sizes {costs.sizes}, "
                         f"problem has {problem.client_sizes}")
    t_round = round_time(costs, method)
    state = RoundState.initial(x0)
    if observe is not None:
        observe(state)
    rows: list[RoundRow] = []
    m = problem.n_inner
    f_cur = problem.inner_objective(state.x)
    h_cur = problem.outer_objective(state.x)
    cum_time = 0.0
    stop_reason = "max_rounds"
    block = _BLOCK if tol is None else 1
    while stop_reason == "max_rounds" and len(rows) < max_rounds:
        prev = state
        states: list[RoundState] = []
        walls: list[float] = []
        try:
            for _ in range(min(block, max_rounds - len(rows))):
                wall0 = time.perf_counter()
                if method == FISM:
                    state = fism_round(state, sched, problem)
                else:
                    state = irig_round(state, sched, problem)
                walls.append(time.perf_counter() - wall0)
                states.append(state)
            b = len(states)
            xs = np.array([prev.x] + [s.x for s in states])
            avgs = (np.array([s.avg_num for s in states])
                    / np.array([[s.avg_den] for s in states]))
            f_all = problem.inner.values(np.concatenate((xs[1:], avgs))).tolist()
            h_all = problem.outer.values(xs[1:]).tolist()
        except Exception:
            # The block may have run past the round that stops the run.
            # Replay from its start one round at a time, so an error from
            # a round that would never be recorded does not surface.
            if block == 1:
                raise
            block, state = 1, prev
            continue
        # Rows in round order; ``state`` ends at the last recorded round.
        for state, wall, f_next, f_avg, h_next, step_norm in zip(
                states, walls, f_all[:b], f_all[b:], h_all, _step_norms(xs)):
            cum_time += t_round
            # Positional, in RoundRow's field order: keywords cost more per row.
            rows.append(RoundRow(prev.k, f_cur, f_cur / m, f_avg, h_cur, step_norm, t_round,
                                 cum_time, state.inner_evals, state.outer_evals, wall))
            if observe is not None:
                observe(state)
            if not (math.isfinite(f_next) and math.isfinite(h_next)
                    and math.isfinite(f_avg)):
                stop_reason = "non-finite"
            elif tol is not None and stopping_criterion(prev.x, state.x, f_cur, f_next,
                                                        h_cur, h_next, tol):
                stop_reason = "tolerance"
            f_cur, h_cur = f_next, h_next
            prev = state
            if stop_reason != "max_rounds":
                break
    return RunRecord(
        method=method,
        problem_id=problem.name,
        gamma1=sched.gamma1, a=sched.a, lambda1=sched.lambda1, b=sched.b,
        n_clients=problem.n_clients, n_inner=m, dimension=problem.dimension,
        seed=seed,
        rows=rows,
        final_x=state.x,
        final_avg_x=weighted_average(state),
        final_inner_value=f_cur,
        final_outer_value=h_cur,
        stop_reason=stop_reason,
    )


def reference_solve(problem: ProblemSpec, lam: float, iters: int, seed: int = 0) -> np.ndarray:
    """High-accuracy approximation of the regularized minimizer over the box.

    Projected subgradient on (inner + lam * outer) with the strongly convex
    stepsize c/k, c = 2 / (lam * mu_H), averaging the tail half of the
    iterates. Test oracle only; the solvers never call it.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    box = problem.constraint
    rng = make_rng(seed, STREAM_INIT)
    x = open_uniform(rng, box.lo, box.hi, box.dimension)
    c = 2.0 / (lam * problem.mu_H)
    order = tuple(chain.from_iterable(problem.clients))
    subgrad = problem.inner.subgrad
    acc = np.zeros_like(x)
    count = 0
    half = iters // 2
    for k in range(1, iters + 1):
        g = lam * problem.outer.subgrad(x)
        for i in order:
            g = g + subgrad(i, x)
        x = project_box(x - (c / k) * g, box)
        if k > half:
            acc += x
            count += 1
    return acc / count
