"""Solver rounds and the run driver.

The federated round picks one outer subgradient per round, broadcasts it,
lets every client run an incremental projected-subgradient pass over its own
share of the inner family, and averages the returned iterates. The
incremental baseline sweeps all inner functions sequentially, refreshing the
outer subgradient at every local step. Both share one step kernel,
``_local_step``, which takes only subgradients: the scaled outer term is
formed once per client pass (FISM) or once per step (IRIG), and no function
value is computed on the solver path.
So the two methods coincide bitwise when one client holds one function.

``run_solver`` builds each method's iterate kernel once per run, a map from
(x, gamma, lam) to the round's next iterate; it is the only round path. It
runs rounds in blocks of up to ``_BLOCK``, calling only the schedule and the
kernel per round, and then does the block's bookkeeping at once: the
running averages as a cumulative sum and the counters as ranges, which
carry the bits of their round-by-round updates, and the metrics in a few
vectorized calls: one ``inner.values`` on the new iterates and the running
averages, one ``outer.values`` and one stack of step norms. Each of these
gives a row the bits a one-point call gives, so the records do not depend
on the block length. The block's rows are appended to the record's typed
columns, one list per field. A non-finite objective value stops a run with
``stop_reason="non-finite"``; the rounds computed after it in its block are
discarded. With a tolerance set, a block is one round, so a run computes no
round that it does not record.

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
from itertools import accumulate, chain, repeat
from typing import Callable, Sequence

import numpy as np

from .federation import FISM, METHODS, CostModel, round_time, uniform_costs
from .metrics import RunRecord, _ColumnRows
from .oracles import InnerFamily, project_box
from .problem import BoxConstraint, ProblemSpec, StepSchedule

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
    subgrad, lo, hi = inner.subgrad, box.lo, box.hi
    x = x_start
    for i in indices:
        x = _local_step(x, subgrad(i, x), co, gamma, lo, hi)
    return x


def _lane_average(X: np.ndarray, co: np.ndarray, gamma: float, problem: ProblemSpec,
                  lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # Every client's pass at once, lane j of problem.lanes as row j of X, co
    # (the scaled outer term client_local_pass forms), lo and hi, and the
    # average of the ends in client order. A lane leaves after its last step.
    order, blocks = problem.lanes
    subgrads = problem.inner.subgrads
    ends = list(X)
    for k, block in blocks:
        ends[k:len(X)] = X[k:]
        X, co, lo, hi = X[:k], co[:k], lo[:k], hi[:k]
        for idx in block:
            X = _local_step(X, subgrads(idx, X), co, gamma, lo, hi)
    ends[:len(X)] = X
    acc = ends[order.index(0)]
    for c in range(1, len(order)):
        acc = acc + ends[order.index(c)]
    return acc / len(order)


# An iterate kernel maps (x, gamma, lam) to the round's next iterate and
# nothing else; the factories below look the problem's constants up once.
_Kernel = Callable[[np.ndarray, float, float], np.ndarray]


def _fism_kernel(problem: ProblemSpec) -> _Kernel:
    # Freeze the outer subgradient at x, run every client's pass on it (two
    # or more as lanes) and average the ends in ascending client index.
    m, inner, box = problem.n_inner, problem.inner, problem.constraint
    outer_subgrad = problem.outer.subgrad
    if len(problem.clients) == 1:
        # x / 1 is x: one client's end is the average. The scalar pass gives
        # a lane's bits at 1.4-2.5x its speed (n=784 to n=1), so S = 1 keeps it.
        indices = problem.clients[0]

        def step(x, gamma, lam):
            return client_local_pass(x, outer_subgrad(x), gamma, lam, m, inner, indices, box)
        return step
    shape = (len(problem.clients), 1)
    lo, hi = np.tile(box.lo, shape), np.tile(box.hi, shape)

    def step(x, gamma, lam):
        co = np.tile((gamma * lam / m) * outer_subgrad(x), shape)
        return _lane_average(np.tile(x, shape), co, gamma, problem, lo, hi)
    return step


def _irig_kernel(problem: ProblemSpec) -> _Kernel:
    # A sequential pass over all inner functions in global order, with a
    # fresh outer subgradient at every local step.
    m = problem.n_inner
    order = tuple(chain.from_iterable(problem.clients))
    lo, hi = problem.constraint.lo, problem.constraint.hi
    subgrad, outer_subgrad = problem.inner.subgrad, problem.outer.subgrad

    def step(x, gamma, lam):
        coef = gamma * lam / m
        for i in order:
            x = _local_step(x, subgrad(i, x), coef * outer_subgrad(x), gamma, lo, hi)
        return x
    return step


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
    replaying the block one round at a time. numpy's floating-point warnings
    are silenced for the whole run, which classifies a non-finite stop itself.
    A row's ``wall_clock_sec`` times that round's iterate update alone.
    ``costs`` must price exactly ``problem.client_sizes`` updates (default:
    unit costs, no communication). ``observe``, when given, is called with
    the projected initial state and then with the state after every recorded
    round, in round order, once that round's metrics are taken.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    x = project_box(np.asarray(x_init, dtype=float), problem.constraint)
    if costs is None:
        costs = uniform_costs(problem.client_sizes)
    if costs.sizes != problem.client_sizes:
        raise ValueError(f"cost model prices client sizes {costs.sizes}, "
                         f"problem has {problem.client_sizes}")
    t_round = round_time(costs, method)
    if observe is not None:
        observe(RoundState.initial(x))
    k, avg_num, avg_den, inner_evals, outer_evals = 1, np.zeros_like(x), 0.0, 0, 0
    m = problem.n_inner
    step = (_fism_kernel if method == FISM else _irig_kernel)(problem)
    outer_per_round = 1 if method == FISM else m
    at, perf_counter = sched.at, time.perf_counter
    rows = _ColumnRows()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_cur = problem.inner_objective(x)
        h_cur = problem.outer_objective(x)
        cum_time = 0.0
        stop_reason = "max_rounds"
        block = _BLOCK if tol is None else 1
        while stop_reason == "max_rounds" and len(rows) < max_rounds:
            # A round is its iterate update alone; everything else is per block.
            x_next, iterates, gammas, walls = x, [x], [], []
            try:
                for j in range(k, k + min(block, max_rounds - len(rows))):
                    gamma, lam = at(j)
                    wall0 = perf_counter()
                    x_next = step(x_next, gamma, lam)
                    walls.append(perf_counter() - wall0)
                    iterates.append(x_next)
                    gammas.append(gamma)
                computed = len(gammas)
                xs = np.concatenate(iterates).reshape(computed + 1, -1)
                # Sequential adds: row j carries the bits of the repeated
                # avg_num + gamma * x, and dens[j] those of avg_den + gamma.
                nums = np.add.accumulate(
                    np.concatenate((avg_num[None], np.array(gammas)[:, None] * xs[:-1])))
                dens = list(accumulate(gammas, initial=avg_den))
                f_all = problem.inner.values(
                    np.concatenate((xs[1:], nums[1:] / np.array(dens[1:])[:, None])))
                h_all = problem.outer.values(xs[1:])
            except Exception:
                # The block may have run past the round that stops the run.
                # Replay from its start one round at a time, so an error from
                # a round that would never be recorded does not surface.
                if block == 1:
                    raise
                block = 1
                continue
            # The run stops at the first round with a non-finite value; the
            # rounds computed past it are discarded.
            finite = np.isfinite(np.concatenate((f_all, h_all))).reshape(3, computed).all(axis=0)
            b = computed if finite.all() else int(finite.argmin()) + 1
            f_next, h_next = f_all[:b].tolist(), h_all[:b].tolist()
            if not finite[b - 1]:
                stop_reason = "non-finite"
            elif tol is not None and stopping_criterion(x, iterates[1], f_cur, f_next[0],
                                                        h_cur, h_next[0], tol):
                stop_reason = "tolerance"  # with a tolerance a block is one round
            f_prev, h_prev = [f_cur, *f_next[:-1]], [h_cur, *h_next[:-1]]
            totals = list(accumulate(repeat(t_round, b), initial=cum_time))
            inner_counts = list(range(inner_evals + m, inner_evals + m * b + 1, m))
            outer_counts = list(range(outer_evals + outer_per_round,
                                      outer_evals + outer_per_round * b + 1, outer_per_round))
            # The block's b rows as columns, in RoundRow's field order.
            rows.extend(list(range(k, k + b)), f_prev, [f / m for f in f_prev],
                        f_all[computed:computed + b].tolist(), h_prev, _step_norms(xs[:b + 1]),
                        [t_round] * b, totals[1:], inner_counts, outer_counts, walls[:b])
            if observe is not None:
                for j in range(1, b + 1):
                    observe(RoundState(iterates[j], k + j, nums[j], dens[j], inner_counts[j - 1],
                                       outer_counts[j - 1]))
            x, k, avg_num, avg_den = iterates[b], k + b, nums[b], dens[b]
            inner_evals, outer_evals = inner_counts[-1], outer_counts[-1]
            cum_time, f_cur, h_cur = totals[b], f_next[-1], h_next[-1]
        state = RoundState(x, k, avg_num, avg_den, inner_evals, outer_evals)
        final_avg_x = weighted_average(state)
    return RunRecord(
        method=method,
        problem_id=problem.name,
        gamma1=sched.gamma1, a=sched.a, lambda1=sched.lambda1, b=sched.b,
        n_clients=problem.n_clients, n_inner=m, dimension=problem.dimension,
        seed=seed,
        rows=rows,
        final_x=state.x,
        final_avg_x=final_avg_x,
        final_inner_value=f_cur,
        final_outer_value=h_cur,
        stop_reason=stop_reason,
    )
