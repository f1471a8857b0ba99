"""Solver rounds and the run driver.

The federated round picks one outer subgradient per round, broadcasts it,
lets every client run an incremental projected-subgradient pass over its own
share of the inner family, and averages the returned iterates. The
incremental baseline sweeps all inner functions sequentially, refreshing the
outer subgradient at every local step. Every round path takes the same
step, ``_local_step``, which takes only subgradients, raises ``ValueError``
on one of another shape than its point, and computes no function value.
One point is stepped by one loop, shared by one-client FISM, IRIG and
``client_local_pass``: FISM forms the scaled outer term once per pass, IRIG
once per step, after the step's inner subgradient. So the two methods
coincide bitwise when one client holds one function.

``run_solver`` builds the method's iterate kernel once per run, a map from
(x, gamma, lam) to the round's next iterate; it is the only round path. It
runs rounds in blocks of up to ``_BLOCK``, calling only the schedule and the
kernel per round, and then does the block's bookkeeping at once: the
running averages as a cumulative sum and the counters as ranges, which
carry the bits of their round-by-round updates, and the metrics in a few
vectorized calls: one ``inner.values`` on the new iterates and the running
averages, one ``outer.values`` and one stack of step norms. Each of these
gives a row the bits a one-point call gives, so the records do not depend
on the block length. The block's rows are appended to the record's typed
columns, one list per field. The run stops at the block's first row whose
objective values are not all finite (``stop_reason="non-finite"``) or, with
a tolerance set, that meets the composite relative-change test
(``"tolerance"``), all rows tested at once; the rounds computed after it in
its block are discarded.

Two or more clients are stepped together as the rows of one stack (lanes),
each row getting the bits ``client_local_pass`` gives it, and averaged in
ascending client index with left-to-right ``+``, along a lane plan built
from the client lists once per run; parallelism in time lives only in the
simulated timing model (``round_time``).

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

# Rounds run between two metric passes. The records do not depend on it; it
# only bounds the rounds computed past a stop.
_BLOCK = 32


@dataclass
class RoundState:
    """What ``observe`` is shown of a round: the global iterate, the next
    round's index and the running numerator/denominator of the
    stepsize-weighted average. ``run_solver`` keeps these as locals and
    builds a ``RoundState`` only to pass it to ``observe``. The subgradient
    counters are ranges over k, kept in the rows."""

    x: np.ndarray
    k: int
    avg_num: np.ndarray
    avg_den: float


# An iterate kernel maps (x, gamma, lam) to the round's next iterate and
# nothing else; its factory looks the problem's constants up once.
_Kernel = Callable[[np.ndarray, float, float], np.ndarray]
# Bound once: at n = 1 a module attribute lookup per step is a measurable cost.
_minimum, _maximum = np.minimum, np.maximum


def _local_step(x: np.ndarray, g: np.ndarray, co: np.ndarray, gamma: float,
                lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # The one step of every round path, so both methods' single-function
    # iterates agree bitwise; co = (gamma * lam / m) * outer subgradient. x is
    # one point or a stack of lanes, and co, lo, hi have its shape: a
    # broadcast operand costs more, and a subgradient of another shape would
    # broadcast silently.
    try:
        same = x.shape == g.shape == co.shape
    except AttributeError:  # not an array
        same = False
    if not same:
        raise ValueError(f"inner subgradient has shape {np.shape(g)} and outer term "
                         f"{np.shape(co)}, point has shape {x.shape}")
    return _minimum(_maximum(x - gamma * g - co, lo), hi)


def _scalar_kernel(indices: Sequence[int], subgrad, outer_subgrad, fresh: bool, m: int,
                   lo: np.ndarray, hi: np.ndarray) -> _Kernel:
    # One point through the inner functions ``indices`` in order, the outer
    # term scaled by gamma * lam / m: formed once at x for the pass (FISM),
    # or, when fresh, at every step after its inner subgradient (IRIG).
    def scalar(x, gamma, lam):
        coef = gamma * lam / m
        co = None if fresh else coef * outer_subgrad(x)
        for i in indices:
            x = _local_step(x, subgrad(i, x), coef * outer_subgrad(x) if fresh else co,
                            gamma, lo, hi)
        return x
    return scalar


def client_local_pass(x_start: np.ndarray, outer_subgrad: np.ndarray,
                      gamma: float, lam: float, inner: InnerFamily,
                      indices: Sequence[int], box: BoxConstraint) -> np.ndarray:
    """One client's in-round pass: an incremental projected subgradient step
    per local index of ``inner``, in the given order, reusing the frozen outer
    subgradient throughout, scaled by gamma * lam / len(inner).

    Returns the client's final local iterate. Performs exactly
    ``len(indices)`` inner subgradient evaluations and no outer ones. A
    subgradient of another shape than ``x_start`` raises ``ValueError``.
    """
    if len(indices) == 0:
        raise ValueError("client holds no inner functions")
    return _scalar_kernel(indices, inner.subgrad, lambda _: outer_subgrad, False, len(inner),
                          box.lo, box.hi)(x_start, gamma, lam)


def _lane_plan(clients: Sequence[Sequence[int]]) -> tuple:
    # Lanes hold the clients by descending size (ties by index). The plan is
    # the lane of each client and the blocks (k, rows), k descending, each
    # row the indices the k largest lanes step on. A block without rows is
    # left out: its leaving lanes are saved with the next block's, or last.
    order = sorted(range(len(clients)), key=lambda c: -len(clients[c]))
    sizes = [len(clients[c]) for c in order] + [0]
    table = np.zeros((sizes[0], len(order)), dtype=np.intp)
    for j, c in enumerate(order):
        table[:sizes[j], j] = clients[c]
    lane_of = tuple(sorted(range(len(order)), key=order.__getitem__))
    return lane_of, tuple((k, table[sizes[k]:sizes[k - 1], :k])
                          for k in range(len(order), 0, -1) if sizes[k] < sizes[k - 1])


def _lane_average(X: np.ndarray, co: np.ndarray, gamma: float, subgrads, plan: tuple,
                  lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    # Every client's pass at once, lane j of the plan as row j of X, co (the
    # scaled outer term client_local_pass forms), lo and hi, and the average
    # of the ends in client order. A lane leaves after its last step.
    lane_of, blocks = plan
    ends = list(X)
    for k, block in blocks:
        ends[k:len(X)] = X[k:]
        X, co, lo, hi = X[:k], co[:k], lo[:k], hi[:k]
        for idx in block:
            X = _local_step(X, subgrads(idx, X), co, gamma, lo, hi)
    ends[:len(X)] = X
    acc = ends[lane_of[0]]
    for j in lane_of[1:]:
        acc = acc + ends[j]
    return acc / len(lane_of)


def _kernel(problem: ProblemSpec, method: str) -> _Kernel:
    # FISM with two or more clients freezes the outer subgradient at x, runs
    # every client's pass on it as lanes and averages the ends in ascending
    # client index. Otherwise one point steps through every inner function
    # in client order: one-client FISM freezes the outer term for the pass
    # (x / 1 is x: its end is the average), IRIG refreshes it at every step.
    # The scalar pass gives a lane's bits at 1.4-2.5x its speed (n=784 to n=1).
    m, inner, box = problem.n_inner, problem.inner, problem.constraint
    outer_subgrad = problem.outer.subgrad
    if method != FISM or len(problem.clients) == 1:
        return _scalar_kernel(tuple(chain.from_iterable(problem.clients)), inner.subgrad,
                              outer_subgrad, method != FISM, m, box.lo, box.hi)
    shape = (len(problem.clients), 1)
    lo, hi, plan = np.tile(box.lo, shape), np.tile(box.hi, shape), _lane_plan(problem.clients)

    def lanes(x, gamma, lam):
        co = np.tile((gamma * lam / m) * outer_subgrad(x), shape)
        return _lane_average(np.tile(x, shape), co, gamma, inner.subgrads, plan, lo, hi)
    return lanes


def _step_norms(xs: np.ndarray) -> list[float]:
    # ||x_{j+1} - x_j|| for consecutive rows; vecdot rows carry np.dot's bits,
    # so each norm is bitwise np.linalg.norm of its step.
    d = xs[1:] - xs[:-1]
    return np.sqrt(np.vecdot(d, d)).tolist()


def _tolerance_met(xs: np.ndarray, steps: list[float], fs: list[float], hs: list[float],
                   tol: float) -> np.ndarray:
    # Row j: run_solver's tolerance test of the round from state j to j + 1
    # (iterates xs, inner values fs, outer values hs); a NaN ratio never
    # fires. Each ratio takes a one-round test's IEEE operations, and a vecdot
    # row carries np.dot's bits, so each row gets that test's decision.
    fs, hs = np.array(fs), np.array(hs)
    return ((np.asarray(steps) / (np.sqrt(np.vecdot(xs[:-1], xs[:-1])) + 1.0) <= tol)
            & (np.abs(fs[1:] - fs[:-1]) / (np.abs(fs[:-1]) + 1.0) <= tol)
            & (np.abs(hs[1:] - hs[:-1]) / (np.abs(hs[:-1]) + 1.0) <= tol))


def run_solver(problem: ProblemSpec, sched: StepSchedule, method: str,
               x_init: np.ndarray, max_rounds: int, tol: float | None = None,
               costs: CostModel | None = None,
               observe: Callable[[RoundState], None] | None = None) -> RunRecord:
    """Drive rounds of the chosen method and record per-round metrics.

    Deterministic given its arguments. The initial point is projected onto
    the box before round 1 so every logged iterate is feasible. A non-finite
    inner or outer value (at the new iterate or the running average) ends the
    run after logging that round, with stop reason ``"non-finite"``. With
    ``tol`` set, so does a round whose ||dx|| / (||x_prev|| + 1), |df| /
    (|f_prev| + 1) and |dh| / (|h_prev| + 1) on the full inner/outer
    objectives are all <= tol, with stop reason ``"tolerance"``; otherwise
    the round budget alone stops the run. Rounds already computed past a stop
    are discarded, and an error raised in the block past it is dropped by
    replaying the block one round at a time. numpy's floating-point warnings
    are silenced for the whole run, which classifies a non-finite stop itself.
    A row's ``wall_clock_sec`` times that round's iterate update alone. The
    record's ``feasible`` is gamma1 * lambda1 * mu_H <= 2m. ``costs`` must
    price exactly ``problem.client_sizes`` updates (default: unit costs, no
    communication). A round time or a recorded ``total_time_units`` that
    overflows to infinity raises ``ValueError``, the latter naming its
    round. ``observe``, when given, is called with the projected
    initial state and then with the state after every recorded round, in
    round order, once that round's metrics are taken.
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
    k, avg_num, avg_den = 1, np.zeros_like(x), 0.0
    if observe is not None:
        observe(RoundState(x, k, avg_num, avg_den))
    m = problem.n_inner
    step = _kernel(problem, method)
    outer_per_round = 1 if method == FISM else m
    at, perf_counter = sched.at, time.perf_counter
    rows = _ColumnRows()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_cur = float(problem.inner.values(x[None])[0])
        h_cur = float(problem.outer.values(x[None])[0])
        cum_time = 0.0
        stop_reason = "max_rounds"
        block = _BLOCK
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
            # The run stops at the first round with a non-finite value or, with
            # tol set, one that meets it; the rounds computed past it are discarded.
            finite = np.isfinite(np.concatenate((f_all, h_all))).reshape(3, computed).all(axis=0)
            fs, hs = [f_cur, *f_all[:computed].tolist()], [h_cur, *h_all.tolist()]
            steps = _step_norms(xs)
            stop = ~finite if tol is None else ~finite | _tolerance_met(xs, steps, fs, hs, tol)
            b = int(stop.argmax()) + 1 if stop.any() else computed
            if not finite[b - 1]:
                stop_reason = "non-finite"
            elif stop[b - 1]:
                stop_reason = "tolerance"
            totals = list(accumulate(repeat(t_round, b), initial=cum_time))
            if not math.isfinite(totals[-1]):  # the totals never decrease
                j = next(j for j, t in enumerate(totals) if not math.isfinite(t))
                raise ValueError(f"simulated time overflows: total_time_units of round "
                                 f"{k + j - 1} is {totals[j]}")
            # After round j, m * j inner and outer_per_round * j outer subgradients were taken.
            inner_counts = list(range(m * k, m * (k + b), m))
            outer_counts = list(range(outer_per_round * k, outer_per_round * (k + b),
                                      outer_per_round))
            # The block's b rows as columns, in RoundRow's field order.
            rows.extend(list(range(k, k + b)), fs[:b], [f / m for f in fs[:b]],
                        f_all[computed:computed + b].tolist(), hs[:b], steps[:b],
                        [t_round] * b, totals[1:], inner_counts, outer_counts, walls[:b])
            if observe is not None:
                for j in range(1, b + 1):
                    observe(RoundState(iterates[j], k + j, nums[j], dens[j]))
            x, k, avg_num, avg_den = iterates[b], k + b, nums[b], dens[b]
            cum_time, f_cur, h_cur = totals[b], fs[b], hs[b]
        # Round 1 adds gamma1 > 0 to the denominator, so it is positive here.
        final_avg_x = avg_num / avg_den
    return RunRecord(
        method=method,
        problem_id=problem.name,
        gamma1=sched.gamma1, a=sched.a, lambda1=sched.lambda1, b=sched.b,
        feasible=sched.gamma1 * sched.lambda1 * problem.mu_H <= 2 * m,
        n_clients=problem.n_clients, n_inner=m, dimension=problem.dimension,
        rows=rows,
        final_x=x,
        final_avg_x=final_avg_x,
        final_inner_value=f_cur,
        final_outer_value=h_cur,
        stop_reason=stop_reason,
    )
