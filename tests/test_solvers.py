import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (SELECTION_1D_OPTIMUM, abs_oracle, ball_dist_eval, balls_inner,
                     chained_client_passes, counting, dot_norm, grid_min_selection_composite,
                     outer_quad_anchor_eval, reference_solve, stopping_criterion, zero_oracle)

from fedbilevel import solvers
from fedbilevel.data import make_synthetic_logistic
from fedbilevel.federation import (CONTIGUOUS, FISM, IRIG, SHUFFLED, partition_data,
                                   round_time, uniform_costs)
from fedbilevel.instances import location_problem, logistic_problem, selection_1d_problem
from fedbilevel.metrics import RoundRow
from fedbilevel.oracles import (BallDistances, EvalResult, L1Quad, LogisticLosses, OracleFamily,
                                QuadAnchor, project_box)
from fedbilevel.problem import BoxConstraint, ProblemSpec, StepSchedule, contiguous_clients
from fedbilevel.solvers import (_BLOCK, RoundState, _step_norms, _tolerance_met,
                                client_local_pass, run_solver)


def _schedule_1d():
    return StepSchedule(1, 0.55, 1, 0.4)


def _small_steps_1d():
    return StepSchedule(0.1, 0.55, 1, 0.4)


def _nan_below(threshold):
    """selection-1d as closures whose inner and outer values and subgradients
    turn NaN once x drops below ``threshold``: a trigger that depends only on
    the point, not on when or how often the closures are called."""

    def poisoned(oracle):
        def fn(x):
            if x[0] < threshold:
                return EvalResult(math.nan, np.full_like(x, math.nan))
            return oracle(x)
        return fn

    return ProblemSpec.from_oracles(
        clients=[[poisoned(lambda x: ball_dist_eval(x, np.array([0.5]), 0.5))]],
        outer=poisoned(lambda x: outer_quad_anchor_eval(x, np.array([2.0]))),
        constraint=BoxConstraint.symmetric(1, 10.0), mu_H=1.0)


def _observed_iterates(*args, **kwargs):
    """The iterates run_solver observes: the projected initial one, then one
    per round."""
    states = []
    run_solver(*args, observe=states.append, **kwargs)
    return [state.x for state in states]


class TestClientLocalPass:
    def test_single_step_hand_computed(self):
        # P[1 - 0.5*1 - (0.5*1/1)*1] = P[0] = 0 on the box [-1, 1]
        box = BoxConstraint.symmetric(1, 1.0)
        res = client_local_pass(np.array([1.0]), np.array([1.0]), gamma=0.5, lam=1.0,
                                inner=OracleFamily([abs_oracle()]),
                                indices=(0,), box=box)
        assert np.array_equal(res, [0.0])

    def test_zero_stepsize_is_identity(self):
        box = BoxConstraint.symmetric(1, 1.0)
        res = client_local_pass(np.array([1.0]), np.array([1.0]), gamma=0.0, lam=1.0,
                                inner=OracleFamily([abs_oracle()]),
                                indices=(0,), box=box)
        assert np.array_equal(res, [1.0])

    def test_only_frozen_term_acts(self):
        # two zero inner functions: 1 - 2 * (0.25 * 1 / 2) * 1 = 0.75
        box = BoxConstraint.symmetric(1, 1.0)
        res = client_local_pass(np.array([1.0]), np.array([1.0]), gamma=0.25, lam=1.0,
                                inner=OracleFamily([zero_oracle(), zero_oracle()]),
                                indices=(0, 1), box=box)
        assert res == pytest.approx([0.75], abs=1e-15)

    def test_rejects_empty_client(self):
        box = BoxConstraint.symmetric(1, 1.0)
        with pytest.raises(ValueError):
            client_local_pass(np.array([1.0]), np.array([1.0]), gamma=0.1, lam=1.0,
                              inner=OracleFamily([abs_oracle()]), indices=(),
                              box=box)

    def test_rejects_dimension_mismatch(self):
        box = BoxConstraint.symmetric(1, 1.0)
        with pytest.raises(ValueError):
            client_local_pass(np.array([1.0]), np.array([1.0, 2.0]), gamma=0.1, lam=1.0,
                              inner=OracleFamily([abs_oracle()]), indices=(0,),
                              box=box)

    def test_eval_counts(self):
        box = BoxConstraint.symmetric(1, 1.0)
        fn, calls = counting(abs_oracle())
        client_local_pass(np.array([0.5]), np.array([1.0]), gamma=0.1, lam=1.0,
                          inner=OracleFamily([fn, fn, fn]), indices=(0, 1, 2),
                          box=box)
        assert calls["n"] == 3



class TestFismRound:
    def test_single_client_matches_local_pass(self):
        prob = selection_1d_problem()
        sched = _schedule_1d()
        x0 = np.array([4.0])
        gamma, lam = sched.at(1)
        x1 = solvers._kernel(prob, FISM)(x0, gamma, lam)
        direct = client_local_pass(x0, prob.outer.subgrad(x0), gamma, lam, prob.inner,
                                   prob.clients[0], prob.constraint)
        assert np.array_equal(x1, direct)
        observed = []
        rec = run_solver(prob, sched, FISM, x0, 1, observe=observed.append)
        assert observed[1].x.tobytes() == x1.tobytes()
        assert observed[1].k == 2
        assert (rec.rows[0].inner_subgrad_evals, rec.rows[0].outer_subgrad_evals) == (1, 1)

    def test_identical_clients_average_to_member(self):
        prob = selection_1d_problem((1, 1))
        sched = StepSchedule(1, 0.55, 1, 0.4)
        x0 = np.array([4.0])
        gamma, lam = sched.at(1)
        x1 = solvers._kernel(prob, FISM)(x0, gamma, lam)
        direct = client_local_pass(x0, prob.outer.subgrad(x0), gamma, lam, prob.inner,
                                   prob.clients[0], prob.constraint)
        assert x1 == pytest.approx(direct, abs=1e-15)

    def test_frozen_outer_subgradient_once_per_round(self):
        outer, outer_calls = counting(lambda x: outer_quad_anchor_eval(x, np.array([2.0])))
        wrapped_clients = []
        inner_counters = []
        for _ in range(2):
            wrapped_group = []
            for _ in range(2):
                wrapped, calls = counting(lambda x: ball_dist_eval(x, np.array([0.5]), 0.5))
                wrapped_group.append(wrapped)
                inner_counters.append(calls)
            wrapped_clients.append(tuple(wrapped_group))
        prob = ProblemSpec.from_oracles(clients=wrapped_clients, outer=outer,
                                        constraint=BoxConstraint.symmetric(1, 10.0), mu_H=1.0)
        sched = StepSchedule(1, 0.55, 1, 0.4)
        # The kernel alone: a run would add the metrics' outer evaluations.
        step = solvers._kernel(prob, FISM)
        x = np.array([3.0])
        for k in range(1, 6):
            x = step(x, *sched.at(k))
        assert outer_calls["n"] == 5  # exactly one outer evaluation per round
        assert sum(c["n"] for c in inner_counters) == 5 * 4


class TestIrigRound:
    def test_zero_stepsize_is_identity(self):
        # The kernel alone: a run's weighted average is undefined at gamma = 0.
        prob = selection_1d_problem((3,))
        x0 = np.array([4.0])
        assert np.array_equal(solvers._kernel(prob, IRIG)(x0, 0.0, 1.0), x0)

    def test_global_order_and_counts(self):
        prob = selection_1d_problem((2, 2))
        sched = StepSchedule(1, 0.55, 1, 0.4)
        row = run_solver(prob, sched, IRIG, np.array([3.0]), 1).rows[0]
        assert (row.inner_subgrad_evals, row.outer_subgrad_evals) == (4, 4)

    def test_inner_then_outer_subgradient_at_every_step(self):
        # The kernel alone: m inner and m outer calls a round, not m + 1, and
        # each step takes its inner subgradient before its outer one.
        calls = []

        def logged(tag, oracle):
            def fn(x):
                calls.append(tag)
                return oracle(x)
            return fn

        ball = logged("inner", lambda x: ball_dist_eval(x, np.array([0.5]), 0.5))
        prob = ProblemSpec.from_oracles(
            clients=[[ball], [ball, ball]],
            outer=logged("outer", lambda x: outer_quad_anchor_eval(x, np.array([2.0]))),
            constraint=BoxConstraint.symmetric(1, 10.0), mu_H=1.0)
        solvers._kernel(prob, IRIG)(np.array([3.0]), 0.5, 1.0)
        assert calls == ["inner", "outer"] * 3


# One-client FISM (the scalar pass), FISM with two clients (lanes) and IRIG.
_EVERY_ROUND_PATH = pytest.mark.parametrize(
    "method,sizes", [(FISM, (2,)), (FISM, (1, 1)), (IRIG, (1, 1))],
    ids=["fism-S1", "fism-S2", "irig"])


class TestClosureSubgradientShape:
    """A closure's subgradient of the wrong shape raises ValueError on every
    round path, instead of broadcasting against the iterate."""

    @_EVERY_ROUND_PATH
    @pytest.mark.parametrize("wrong", ["inner", "outer"])
    def test_wrong_shape_raises(self, method, sizes, wrong):
        def ball(x):
            res = ball_dist_eval(x, np.zeros(2), 0.5)
            return res._replace(subgrad=res.subgrad[:1]) if wrong == "inner" else res

        def outer(x):
            res = outer_quad_anchor_eval(x, np.array([2.0, 1.0]))
            return res._replace(subgrad=res.subgrad[:1]) if wrong == "outer" else res

        prob = ProblemSpec.from_oracles(
            clients=[[ball] * size for size in sizes], outer=outer,
            constraint=BoxConstraint.symmetric(2, 10.0), mu_H=1.0)
        sched = StepSchedule(1, 0.55, 1, 0.4)
        with pytest.raises(ValueError):
            run_solver(prob, sched, method, np.array([3.0, -1.0]), 5)


class _DuckBalls:
    """An inner family that is no OracleFamily: distances to the unit ball at
    the origin, whose subgradients keep only their first ``width`` entries,
    or are the first entry as a Python float when ``width`` is None."""

    def __init__(self, m, width):
        self.m, self.width = m, width

    def __len__(self):
        return self.m

    def subgrad(self, i, x):
        g = ball_dist_eval(x, np.zeros(x.shape), 1.0).subgrad
        return float(g[0]) if self.width is None else g[:self.width]

    def subgrads(self, idx, X):
        return np.array([self.subgrad(i, x) for i, x in zip(idx.tolist(), X)])

    def values(self, X):
        return np.array([self.m * ball_dist_eval(x, np.zeros(x.shape), 1.0).value for x in X])


class _DuckAnchor:
    """An outer objective that is no OracleObjective: 0.5 ||x - (2, 1)||^2,
    whose subgradient keeps only its first ``width`` entries."""

    def __init__(self, width):
        self.width = width

    def subgrad(self, x):
        return (x - np.array([2.0, 1.0]))[:self.width]

    def values(self, X):
        D = X - np.array([2.0, 1.0])
        return 0.5 * np.vecdot(D, D)


class TestDuckTypedSubgradientShape:
    """A duck-typed family's or objective's subgradient of the wrong shape
    raises ValueError on every round path too: the shape is checked in the
    step every path shares, not in the closure adapters."""

    @_EVERY_ROUND_PATH
    @pytest.mark.parametrize("wrong", ["inner", "outer", "inner-scalar"])
    def test_wrong_shape_raises(self, method, sizes, wrong):
        width = {"inner": 1, "inner-scalar": None}.get(wrong, 2)
        prob = ProblemSpec(inner=_DuckBalls(sum(sizes), width),
                           outer=_DuckAnchor(1 if wrong == "outer" else 2),
                           clients=contiguous_clients(sizes),
                           constraint=BoxConstraint.symmetric(2, 10.0), mu_H=1.0)
        with pytest.raises(ValueError, match="shape"):
            run_solver(prob, _schedule_1d(), method, np.array([3.0, -1.0]), 5)

    @_EVERY_ROUND_PATH
    def test_right_shape_runs(self, method, sizes):
        prob = ProblemSpec(inner=_DuckBalls(sum(sizes), 2), outer=_DuckAnchor(2),
                           clients=contiguous_clients(sizes),
                           constraint=BoxConstraint.symmetric(2, 10.0), mu_H=1.0)
        rec = run_solver(prob, _schedule_1d(), method, np.array([3.0, -1.0]), 5)
        assert rec.rounds == 5 and np.all(np.isfinite(rec.final_x))


class TestWeightedAverage:
    def test_single_round_returns_first_iterate(self):
        # The average after round 1 weighs the projected start x_1 alone.
        rec = run_solver(selection_1d_problem(), _schedule_1d(), FISM, np.array([4.0]), 1)
        assert np.array_equal(rec.final_avg_x, [4.0])


def _one_row_met(x_prev, x_next, f_prev, f_next, h_prev, h_next, tol):
    # The row-wise test on a block of one round.
    xs = np.stack((x_prev, x_next))
    return bool(_tolerance_met(xs, _step_norms(xs), [f_prev, f_next], [h_prev, h_next], tol)[0])


class TestStoppingCriterion:
    """The composite relative-change test as run_solver takes it, row by
    row over a block of rounds."""

    def test_no_change_fires(self):
        x = np.array([1.0, 2.0])
        assert _one_row_met(x, x, 1.0, 1.0, 2.0, 2.0, tol=1e-5)

    def test_step_ratio_exceeds(self):
        x = np.zeros(1)
        y = np.array([2e-5])  # ||dx|| / (||x|| + 1) = 2e-5 > 1e-5
        assert not _one_row_met(x, y, 0.0, 0.0, 0.0, 0.0, tol=1e-5)
        assert _one_row_met(x, np.array([0.5]), 0.0, 0.0, 0.0, 0.0, tol=0.5)  # a ratio at tol

    def test_all_ratios_small(self):
        x = np.array([1.0])
        y = np.array([1.0 + 2e-6 * 1e-0])
        # crafted so each ratio is ~1e-6
        assert _one_row_met(x, y, 1.0, 1.0 + 2e-6, 1.0, 1.0 + 2e-6, tol=1e-5)

    def test_outer_value_minus_one(self):
        # |h| + 1 = 2, so the h-ratio is |-1 + 1e-5 - (-1)| / 2 = 5e-6 <= 1e-5,
        # while a shift of 3e-5 gives 1.5e-5 > 1e-5 (h + 1 = 0 would divide by zero)
        x = np.array([1.0])
        assert _one_row_met(x, x, 1.0, 1.0, -1.0, -1.0 + 1e-5, tol=1e-5)
        assert not _one_row_met(x, x, 1.0, 1.0, -1.0, -1.0 + 3e-5, tol=1e-5)

    def test_outer_value_minus_three(self):
        # |5 - (-3)| / (|-3| + 1) = 8 / 4 = 2 > 1e-5 (h + 1 = -2 made it -4 and passed)
        x = np.array([1.0])
        assert not _one_row_met(x, x, 1.0, 1.0, -3.0, 5.0, tol=1e-5)
        # |-3 + 2e-5 - (-3)| / 4 = 5e-6 <= 1e-5
        assert _one_row_met(x, x, 1.0, 1.0, -3.0, -3.0 + 2e-5, tol=1e-5)

    def test_negative_inner_value(self):
        # |f| + 1 = 4 at f = -3: the ratio 8 / 4 = 2 keeps the test from firing
        x = np.array([1.0])
        assert not _one_row_met(x, x, -3.0, 5.0, 1.0, 1.0, tol=1e-5)
        assert not _one_row_met(x, x, -1.0, 0.0, 1.0, 1.0, tol=0.4)  # 1 / 2 = 0.5
        assert _one_row_met(x, x, -1.0, 0.0, 1.0, 1.0, tol=0.5)

    @pytest.mark.parametrize("where", ["x", "f", "h"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_ratio_never_fires(self, where, bad):
        # nan - nan and inf - inf are NaN, so one ratio is NaN; max() dropped
        # a NaN that was not its first argument and fired
        vals = {"x": 1.0, "f": 1.0, "h": 1.0, where: bad}
        x = np.array([vals["x"]])
        with np.errstate(invalid="ignore"):
            assert not _one_row_met(x, x, vals["f"], vals["f"], vals["h"], vals["h"], tol=1e-5)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), rows=st.integers(2, 34),
           tol=st.sampled_from([1e-5, 1e-3, 0.5, 2.0]) | st.floats(0, 10))
    def test_rows_decide_as_one_round_tests(self, data, n, rows, tol):
        # Few distinct values, NaN and +-inf among them, so rows repeat and
        # the test fires on some rows and not on others.
        values = st.sampled_from([0.0, 1.0, 1.0 + 1e-6, -3.0, 1e300, math.nan, math.inf,
                                  -math.inf]) | st.floats(-10, 10)
        xs = data.draw(arrays(np.float64, (rows, n), elements=values))
        fs = data.draw(st.lists(values, min_size=rows, max_size=rows))
        hs = data.draw(st.lists(values, min_size=rows, max_size=rows))
        with np.errstate(all="ignore"):
            got = _tolerance_met(xs, _step_norms(xs), fs, hs, tol).tolist()
            expected = [stopping_criterion(xs[j], xs[j + 1], fs[j], fs[j + 1], hs[j], hs[j + 1],
                                           tol) for j in range(rows - 1)]
        assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(v=arrays(np.float64, st.integers(0, 40), elements=st.floats(width=64)),
           strided=st.booleans())
    def test_norm_bitwise_equals_linalg_norm(self, v, strided):
        # the reference stopping_criterion relies on dot_norm giving np.linalg.norm's bits
        if strided:
            v = v[::2]
        with np.errstate(over="ignore"):  # the drawn floats overflow the dot on purpose
            expected = float(np.linalg.norm(v))
            got = dot_norm(v)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", expected)


class TestRunSolver:
    def test_single_round_logged(self):
        prob = selection_1d_problem()
        rec = run_solver(prob, _schedule_1d(), "fism", np.array([4.0]), max_rounds=1)
        assert rec.rounds == 1
        assert rec.rows[0].k == 1
        assert rec.stop_reason == "max_rounds"

    def test_converges_to_selection_optimum(self):
        prob = selection_1d_problem()
        for method in ("fism", "irig"):
            rec = run_solver(prob, _schedule_1d(), method, np.array([-8.0]), 5000)
            assert abs(rec.final_x[0] - SELECTION_1D_OPTIMUM) <= 1e-2

    def test_bit_identical_repeats(self):
        prob = location_problem(3, 12, 4, partition_data(12, 3, CONTIGUOUS, seed=4))
        sched = StepSchedule(1, 0.8, 1, 0.1)
        x0 = np.array([1.0, -2.0, 3.0])
        a = _observed_iterates(prob, sched, "fism", x0, 50)
        b = _observed_iterates(prob, sched, "fism", x0, 50)
        assert len(a) == len(b) == 51
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
        rows_a = run_solver(prob, sched, "fism", x0, 50).rows
        rows_b = run_solver(prob, sched, "fism", x0, 50).rows
        assert [r.inner_value for r in rows_a] == [r.inner_value for r in rows_b]

    def test_iterates_feasible_from_round_two(self):
        prob = location_problem(3, 9, 6, partition_data(9, 3, CONTIGUOUS))
        sched = StepSchedule(5, 0.6, 1, 0.2)
        xs = _observed_iterates(prob, sched, "fism", np.array([40.0, -40.0, 0.0]), 30)
        assert len(xs) == 31
        for x in xs:  # includes the projected initial point
            assert prob.constraint.contains(x)

    def test_average_recurrence(self):
        prob = selection_1d_problem()
        sched = _schedule_1d()
        states = []
        rec = run_solver(prob, sched, "fism", np.array([4.0]), 200, observe=states.append)
        gammas = np.array([sched.at(k)[0] for k in range(1, rec.rounds + 1)])
        xs = np.array([s.x[0] for s in states[:-1]])  # starting iterates x_1..x_K
        direct = float(np.sum(gammas * xs) / np.sum(gammas))
        assert rec.final_avg_x[0] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("method", ["fism", "irig"])
    def test_logged_values_match_independent_objectives(self, method):
        prob = location_problem(3, 12, 5, partition_data(12, 3, CONTIGUOUS, seed=5))
        centers, radii, anchor = prob.inner.centers, prob.inner.radii, prob.outer.anchor
        sched = StepSchedule(1, 0.8, 1, 0.1)
        states = []
        rec = run_solver(prob, sched, method, np.array([4.0, -3.0, 2.0]), 30,
                         observe=states.append)
        for row, start, end in zip(rec.rows, states, states[1:]):
            avg = end.avg_num / end.avg_den
            assert row.inner_value == pytest.approx(
                balls_inner(start.x, centers, radii), rel=1e-12)
            assert row.inner_value_mean == row.inner_value / 12
            assert row.inner_value_avg_iterate == pytest.approx(
                balls_inner(avg, centers, radii), rel=1e-12)
            assert row.outer_value == pytest.approx(
                0.5 * float(np.sum((start.x - anchor) ** 2)), rel=1e-12)
            assert row.step_norm == float(np.linalg.norm(end.x - start.x))

    def test_tolerance_stop_records_reason(self):
        prob = selection_1d_problem()
        sched = StepSchedule(1, 0.8, 1, 0.1)
        rec = run_solver(prob, sched, "fism", np.array([0.9]), 100_000, tol=1e-3)
        assert rec.stop_reason == "tolerance"
        assert rec.rounds < 100_000

    def test_counter_accounting(self):
        prob = selection_1d_problem((3, 3))  # m = 6
        sched = StepSchedule(1, 0.55, 1, 0.4)
        fism = run_solver(prob, sched, "fism", np.array([2.0]), 40)
        irig = run_solver(prob, sched, "irig", np.array([2.0]), 40)
        assert fism.rows[-1].inner_subgrad_evals == 40 * 6
        assert fism.rows[-1].outer_subgrad_evals == 40
        assert irig.rows[-1].inner_subgrad_evals == 40 * 6
        assert irig.rows[-1].outer_subgrad_evals == 40 * 6

    def test_rejects_bad_arguments(self):
        prob = selection_1d_problem()
        with pytest.raises(ValueError):
            run_solver(prob, _schedule_1d(), "fism", np.array([0.0]), 0)
        with pytest.raises(ValueError):
            run_solver(prob, _schedule_1d(), "sgd", np.array([0.0]), 1)

    def test_observe_sees_initial_state_and_every_round(self):
        prob = selection_1d_problem()
        states = []
        rec = run_solver(prob, _schedule_1d(), "irig", np.array([40.0]), 5,
                         observe=states.append)
        assert [s.k for s in states] == [1, 2, 3, 4, 5, 6]
        assert np.array_equal(states[0].x, [10.0])  # projected onto the box
        assert np.array_equal(states[0].avg_num, [0.0]) and states[0].avg_den == 0.0
        assert states[-1].x.tobytes() == rec.final_x.tobytes()

    @pytest.mark.parametrize("method", [FISM, IRIG])
    def test_non_finite_value_stops_the_run(self, method):
        # iterates 4, 3.7, 3.54, then 3.43: the value at the end of round 3 is NaN
        rec = run_solver(_nan_below(3.5), _small_steps_1d(), method, np.array([4.0]), 100)
        assert rec.stop_reason == "non-finite"
        assert rec.rounds == 3
        assert all(math.isfinite(row.inner_value) for row in rec.rows)
        assert math.isnan(rec.final_inner_value) and math.isnan(rec.final_outer_value)

    @pytest.mark.parametrize("block", [1, 7, 32])
    def test_overflowing_total_time_raises_naming_its_round(self, monkeypatch, block):
        # 1e307 a round: the total after round 18 overflows, and a run recorded it
        # as Infinity. The recorded totals decide, so a 100-round run that stops
        # at round 3 passes.
        monkeypatch.setattr(solvers, "_BLOCK", block)
        costs = uniform_costs((1,), per_update=1e307)
        rec = run_solver(selection_1d_problem(), _schedule_1d(), FISM, np.array([4.0]), 17,
                         costs=costs)
        assert rec.rounds == 17 and math.isfinite(rec.rows[-1].total_time_units)
        rec = run_solver(_nan_below(3.5), _small_steps_1d(), FISM, np.array([4.0]), 100,
                         costs=costs)
        assert (rec.stop_reason, rec.rounds) == ("non-finite", 3)
        with pytest.raises(ValueError, match="total_time_units of round 18 is inf"):
            run_solver(selection_1d_problem(), _schedule_1d(), FISM, np.array([4.0]), 20,
                       costs=costs)

    def test_rejects_costs_for_other_client_sizes(self):
        prob = selection_1d_problem((2, 2))
        sched = StepSchedule(1, 0.55, 1, 0.4)
        for sizes in [(2,), (2, 1), (2, 2, 1)]:
            with pytest.raises(ValueError):
                run_solver(prob, sched, "fism", np.array([0.0]), 1,
                           costs=uniform_costs(sizes))


def _block_case(name):
    """(problem, schedule, initial point) of a small shipped problem family."""
    if name == "selection-1d":
        return selection_1d_problem(), _schedule_1d(), np.array([4.0])
    if name == "location":
        prob = location_problem(3, 12, 5, partition_data(12, 3, CONTIGUOUS, seed=5))
        return prob, StepSchedule(1, 0.8, 1, 0.1), np.array([4.0, -3.0, 2.0])
    ds, _ = make_synthetic_logistic(5, 40, margin=0.3, seed=8)
    prob = logistic_problem(ds, partition_data(40, 4, SHUFFLED, seed=8))
    return prob, StepSchedule(10, 0.8, 1, 0.1), np.full(5, 0.5)


def _reference_run(problem, sched, method, x_init, max_rounds, tol=None):
    """(rows without wall_clock_sec, states, final_avg_x, (final inner value,
    final outer value, stop reason)) from one kernel call per round, each
    state advanced one round at a time, and the metrics from one-row values
    calls: what run_solver records, without its block bookkeeping."""
    step = solvers._kernel(problem, method)
    m = problem.n_inner
    outer_per_round = 1 if method == FISM else m
    t_round = round_time(uniform_costs(problem.client_sizes), method)
    x = project_box(np.asarray(x_init, dtype=float), problem.constraint)
    state = RoundState(x, 1, np.zeros_like(x), 0.0)
    states, rows, inner_evals, outer_evals = [state], [], 0, 0
    stop_reason = "max_rounds"

    def one_row(objective, x):
        return float(objective.values(x[None])[0])

    f_cur, h_cur = one_row(problem.inner, state.x), one_row(problem.outer, state.x)
    total = 0.0
    for _ in range(max_rounds):
        gamma, lam = sched.at(state.k)
        nxt = RoundState(step(state.x, gamma, lam), state.k + 1, state.avg_num + gamma * state.x,
                         state.avg_den + gamma)
        f_next, h_next = one_row(problem.inner, nxt.x), one_row(problem.outer, nxt.x)
        f_avg = one_row(problem.inner, nxt.avg_num / nxt.avg_den)
        total += t_round
        inner_evals += m
        outer_evals += outer_per_round
        rows.append(RoundRow(state.k, f_cur, f_cur / m, f_avg, h_cur, dot_norm(nxt.x - state.x),
                             t_round, total, inner_evals, outer_evals, None))
        states.append(nxt)
        if not all(map(math.isfinite, (f_next, h_next, f_avg))):
            stop_reason = "non-finite"
        elif tol is not None and stopping_criterion(state.x, nxt.x, f_cur, f_next, h_cur,
                                                    h_next, tol):
            stop_reason = "tolerance"
        state, f_cur, h_cur = nxt, f_next, h_next
        if stop_reason != "max_rounds":
            break
    return rows, states, state.avg_num / state.avg_den, (f_cur, h_cur, stop_reason)


def _assert_matches_reference(monkeypatch, block, problem, sched, x0, method, rounds, tol=None):
    """run_solver at block length ``block`` records, bitwise, what
    ``_reference_run`` does; returns the record."""
    monkeypatch.setattr(solvers, "_BLOCK", block)
    observed = []
    rec = run_solver(problem, sched, method, x0, rounds, tol=tol, observe=observed.append)
    rows, states, final_avg, final = _reference_run(problem, sched, method, x0, rounds, tol)
    assert [repr(row._replace(wall_clock_sec=None)) for row in rec.rows] == list(map(repr, rows))
    assert all(type(row.wall_clock_sec) is float for row in rec.rows)
    assert rec.final_avg_x.tobytes() == final_avg.tobytes()
    assert rec.final_x.tobytes() == states[-1].x.tobytes()
    assert repr((rec.final_inner_value, rec.final_outer_value, rec.stop_reason)) == repr(final)

    def fields(s):
        return (s.k, s.x.tobytes(), s.avg_num.tobytes(), repr(s.avg_den))
    assert list(map(fields, observed)) == list(map(fields, states))
    return rec


class TestBlockLength:
    """Rounds run in blocks between metric passes; the block length must not
    show in anything a run returns or reports: each block length gives the
    record of one round at a time (``_reference_run``)."""

    @pytest.mark.parametrize("method", [FISM, IRIG])
    @pytest.mark.parametrize("name", ["selection-1d", "location", "logistic-synthetic"])
    def test_fixed_rounds(self, monkeypatch, method, name):
        # lengths TestBlockBookkeeping does not take: 2, the whole run, past it
        for block in (2, 75, 100):
            rec = _assert_matches_reference(monkeypatch, block, *_block_case(name), method, 75)
            assert rec.rounds == 75 and rec.stop_reason == "max_rounds"

    @pytest.mark.parametrize("method", [FISM, IRIG])
    @pytest.mark.parametrize("threshold, stop_round", [(3.5, 3), (2.2, 55)])
    def test_non_finite_stop_mid_block(self, monkeypatch, method, threshold, stop_round):
        for block in (1, 7, 32):
            rec = _assert_matches_reference(monkeypatch, block, _nan_below(threshold),
                                            _small_steps_1d(), np.array([4.0]), method, 500)
            assert (rec.stop_reason, rec.rounds) == ("non-finite", stop_round)

    @pytest.mark.parametrize("method", [FISM, IRIG])
    def test_tolerance_stop_mid_block(self, monkeypatch, method):
        # 1383 rounds = 7 * 197 + 4 = 32 * 43 + 7: the stop falls inside a block
        for block in (1, 7, 32):
            rec = _assert_matches_reference(monkeypatch, block, selection_1d_problem(),
                                            StepSchedule(1, 0.8, 1, 0.1), np.array([0.9]),
                                            method, 100_000, tol=1e-3)
            assert (rec.stop_reason, rec.rounds) == ("tolerance", 1383)

    def test_tolerance_run_computes_under_a_block_past_its_stop(self, monkeypatch):
        calls = {"n": 0}
        make_kernel = solvers._kernel

        def counted_kernel(problem, method):
            step = make_kernel(problem, method)

            def counted(*args):
                calls["n"] += 1
                return step(*args)
            return counted

        monkeypatch.setattr(solvers, "_kernel", counted_kernel)
        prob = selection_1d_problem()
        sched = StepSchedule(1, 0.8, 1, 0.1)
        rec = run_solver(prob, sched, FISM, np.array([0.9]), 100_000, tol=1e-3)
        assert rec.stop_reason == "tolerance"
        assert 0 <= calls["n"] - rec.rounds < _BLOCK

    @pytest.mark.parametrize("nan_below, tol", [(3.5, None), (None, None), (None, 0.08)],
                             ids=["3.5", "None", "tol"])
    def test_error_past_a_stop_is_dropped(self, monkeypatch, nan_below, tol):
        # iterates 4, 3.7, 3.54, 3.43, 3.35. The closure raises on a NaN point
        # and below 3.4. With NaN below 3.5 the run stops at round 3: rounds
        # 4 and 5 of the block reach a NaN point and raise, and are dropped.
        # So they are at tol = 0.08, which round 3 meets first (its largest
        # ratio, the outer one, is 0.075; round 2's is 0.106). Without
        # either, round 4's value at 3.35 raises as it would alone.
        def inner(x):
            if math.isnan(x[0]) or x[0] < 3.4:
                raise ArithmeticError("outside the closure's domain")
            if nan_below is not None and x[0] < nan_below:
                return EvalResult(math.nan, np.full_like(x, math.nan))
            return ball_dist_eval(x, np.array([0.5]), 0.5)

        prob = ProblemSpec.from_oracles(
            clients=[[inner]],
            outer=lambda x: outer_quad_anchor_eval(x, np.array([2.0])),
            constraint=BoxConstraint.symmetric(1, 10.0), mu_H=1.0)
        args = (prob, _small_steps_1d(), np.array([4.0]), FISM, 100)
        if nan_below is None and tol is None:
            with pytest.raises(ArithmeticError):
                run_solver(prob, _small_steps_1d(), FISM, np.array([4.0]), 100)
            return
        stop_reason = "non-finite" if tol is None else "tolerance"
        for block in (1, 7, 32):
            rec = _assert_matches_reference(monkeypatch, block, *args, tol=tol)
            assert (rec.stop_reason, rec.rounds) == (stop_reason, 3)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40) | st.sampled_from([100, 784, 1000]),
           rows=st.integers(2, 34))
    def test_step_norms_bitwise_equal_norm(self, data, n, rows):
        if n > 40:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            xs = 10.0 * rng.standard_normal((rows, n))
        else:
            xs = data.draw(arrays(np.float64, (rows, n), elements=st.floats(-1e6, 1e6)))
        expected = [dot_norm(xs[j + 1] - xs[j]) for j in range(rows - 1)]
        got = _step_norms(xs)
        assert struct.pack(f"<{rows - 1}d", *got) == struct.pack(f"<{rows - 1}d", *expected)


class TestBlockBookkeeping:
    """run_solver takes the running averages, counters, stop row and rows
    of a block of rounds at once. Every record must carry the bits of a
    loop of single rounds."""

    @pytest.mark.parametrize("block", [1, 7, 32])
    @pytest.mark.parametrize("method", [FISM, IRIG])
    @pytest.mark.parametrize("name", ["selection-1d", "location", "logistic-synthetic"])
    def test_fixed_rounds(self, monkeypatch, block, method, name):
        # 75 = 7*10 + 5 = 32*2 + 11: the last block is a short one
        rec = _assert_matches_reference(monkeypatch, block, *_block_case(name), method, 75)
        assert rec.rounds == 75

    @pytest.mark.parametrize("block", [1, 7, 32])
    @pytest.mark.parametrize("method", [FISM, IRIG])
    def test_non_finite_stop_mid_block(self, monkeypatch, block, method):
        rec = _assert_matches_reference(monkeypatch, block, _nan_below(2.2), _small_steps_1d(),
                                        np.array([4.0]), method, 500)
        assert (rec.stop_reason, rec.rounds) == ("non-finite", 55)

    @pytest.mark.parametrize("method", [FISM, IRIG])
    def test_non_finite_stop_raises_no_numpy_warning(self, method):
        # gamma1 = 1e308 overflows in round 1. The run classifies the stop
        # itself, so numpy's floating-point warnings stay inside it.
        args = (selection_1d_problem(), StepSchedule(1e308, 0.55, 1, 0.4),
                method, np.array([3.0]), 40)
        with np.errstate(all="ignore"):
            rows, _, _, _ = _reference_run(*args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = run_solver(*args)
        assert rec.stop_reason == "non-finite"
        assert [repr(row._replace(wall_clock_sec=None)) for row in rec.rows] == [
            repr(row) for row in rows]

    @pytest.mark.parametrize("method", [FISM, IRIG])
    def test_tolerance_stop(self, monkeypatch, method):
        # FISM stops inside a block of 7 and of 32 (929 rounds), IRIG inside
        # a block of 32 (840 rounds)
        for block in (1, 7, 32):
            rec = _assert_matches_reference(monkeypatch, block, *_block_case("location"),
                                            method, 5000, tol=1e-4)
            assert rec.stop_reason == "tolerance" and rec.rounds == {FISM: 929, IRIG: 840}[method]


class TestEquivalenceProperty:
    """C5 on random instances: at S = m = 1 the two methods coincide bitwise,
    and so do their records: rows (counters included), final values and
    stop reason."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]),
           gamma1=st.floats(0.05, 5.0), a=st.floats(0.0, 1.0),
           lambda1=st.floats(0.05, 5.0), b=st.floats(0.0, 1.0))
    def test_fism_equals_irig_at_one_function(self, data, dim, gamma1, a, lambda1, b):
        coord = st.floats(-12.0, 12.0)
        vec = st.lists(coord, min_size=dim, max_size=dim).map(np.array)
        center, anchor, x0 = data.draw(vec), data.draw(vec), data.draw(vec)
        radius = data.draw(st.floats(0.1, 5.0))
        prob = ProblemSpec(inner=BallDistances(center[None, :], [radius]),
                           outer=QuadAnchor(anchor), clients=((0,),),
                           constraint=BoxConstraint.symmetric(dim, 10.0), mu_H=1.0)
        sched = StepSchedule(gamma1, a, lambda1, b)
        runs = []
        for method in (FISM, IRIG):
            states = []
            rec = run_solver(prob, sched, method, x0, 50, observe=states.append)
            runs.append(([s.x.tobytes() for s in states], rec.final_avg_x.tobytes(),
                         [repr(row._replace(wall_clock_sec=None)) for row in rec.rows],
                         repr((rec.final_inner_value, rec.final_outer_value, rec.stop_reason))))
        assert len(runs[0][0]) == 51
        assert runs[0] == runs[1]


class TestReferenceSolve:
    def test_zero_inner_returns_anchor(self):
        anchor = np.array([1.5, -2.5])
        prob = ProblemSpec(inner=OracleFamily([zero_oracle()]),
                           outer=QuadAnchor(anchor), clients=((0,),),
                           constraint=BoxConstraint.symmetric(2, 10.0), mu_H=1.0)
        out = reference_solve(prob, lam=0.3, iters=2000, seed=0)
        assert out == pytest.approx(anchor, abs=1e-4)

    def test_matches_1d_grid_oracle(self):
        prob = selection_1d_problem()
        grid = grid_min_selection_composite(0.01)
        out = reference_solve(prob, lam=0.01, iters=50_000, seed=7)
        assert abs(out[0] - grid) <= 5e-2
        assert 0.9 <= out[0] <= 1.0 + 1e-9

    def test_regularization_path_approaches_optimum(self):
        prob = selection_1d_problem()
        errs = []
        for lam, iters in [(0.1, 500), (0.01, 10_000), (0.001, 300_000)]:
            out = reference_solve(prob, lam, iters, seed=7)
            grid = grid_min_selection_composite(lam)
            assert abs(out[0] - grid) <= 5e-2
            errs.append(abs(out[0] - SELECTION_1D_OPTIMUM))
        assert errs[0] > errs[1] > errs[2]

    def test_rejects_bad_arguments(self):
        prob = selection_1d_problem()
        with pytest.raises(ValueError):
            reference_solve(prob, lam=0.0, iters=10)
        with pytest.raises(ValueError):
            reference_solve(prob, lam=0.1, iters=0)


@st.composite
def client_sizes(draw):
    """S in 2..8 client sizes: all equal, balanced (differing by one, in any
    order) or arbitrary."""
    s = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["equal", "balanced", "arbitrary"]))
    if kind == "equal":
        return (draw(st.integers(1, 6)),) * s
    if kind == "balanced":
        base = draw(st.integers(1, 5))
        return tuple(base + draw(st.integers(0, 1)) for _ in range(s))
    return tuple(draw(st.lists(st.integers(1, 7), min_size=s, max_size=s)))


def _lane_problem(kind, sizes, seed, shuffled):
    """A ball-distance or logistic problem over random data whose clients
    hold ``sizes`` indices, contiguous or shuffled."""
    rng = np.random.default_rng(seed)
    m, n = sum(sizes), int(rng.choice([1, 3, 20]))
    clients = contiguous_clients(sizes)
    if shuffled:
        perm = rng.permutation(m).tolist()
        clients = tuple(tuple(perm[i] for i in group) for group in clients)
    rows = rng.uniform(-3.0, 3.0, (m, n))
    if kind == "balls":
        inner, outer = BallDistances(rows, rng.uniform(0.2, 1.5, m)), QuadAnchor(rows[0])
    else:
        inner, outer = LogisticLosses(rows, rng.choice([-1.0, 1.0], m)), L1Quad()
    return ProblemSpec(inner=inner, outer=outer, clients=clients,
                       constraint=BoxConstraint.symmetric(n, 2.0), mu_H=1.0)


class TestLaneRound:
    """A FISM run steps the clients of a round together as lanes. Every round
    must carry the bits of one client_local_pass per client, summed left to
    right in ascending client index, and must write to nothing it was given."""

    @staticmethod
    def _observed_one_round_blocks(prob, x0, rounds):
        # One round per block, so each state is observed, and its iterate
        # copied, before the next round steps from it.
        sched = StepSchedule(1, 0.55, 1, 0.4)
        observed = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_BLOCK", 1)
            run_solver(prob, sched, FISM, x0, rounds,
                       observe=lambda state: observed.append((state, state.x.tobytes())))
        assert len(observed) == rounds + 1
        assert all(state.x.tobytes() == x_bytes for state, x_bytes in observed)
        return sched, [state for state, _ in observed]

    @classmethod
    def _rounds_match_chained(cls, prob, x0, rounds=4):
        sched, states = cls._observed_one_round_blocks(prob, x0, rounds)
        for state, nxt in zip(states, states[1:]):
            assert nxt.x.tobytes() == chained_client_passes(state, sched, prob).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(sizes=client_sizes(), kind=st.sampled_from(["balls", "logistic"]),
           seed=st.integers(0, 2**32 - 1), shuffled=st.booleans())
    def test_bitwise_equals_chained_client_passes(self, sizes, kind, seed, shuffled):
        prob = _lane_problem(kind, sizes, seed, shuffled)
        x0 = np.random.default_rng(seed + 1).uniform(-3.0, 3.0, prob.dimension)
        self._rounds_match_chained(prob, x0)

    @pytest.mark.parametrize("sizes", [(1, 3, 2), (2, 1), (1, 1, 4), (3, 3, 2, 2), (2, 2, 3, 3)])
    def test_unequal_sizes_selection_and_closures(self, sizes):
        self._rounds_match_chained(selection_1d_problem(sizes), np.array([4.0]), rounds=6)
        offsets = iter(np.linspace(-0.5, 0.5, sum(sizes)))
        clients = [[(lambda x, c=np.array([0.5 + next(offsets)]): ball_dist_eval(x, c, 0.5))
                    for _ in range(size)] for size in sizes]
        prob = ProblemSpec.from_oracles(
            clients=clients,
            outer=lambda x: outer_quad_anchor_eval(x, np.array([2.0])),
            constraint=BoxConstraint.symmetric(1, 10.0), mu_H=1.0)
        self._rounds_match_chained(prob, np.array([4.0]), rounds=6)

    def test_lane_layout(self):
        # lanes by descending client size, ties by index; lane_of[c] is client c's lane
        lane_of, blocks = solvers._lane_plan(selection_1d_problem((1, 3, 2)).clients)
        assert lane_of == (2, 0, 1)
        assert [(k, rows.tolist()) for k, rows in blocks] == [(3, [[1, 4, 0]]), (2, [[2, 5]]),
                                                              (1, [[3]])]
        # a block without rows is left out: here the one lane 0 would step on alone
        lane_of, blocks = solvers._lane_plan(selection_1d_problem((2, 3, 3)).clients)
        assert lane_of == (2, 0, 1)
        assert [(k, rows.tolist()) for k, rows in blocks] == [(3, [[2, 5, 0], [3, 6, 1]]),
                                                              (2, [[4, 7]])]
        lane_of, blocks = solvers._lane_plan(((5, 1), (0,), (2, 3, 4)))
        assert lane_of == (1, 2, 0)
        assert [(k, rows.tolist()) for k, rows in blocks] == [(3, [[2, 5, 0]]), (2, [[3, 1]]),
                                                              (1, [[4]])]
        lane_of, blocks = solvers._lane_plan(contiguous_clients((2,) * 8))
        assert lane_of == tuple(range(8))
        assert [(k, rows.tolist()) for k, rows in blocks] == [
            (8, [[0, 2, 4, 6, 8, 10, 12, 14], [1, 3, 5, 7, 9, 11, 13, 15]])]

    @pytest.mark.parametrize("kind", ["balls", "logistic"])
    def test_round_leaves_its_inputs_unchanged(self, kind):
        prob = _lane_problem(kind, (3, 2, 3), seed=5, shuffled=True)
        arrays_before = [a.copy() for a in vars(prob.inner).values()
                         if isinstance(a, np.ndarray)]
        lo, hi = prob.constraint.lo.copy(), prob.constraint.hi.copy()
        self._observed_one_round_blocks(prob, np.full(prob.dimension, 0.5), 3)
        arrays_after = [a for a in vars(prob.inner).values() if isinstance(a, np.ndarray)]
        assert len(arrays_after) == 2
        assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays_before, arrays_after))
        assert (prob.constraint.lo.tobytes(), prob.constraint.hi.tobytes()) == (lo.tobytes(),
                                                                                 hi.tobytes())
