import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (SELECTION_1D_OPTIMUM, abs_oracle, ball_dist_eval, balls_inner,
                     chained_client_passes, counting, grid_min_selection_composite,
                     outer_quad_anchor_eval, reference_solve, zero_oracle)

from fedbilevel import solvers
from fedbilevel.data import make_location_instance, make_synthetic_logistic
from fedbilevel.federation import (CONTIGUOUS, FISM, IRIG, SHUFFLED, partition_data,
                                   round_time, uniform_costs)
from fedbilevel.instances import location_problem, logistic_problem, selection_1d_problem
from fedbilevel.metrics import RoundRow
from fedbilevel.oracles import (BallDistances, EvalResult, L1Quad, LogisticLosses, OracleFamily,
                                QuadAnchor, project_box)
from fedbilevel.problem import (BoxConstraint, ProblemSpec, StepSchedule, contiguous_clients,
                                make_schedule)
from fedbilevel.solvers import (_BLOCK, RoundState, _norm, _step_norms, client_local_pass,
                                run_solver, stopping_criterion, weighted_average)


def _schedule_1d():
    return make_schedule(1, 0.55, 1, 0.4, mu_H=1, m=1)


def _small_steps_1d():
    return make_schedule(0.1, 0.55, 1, 0.4, mu_H=1, m=1)


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
        dimension=1, clients=[[poisoned(lambda x: ball_dist_eval(x, np.array([0.5]), 0.5))]],
        outer=poisoned(lambda x: outer_quad_anchor_eval(x, np.array([2.0]))),
        constraint=BoxConstraint.symmetric(1, 10.0), mu_H=1.0)


def _observed_states(*args, **kwargs):
    """The states run_solver observes: the projected initial one, then one
    per round."""
    states = []
    run_solver(*args, observe=states.append, **kwargs)
    return states


def _observed_iterates(*args, **kwargs):
    return [state.x for state in _observed_states(*args, **kwargs)]


class TestClientLocalPass:
    def test_single_step_hand_computed(self):
        # P[1 - 0.5*1 - (0.5*1/1)*1] = P[0] = 0 on the box [-1, 1]
        box = BoxConstraint.symmetric(1, 1.0)
        res = client_local_pass(np.array([1.0]), np.array([1.0]), gamma=0.5, lam=1.0,
                                m_total=1, inner=OracleFamily([abs_oracle()]),
                                indices=(0,), box=box)
        assert np.array_equal(res, [0.0])

    def test_zero_stepsize_is_identity(self):
        box = BoxConstraint.symmetric(1, 1.0)
        res = client_local_pass(np.array([1.0]), np.array([1.0]), gamma=0.0, lam=1.0,
                                m_total=1, inner=OracleFamily([abs_oracle()]),
                                indices=(0,), box=box)
        assert np.array_equal(res, [1.0])

    def test_only_frozen_term_acts(self):
        # two zero inner functions: 1 - 2 * (0.25 * 1 / 2) * 1 = 0.75
        box = BoxConstraint.symmetric(1, 1.0)
        res = client_local_pass(np.array([1.0]), np.array([1.0]), gamma=0.25, lam=1.0,
                                m_total=2, inner=OracleFamily([zero_oracle(), zero_oracle()]),
                                indices=(0, 1), box=box)
        assert res == pytest.approx([0.75], abs=1e-15)

    def test_rejects_empty_client(self):
        box = BoxConstraint.symmetric(1, 1.0)
        with pytest.raises(ValueError):
            client_local_pass(np.array([1.0]), np.array([1.0]), gamma=0.1, lam=1.0,
                              m_total=1, inner=OracleFamily([abs_oracle()]), indices=(),
                              box=box)

    def test_rejects_dimension_mismatch(self):
        box = BoxConstraint.symmetric(1, 1.0)
        with pytest.raises(ValueError):
            client_local_pass(np.array([1.0]), np.array([1.0, 2.0]), gamma=0.1, lam=1.0,
                              m_total=1, inner=OracleFamily([abs_oracle()]), indices=(0,),
                              box=box)

    def test_eval_counts(self):
        box = BoxConstraint.symmetric(1, 1.0)
        fn, calls = counting(abs_oracle())
        client_local_pass(np.array([0.5]), np.array([1.0]), gamma=0.1, lam=1.0,
                          m_total=3, inner=OracleFamily([fn, fn, fn]), indices=(0, 1, 2),
                          box=box)
        assert calls["n"] == 3



class TestFismRound:
    def test_single_client_matches_local_pass(self):
        prob = selection_1d_problem()
        sched = _schedule_1d()
        x0 = np.array([4.0])
        gamma, lam = sched.at(1)
        x1 = solvers._fism_kernel(prob)(x0, gamma, lam)
        direct = client_local_pass(x0, prob.outer.subgrad(x0), gamma, lam, 1, prob.inner,
                                   prob.clients[0], prob.constraint)
        assert np.array_equal(x1, direct)
        state = _observed_states(prob, sched, FISM, x0, 1)[1]
        assert state.x.tobytes() == x1.tobytes()
        assert state.k == 2
        assert (state.inner_evals, state.outer_evals) == (1, 1)

    def test_identical_clients_average_to_member(self):
        prob = selection_1d_problem((1, 1))
        sched = make_schedule(1, 0.55, 1, 0.4, mu_H=1, m=2)
        x0 = np.array([4.0])
        gamma, lam = sched.at(1)
        x1 = solvers._fism_kernel(prob)(x0, gamma, lam)
        direct = client_local_pass(x0, prob.outer.subgrad(x0), gamma, lam, 2, prob.inner,
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
        prob = ProblemSpec.from_oracles(dimension=1, clients=wrapped_clients, outer=outer,
                                        constraint=BoxConstraint.symmetric(1, 10.0), mu_H=1.0)
        sched = make_schedule(1, 0.55, 1, 0.4, mu_H=1, m=4)
        # The kernel alone: a run would add the metrics' outer evaluations.
        step = solvers._fism_kernel(prob)
        x = np.array([3.0])
        for k in range(1, 6):
            x = step(x, *sched.at(k))
        assert outer_calls["n"] == 5  # exactly one outer evaluation per round
        assert sum(c["n"] for c in inner_counters) == 5 * 4


class TestIrigRound:
    def test_matches_fism_for_single_function(self):
        prob = selection_1d_problem()
        sched = _schedule_1d()
        x0 = np.array([4.0])
        gamma, lam = sched.at(1)
        a = solvers._fism_kernel(prob)(x0, gamma, lam)
        b = solvers._irig_kernel(prob)(x0, gamma, lam)
        assert a.tobytes() == b.tobytes()
        state = _observed_states(prob, sched, IRIG, x0, 1)[1]
        assert state.x.tobytes() == b.tobytes()
        assert (state.inner_evals, state.outer_evals) == (1, 1)

    def test_zero_stepsize_is_identity(self):
        # The kernel alone: a run's weighted average is undefined at gamma = 0.
        prob = selection_1d_problem((3,))
        x0 = np.array([4.0])
        assert np.array_equal(solvers._irig_kernel(prob)(x0, 0.0, 1.0), x0)

    def test_global_order_and_counts(self):
        prob = selection_1d_problem((2, 2))
        sched = make_schedule(1, 0.55, 1, 0.4, mu_H=1, m=4)
        state = _observed_states(prob, sched, IRIG, np.array([3.0]), 1)[1]
        assert (state.inner_evals, state.outer_evals) == (4, 4)


class TestClosureSubgradientShape:
    """A closure's subgradient of the wrong shape raises ValueError on every
    round path, instead of broadcasting against the iterate."""

    @pytest.mark.parametrize("method,sizes", [(FISM, (2,)), (FISM, (1, 1)), (IRIG, (1, 1))],
                             ids=["fism-S1", "fism-S2", "irig"])
    @pytest.mark.parametrize("wrong", ["inner", "outer"])
    def test_wrong_shape_raises(self, method, sizes, wrong):
        def ball(x):
            res = ball_dist_eval(x, np.zeros(2), 0.5)
            return res._replace(subgrad=res.subgrad[:1]) if wrong == "inner" else res

        def outer(x):
            res = outer_quad_anchor_eval(x, np.array([2.0, 1.0]))
            return res._replace(subgrad=res.subgrad[:1]) if wrong == "outer" else res

        prob = ProblemSpec.from_oracles(
            dimension=2, clients=[[ball] * size for size in sizes], outer=outer,
            constraint=BoxConstraint.symmetric(2, 10.0), mu_H=1.0)
        sched = make_schedule(1, 0.55, 1, 0.4, mu_H=1, m=2)
        with pytest.raises(ValueError):
            run_solver(prob, sched, method, np.array([3.0, -1.0]), 5)


class TestWeightedAverage:
    def test_plain_mean_under_constant_weights(self):
        state = RoundState(x=np.array([3.0]), k=3, avg_num=np.array([4.0]),
                           avg_den=2.0, inner_evals=0, outer_evals=0)
        assert np.array_equal(weighted_average(state), [2.0])

    def test_single_round_returns_first_iterate(self):
        prob = selection_1d_problem()
        state = _observed_states(prob, _schedule_1d(), FISM, np.array([4.0]), 1)[1]
        assert np.array_equal(weighted_average(state), [4.0])

    def test_weighted_mean(self):
        # weights (2, 1) on iterates (0, 3): (2*0 + 1*3) / 3 = 1
        state = RoundState(x=np.array([9.0]), k=3, avg_num=np.array([3.0]),
                           avg_den=3.0, inner_evals=0, outer_evals=0)
        assert np.array_equal(weighted_average(state), [1.0])

    def test_undefined_before_first_round(self):
        with pytest.raises(ValueError):
            weighted_average(RoundState.initial(np.array([1.0])))


class TestStoppingCriterion:
    def test_no_change_fires(self):
        x = np.array([1.0, 2.0])
        assert stopping_criterion(x, x, 1.0, 1.0, 2.0, 2.0, tol=1e-5)

    def test_step_ratio_exceeds(self):
        x = np.zeros(1)
        y = np.array([2e-5])  # ||dx|| / (||x|| + 1) = 2e-5 > 1e-5
        assert not stopping_criterion(x, y, 0.0, 0.0, 0.0, 0.0, tol=1e-5)

    def test_all_ratios_small(self):
        x = np.array([1.0])
        y = np.array([1.0 + 2e-6 * 1e-0])
        # crafted so each ratio is ~1e-6
        assert stopping_criterion(x, y, 1.0, 1.0 + 2e-6, 1.0, 1.0 + 2e-6, tol=1e-5)

    def test_outer_value_minus_one(self):
        # |h| + 1 = 2, so the h-ratio is |-1 + 1e-5 - (-1)| / 2 = 5e-6 <= 1e-5,
        # while a shift of 3e-5 gives 1.5e-5 > 1e-5 (h + 1 = 0 would divide by zero)
        x = np.array([1.0])
        assert stopping_criterion(x, x, 1.0, 1.0, -1.0, -1.0 + 1e-5, tol=1e-5)
        assert not stopping_criterion(x, x, 1.0, 1.0, -1.0, -1.0 + 3e-5, tol=1e-5)

    def test_outer_value_minus_three(self):
        # |5 - (-3)| / (|-3| + 1) = 8 / 4 = 2 > 1e-5 (h + 1 = -2 made it -4 and passed)
        x = np.array([1.0])
        assert not stopping_criterion(x, x, 1.0, 1.0, -3.0, 5.0, tol=1e-5)
        # |-3 + 2e-5 - (-3)| / 4 = 5e-6 <= 1e-5
        assert stopping_criterion(x, x, 1.0, 1.0, -3.0, -3.0 + 2e-5, tol=1e-5)

    def test_negative_inner_value(self):
        # |f| + 1 = 4 at f = -3: the ratio 8 / 4 = 2 keeps the test from firing
        x = np.array([1.0])
        assert not stopping_criterion(x, x, -3.0, 5.0, 1.0, 1.0, tol=1e-5)
        assert not stopping_criterion(x, x, -1.0, 0.0, 1.0, 1.0, tol=0.4)  # 1 / 2 = 0.5
        assert stopping_criterion(x, x, -1.0, 0.0, 1.0, 1.0, tol=0.5)

    @settings(max_examples=300, deadline=None)
    @given(v=arrays(np.float64, st.integers(0, 40), elements=st.floats(width=64)),
           strided=st.booleans())
    def test_norm_bitwise_equals_linalg_norm(self, v, strided):
        # stopping_criterion relies on _norm giving np.linalg.norm's bits
        if strided:
            v = v[::2]
        with np.errstate(over="ignore"):  # the drawn floats overflow the dot on purpose
            expected = float(np.linalg.norm(v))
            got = _norm(v)
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
        inst = make_location_instance(3, 12, seed=4)
        prob = location_problem(inst, partition_data(12, 3, CONTIGUOUS, seed=4))
        sched = make_schedule(1, 0.8, 1, 0.1, mu_H=1, m=12)
        x0 = np.array([1.0, -2.0, 3.0])
        a = _observed_iterates(prob, sched, "fism", x0, 50, seed=1)
        b = _observed_iterates(prob, sched, "fism", x0, 50, seed=1)
        assert len(a) == len(b) == 51
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
        rows_a = run_solver(prob, sched, "fism", x0, 50, seed=1).rows
        rows_b = run_solver(prob, sched, "fism", x0, 50, seed=1).rows
        assert [r.inner_value for r in rows_a] == [r.inner_value for r in rows_b]

    def test_iterates_feasible_from_round_two(self):
        inst = make_location_instance(3, 9, seed=6)
        prob = location_problem(inst, partition_data(9, 3, CONTIGUOUS))
        sched = make_schedule(5, 0.6, 1, 0.2, mu_H=1, m=9)
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
        inst = make_location_instance(3, 12, seed=5)
        prob = location_problem(inst, partition_data(12, 3, CONTIGUOUS, seed=5))
        sched = make_schedule(1, 0.8, 1, 0.1, mu_H=1, m=12)
        states = []
        rec = run_solver(prob, sched, method, np.array([4.0, -3.0, 2.0]), 30,
                         observe=states.append)
        for row, start, end in zip(rec.rows, states, states[1:]):
            avg = end.avg_num / end.avg_den
            assert row.inner_value == pytest.approx(
                balls_inner(start.x, inst.centers, inst.radii), rel=1e-12)
            assert row.inner_value_mean == row.inner_value / 12
            assert row.inner_value_avg_iterate == pytest.approx(
                balls_inner(avg, inst.centers, inst.radii), rel=1e-12)
            assert row.outer_value == pytest.approx(
                0.5 * float(np.sum((start.x - inst.anchor) ** 2)), rel=1e-12)
            assert row.step_norm == float(np.linalg.norm(end.x - start.x))

    def test_tolerance_stop_records_reason(self):
        prob = selection_1d_problem()
        sched = make_schedule(1, 0.8, 1, 0.1, mu_H=1, m=1)
        rec = run_solver(prob, sched, "fism", np.array([0.9]), 100_000, tol=1e-3)
        assert rec.stop_reason == "tolerance"
        assert rec.rounds < 100_000

    def test_counter_accounting(self):
        prob = selection_1d_problem((3, 3))  # m = 6
        sched = make_schedule(1, 0.55, 1, 0.4, mu_H=1, m=6)
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
        assert states[-1].x.tobytes() == rec.final_x.tobytes()

    @pytest.mark.parametrize("method", [FISM, IRIG])
    def test_non_finite_value_stops_the_run(self, method):
        # iterates 4, 3.7, 3.54, then 3.43: the value at the end of round 3 is NaN
        rec = run_solver(_nan_below(3.5), _small_steps_1d(), method, np.array([4.0]), 100)
        assert rec.stop_reason == "non-finite"
        assert rec.rounds == 3
        assert all(math.isfinite(row.inner_value) for row in rec.rows)
        assert math.isnan(rec.final_inner_value) and math.isnan(rec.final_outer_value)

    def test_rejects_costs_for_other_client_sizes(self):
        prob = selection_1d_problem((2, 2))
        sched = make_schedule(1, 0.55, 1, 0.4, mu_H=1, m=4)
        for sizes in [(2,), (2, 1), (2, 2, 1)]:
            with pytest.raises(ValueError):
                run_solver(prob, sched, "fism", np.array([0.0]), 1,
                           costs=uniform_costs(sizes))


def _block_case(name):
    """(problem, schedule, initial point) of a small shipped problem family."""
    if name == "selection-1d":
        return selection_1d_problem(), _schedule_1d(), np.array([4.0])
    if name == "location":
        inst = make_location_instance(3, 12, seed=5)
        prob = location_problem(inst, partition_data(12, 3, CONTIGUOUS, seed=5))
        return prob, make_schedule(1, 0.8, 1, 0.1, mu_H=1, m=12), np.array([4.0, -3.0, 2.0])
    ds, _ = make_synthetic_logistic(5, 40, margin=0.3, seed=8)
    prob = logistic_problem(ds, partition_data(40, 4, SHUFFLED, seed=8))
    return prob, make_schedule(10, 0.8, 1, 0.1, mu_H=1, m=40), np.full(5, 0.5)


class TestBlockLength:
    """Rounds run in blocks between metric passes; the block length must not
    show in anything a run returns or reports."""

    @staticmethod
    def _runs(monkeypatch, *args, **kwargs):
        # (record, observed states, canonical bytes) per block length 1, 7, 32
        out = []
        for block in (1, 7, 32):
            monkeypatch.setattr(solvers, "_BLOCK", block)
            states = []
            rec = run_solver(*args, observe=states.append, **kwargs)
            canonical = (repr([row._replace(wall_clock_sec=None) for row in rec.rows]),
                         rec.final_x.tobytes(), rec.final_avg_x.tobytes(),
                         repr((rec.final_inner_value, rec.final_outer_value)),
                         rec.stop_reason,
                         [(s.k, s.x.tobytes(), s.avg_num.tobytes(), s.avg_den)
                          for s in states])
            out.append((rec, states, canonical))
        return out

    @pytest.mark.parametrize("method", [FISM, IRIG])
    @pytest.mark.parametrize("name", ["selection-1d", "location", "logistic-synthetic"])
    def test_fixed_rounds(self, monkeypatch, method, name):
        prob, sched, x0 = _block_case(name)
        runs = self._runs(monkeypatch, prob, sched, method, x0, 75)  # 75 = 7*10 + 5 = 32*2 + 11
        assert runs[0][2] == runs[1][2] == runs[2][2]
        rec, states, _ = runs[2]
        assert rec.rounds == 75 and rec.stop_reason == "max_rounds"
        assert [s.k for s in states] == list(range(1, 77))

    @pytest.mark.parametrize("method", [FISM, IRIG])
    @pytest.mark.parametrize("threshold, stop_round", [(3.5, 3), (2.2, 55)])
    def test_non_finite_stop_mid_block(self, monkeypatch, method, threshold, stop_round):
        runs = self._runs(monkeypatch, _nan_below(threshold), _small_steps_1d(), method,
                          np.array([4.0]), 500)
        assert runs[0][2] == runs[1][2] == runs[2][2]
        for rec, states, _ in runs:
            assert rec.stop_reason == "non-finite" and rec.rounds == stop_round
            # observe saw the recorded rounds only; the run returns the last one
            assert [s.k for s in states] == list(range(1, stop_round + 2))
            assert rec.final_x.tobytes() == states[-1].x.tobytes()

    def test_tolerance_run_computes_only_recorded_rounds(self, monkeypatch):
        calls = {"n": 0}
        make_kernel = solvers._fism_kernel

        def counted_kernel(problem):
            step = make_kernel(problem)

            def counted(*args):
                calls["n"] += 1
                return step(*args)
            return counted

        monkeypatch.setattr(solvers, "_fism_kernel", counted_kernel)
        prob = selection_1d_problem()
        sched = make_schedule(1, 0.8, 1, 0.1, mu_H=1, m=1)
        rec = run_solver(prob, sched, FISM, np.array([0.9]), 100_000, tol=1e-3)
        assert rec.stop_reason == "tolerance"
        assert calls["n"] == rec.rounds

    @pytest.mark.parametrize("nan_below", [3.5, None])
    def test_error_past_a_stop_is_dropped(self, monkeypatch, nan_below):
        # iterates 4, 3.7, 3.54, 3.43, 3.35. The closure raises on a NaN point
        # and below 3.4. With NaN below 3.5 the run stops at round 3: rounds
        # 4 and 5 of the block reach a NaN point and raise, and are dropped.
        # Without it, round 4's value at 3.35 raises as it would alone.
        def inner(x):
            if math.isnan(x[0]) or x[0] < 3.4:
                raise ArithmeticError("outside the closure's domain")
            if nan_below is not None and x[0] < nan_below:
                return EvalResult(math.nan, np.full_like(x, math.nan))
            return ball_dist_eval(x, np.array([0.5]), 0.5)

        prob = ProblemSpec.from_oracles(
            dimension=1, clients=[[inner]],
            outer=lambda x: outer_quad_anchor_eval(x, np.array([2.0])),
            constraint=BoxConstraint.symmetric(1, 10.0), mu_H=1.0)
        args = (prob, _small_steps_1d(), FISM, np.array([4.0]), 100)
        if nan_below is None:
            with pytest.raises(ArithmeticError):
                run_solver(*args)
            return
        runs = self._runs(monkeypatch, *args)
        assert runs[0][2] == runs[1][2] == runs[2][2]
        assert (runs[2][0].stop_reason, runs[2][0].rounds) == ("non-finite", 3)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40) | st.sampled_from([100, 784, 1000]),
           rows=st.integers(2, 34))
    def test_step_norms_bitwise_equal_norm(self, data, n, rows):
        if n > 40:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            xs = 10.0 * rng.standard_normal((rows, n))
        else:
            xs = data.draw(arrays(np.float64, (rows, n), elements=st.floats(-1e6, 1e6)))
        expected = [_norm(xs[j + 1] - xs[j]) for j in range(rows - 1)]
        got = _step_norms(xs)
        assert struct.pack(f"<{rows - 1}d", *got) == struct.pack(f"<{rows - 1}d", *expected)


def _reference_run(problem, sched, method, x_init, max_rounds, tol=None):
    """(rows without wall_clock_sec, states, final_avg_x) from one kernel call
    per round, each state advanced one round at a time, and the metrics from
    the one-point objectives: what run_solver records, without its block
    bookkeeping."""
    step = (solvers._fism_kernel if method == FISM else solvers._irig_kernel)(problem)
    m = problem.n_inner
    outer_per_round = 1 if method == FISM else m
    t_round = round_time(uniform_costs(problem.client_sizes), method)
    state = RoundState.initial(project_box(np.asarray(x_init, dtype=float), problem.constraint))
    states, rows = [state], []
    f_cur, h_cur = problem.inner_objective(state.x), problem.outer_objective(state.x)
    total = 0.0
    for _ in range(max_rounds):
        gamma, lam = sched.at(state.k)
        nxt = RoundState(step(state.x, gamma, lam), state.k + 1, state.avg_num + gamma * state.x,
                         state.avg_den + gamma, state.inner_evals + m,
                         state.outer_evals + outer_per_round)
        f_next, h_next = problem.inner_objective(nxt.x), problem.outer_objective(nxt.x)
        f_avg = problem.inner_objective(weighted_average(nxt))
        total += t_round
        rows.append(RoundRow(state.k, f_cur, f_cur / m, f_avg, h_cur, _norm(nxt.x - state.x),
                             t_round, total, nxt.inner_evals, nxt.outer_evals, None))
        states.append(nxt)
        stop = not all(map(math.isfinite, (f_next, h_next, f_avg))) or (
            tol is not None
            and stopping_criterion(state.x, nxt.x, f_cur, f_next, h_cur, h_next, tol))
        state, f_cur, h_cur = nxt, f_next, h_next
        if stop:
            break
    return rows, states, weighted_average(state)


class TestBlockBookkeeping:
    """run_solver takes the running averages, counters, stop row and rows
    of a block of rounds at once. Every record must carry the bits of a
    loop of single rounds."""

    @staticmethod
    def _assert_matches_reference(monkeypatch, block, problem, sched, x0, method, rounds,
                                  tol=None):
        monkeypatch.setattr(solvers, "_BLOCK", block)
        observed = []
        rec = run_solver(problem, sched, method, x0, rounds, tol=tol, observe=observed.append)
        rows, states, final_avg = _reference_run(problem, sched, method, x0, rounds, tol)
        assert [repr(row._replace(wall_clock_sec=None)) for row in rec.rows] == list(map(repr, rows))
        assert all(type(row.wall_clock_sec) is float for row in rec.rows)
        assert rec.final_avg_x.tobytes() == final_avg.tobytes()
        assert rec.final_x.tobytes() == states[-1].x.tobytes()

        def fields(s):
            return (s.k, s.x.tobytes(), s.avg_num.tobytes(), repr(s.avg_den), s.inner_evals,
                    s.outer_evals)
        assert list(map(fields, observed)) == list(map(fields, states))
        return rec

    @pytest.mark.parametrize("block", [1, 7, 32])
    @pytest.mark.parametrize("method", [FISM, IRIG])
    @pytest.mark.parametrize("name", ["selection-1d", "location", "logistic-synthetic"])
    def test_fixed_rounds(self, monkeypatch, block, method, name):
        rec = self._assert_matches_reference(monkeypatch, block, *_block_case(name), method, 75)
        assert rec.rounds == 75

    @pytest.mark.parametrize("block", [1, 7, 32])
    @pytest.mark.parametrize("method", [FISM, IRIG])
    def test_non_finite_stop_mid_block(self, monkeypatch, block, method):
        rec = self._assert_matches_reference(monkeypatch, block, _nan_below(2.2),
                                             _small_steps_1d(), np.array([4.0]), method, 500)
        assert (rec.stop_reason, rec.rounds) == ("non-finite", 55)

    @pytest.mark.parametrize("method", [FISM, IRIG])
    def test_non_finite_stop_raises_no_numpy_warning(self, method):
        # gamma1 = 1e308 overflows in round 1. The run classifies the stop
        # itself, so numpy's floating-point warnings stay inside it.
        args = (selection_1d_problem(), make_schedule(1e308, 0.55, 1, 0.4, mu_H=1, m=1),
                method, np.array([3.0]), 40)
        with np.errstate(all="ignore"):
            rows, _, _ = _reference_run(*args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = run_solver(*args)
        assert rec.stop_reason == "non-finite"
        assert [repr(row._replace(wall_clock_sec=None)) for row in rec.rows] == [
            repr(row) for row in rows]

    @pytest.mark.parametrize("method", [FISM, IRIG])
    def test_tolerance_stop(self, monkeypatch, method):
        rec = self._assert_matches_reference(monkeypatch, _BLOCK, *_block_case("location"),
                                             method, 5000, tol=1e-4)
        assert rec.stop_reason == "tolerance" and rec.rounds < 5000


class TestEquivalenceProperty:
    """C5 on random instances: at S = m = 1 the two methods coincide bitwise."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]),
           gamma1=st.floats(0.05, 5.0), a=st.floats(0.0, 1.0),
           lambda1=st.floats(0.05, 5.0), b=st.floats(0.0, 1.0))
    def test_fism_equals_irig_at_one_function(self, data, dim, gamma1, a, lambda1, b):
        coord = st.floats(-12.0, 12.0)
        vec = st.lists(coord, min_size=dim, max_size=dim).map(np.array)
        center, anchor, x0 = data.draw(vec), data.draw(vec), data.draw(vec)
        radius = data.draw(st.floats(0.1, 5.0))
        prob = ProblemSpec(dimension=dim, inner=BallDistances(center[None, :], [radius]),
                           outer=QuadAnchor(anchor), clients=((0,),),
                           constraint=BoxConstraint.symmetric(dim, 10.0), mu_H=1.0)
        sched = StepSchedule(gamma1, a, lambda1, b)
        fism = _observed_iterates(prob, sched, FISM, x0, 50)
        irig = _observed_iterates(prob, sched, IRIG, x0, 50)
        assert len(fism) == len(irig) == 51
        assert [x.tobytes() for x in fism] == [x.tobytes() for x in irig]


class TestReferenceSolve:
    def test_zero_inner_returns_anchor(self):
        anchor = np.array([1.5, -2.5])
        prob = ProblemSpec(dimension=2, inner=OracleFamily([zero_oracle()]),
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
    return ProblemSpec(dimension=n, inner=inner, outer=outer, clients=clients,
                       constraint=BoxConstraint.symmetric(n, 2.0), mu_H=1.0)


class TestLaneRound:
    """A FISM run steps the clients of a round together as lanes. Every round
    must carry the bits of one client_local_pass per client, summed left to
    right in ascending client index, and must write to nothing it was given."""

    @staticmethod
    def _observed_one_round_blocks(prob, x0, rounds):
        # One round per block, so each state is observed, and its iterate
        # copied, before the next round steps from it.
        sched = make_schedule(1, 0.55, 1, 0.4, mu_H=1, m=prob.n_inner)
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
            dimension=1, clients=clients,
            outer=lambda x: outer_quad_anchor_eval(x, np.array([2.0])),
            constraint=BoxConstraint.symmetric(1, 10.0), mu_H=1.0)
        self._rounds_match_chained(prob, np.array([4.0]), rounds=6)

    def test_lane_layout(self):
        order, blocks = selection_1d_problem((1, 3, 2)).lanes
        assert order == (1, 2, 0)  # largest client first, ties by index
        assert [(k, rows.tolist()) for k, rows in blocks] == [(3, [[1, 4, 0]]), (2, [[2, 5]]),
                                                              (1, [[3]])]
        order, blocks = selection_1d_problem((2, 3, 3)).lanes
        assert order == (1, 2, 0)
        assert [(k, rows.tolist()) for k, rows in blocks] == [(3, [[2, 5, 0], [3, 6, 1]]),
                                                              (2, [[4, 7]]), (1, [])]

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
