import math

import numpy as np
import pytest
from helpers import ball_dist_eval, estimate_bounds, outer_quad_anchor_eval

from fedbilevel.federation import CONTIGUOUS, partition_data
from fedbilevel.instances import location_problem, selection_1d_problem
from fedbilevel.data import make_location_instance
from fedbilevel.problem import BoxConstraint, ProblemSpec, StepSchedule, make_schedule
from fedbilevel.rng import make_rng


class TestBoxConstraint:
    def test_symmetric(self):
        box = BoxConstraint.symmetric(3, 10.0)
        assert box.dimension == 3
        assert np.array_equal(box.lo, [-10.0] * 3)
        assert np.array_equal(box.hi, [10.0] * 3)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            BoxConstraint(np.array([1.0]), np.array([0.0]))

    def test_immutable(self):
        box = BoxConstraint.symmetric(2, 1.0)
        with pytest.raises(ValueError):
            box.lo[0] = 5.0


class TestProblemSpec:
    def test_counts(self):
        prob = selection_1d_problem((3, 3))
        assert prob.n_clients == 2
        assert prob.n_inner == 6
        assert prob.client_sizes == (3, 3)

    def test_selection_sizes_validated(self):
        for sizes in [(), (2, 0)]:
            with pytest.raises(ValueError):
                selection_1d_problem(sizes)

    def test_rejects_empty_client(self):
        base = selection_1d_problem()
        with pytest.raises(ValueError):
            ProblemSpec(dimension=1, inner=base.inner, outer=base.outer, clients=((),),
                        constraint=base.constraint, mu_H=1.0)

    def test_rejects_bad_modulus(self):
        base = selection_1d_problem()
        with pytest.raises(ValueError):
            ProblemSpec(dimension=1, inner=base.inner, outer=base.outer,
                        clients=base.clients, constraint=base.constraint, mu_H=0.0)

    @pytest.mark.parametrize("clients", [((0, 1), (1, 2)), ((0,), (2,)), ((0, 1), (2, 3))])
    def test_rejects_clients_not_covering_the_family(self, clients):
        # duplicated, missing and out-of-range indices
        base = selection_1d_problem((3,))
        with pytest.raises(ValueError):
            ProblemSpec(dimension=1, inner=base.inner, outer=base.outer, clients=clients,
                        constraint=base.constraint, mu_H=1.0)

    def test_from_oracles_keeps_client_order_and_sums(self):
        centers = [np.array([0.0]), np.array([3.0]), np.array([-2.0])]
        fns = [lambda x, c=c: ball_dist_eval(x, c, 0.5) for c in centers]
        prob = ProblemSpec.from_oracles(
            dimension=1, clients=[fns[:2], fns[2:]],
            outer=lambda x: outer_quad_anchor_eval(x, np.array([1.0])),
            constraint=BoxConstraint.symmetric(1, 10.0), mu_H=1.0)
        assert prob.clients == ((0, 1), (2,))
        x = np.array([1.25])
        assert prob.inner.values(x[None])[0] == float(sum(fn(x).value for fn in fns))
        assert prob.outer.values(x[None])[0] == 0.03125
        assert np.array_equal(prob.outer.subgrad(x), [0.25])

    def test_objectives(self):
        prob = selection_1d_problem((2,))
        x = np.array([3.0])
        assert prob.inner.values(x[None])[0] == pytest.approx(2 * 2.0)  # two copies of dist
        assert prob.outer.values(x[None])[0] == pytest.approx(0.5)


class TestMakeSchedule:
    def test_paper_scale_feasible(self):
        sched = make_schedule(10, 0.8, 1, 0.1, mu_H=1, m=11000)
        assert sched.feasible

    def test_constant_schedule_feasible(self):
        sched = make_schedule(1, 0, 1, 0, mu_H=1, m=1)
        assert sched.feasible
        assert sched.at(1) == (1.0, 1.0)

    def test_small_m_flagged_not_rejected(self):
        sched = make_schedule(10, 0.8, 1, 0.1, mu_H=1, m=1)
        assert not sched.feasible

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_schedule(0, 0.8, 1, 0.1, mu_H=1, m=1)
        with pytest.raises(ValueError):
            make_schedule(10, 0.8, -1, 0.1, mu_H=1, m=1)

    def test_schedule_validates_itself(self):
        # a run on it would step every round and fail only at the first average
        with pytest.raises(ValueError, match="gamma1 must be positive"):
            StepSchedule(0.0, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["gamma1", "a", "lambda1", "b"])
    def test_rejects_non_finite(self, key, value):
        params = dict(gamma1=1.0, a=0.5, lambda1=1.0, b=0.1)
        params[key] = value
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            StepSchedule(**params)
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            make_schedule(**params, mu_H=1, m=5)


class TestScheduleAt:
    def test_first_round(self):
        sched = make_schedule(10, 0.8, 1, 0.1, mu_H=1, m=11000)
        assert sched.at(1) == (10.0, 1.0)

    def test_k32(self):
        sched = make_schedule(10, 0.8, 1, 0.1, mu_H=1, m=11000)
        gamma, lam = sched.at(32)
        assert gamma == pytest.approx(0.625, abs=1e-12)
        assert lam == pytest.approx(2 ** -0.5, abs=1e-12)

    def test_constant(self):
        sched = make_schedule(1, 0, 1, 0, mu_H=1, m=1)
        assert sched.at(999) == (1.0, 1.0)

    def test_rejects_zero_round(self):
        sched = make_schedule(1, 0, 1, 0, mu_H=1, m=1)
        with pytest.raises(ValueError):
            sched.at(0)

    def test_monotone_nonincreasing(self):
        rng = make_rng(17)
        for _ in range(20):
            sched = make_schedule(float(rng.uniform(0.1, 10)), float(rng.uniform(0, 1.5)),
                                  float(rng.uniform(0.1, 10)), float(rng.uniform(0, 1.5)),
                                  mu_H=1, m=10)
            prev = sched.at(1)
            for k in range(2, 60):
                cur = sched.at(k)
                assert cur[0] <= prev[0] and cur[1] <= prev[1]
                prev = cur


class TestScheduleSums:
    def test_divergent_weighted_sum(self):
        # for a + b < 1: partial sums of gamma_k * lambda_k grow like K^(1-a-b)
        for a, b in [(0.55, 0.4), (0.8, 0.1), (0.5, 0.3)]:
            sched = make_schedule(1, a, 1, b, mu_H=1, m=10)
            sums = {}
            total, k = 0.0, 0
            for kk in range(1, 10_001):
                g, l = sched.at(kk)
                total += g * l
                if kk in (100, 1000, 10_000):
                    sums[kk] = total
            c = sums[100] / 100 ** (1 - a - b)
            for big in (1000, 10_000):
                assert sums[big] >= 0.99 * c * big ** (1 - a - b)

    def test_square_summable_tail(self):
        # for a > 0.5: the gamma_k^2 tail is below the integral bound
        for gamma1, a in [(1.0, 0.55), (10.0, 0.8)]:
            sched = make_schedule(gamma1, a, 1, 0.1, mu_H=1, m=10)
            tail = sum(sched.at(k)[0] ** 2 for k in range(1001, 10_001))
            bound = gamma1 ** 2 * 1000 ** (1 - 2 * a) / (2 * a - 1)
            assert tail <= bound


class TestBoundEstimates:
    def test_location_bounds(self):
        # ball-distance subgradients are unit vectors or zero, so Cf ~ 1;
        # CH covers the outer value which dominates its gradient norm here
        inst = make_location_instance(3, 10, seed=0)
        prob = location_problem(inst, partition_data(10, 2, CONTIGUOUS))
        cf, ch = estimate_bounds(prob, samples=200, seed=0)
        assert cf == pytest.approx(1.0, abs=1e-9)
        assert ch > 10.0

    def test_deterministic(self):
        inst = make_location_instance(3, 5, seed=1)
        prob = location_problem(inst, partition_data(5, 1, CONTIGUOUS))
        a = estimate_bounds(prob, samples=100, seed=4)
        b = estimate_bounds(prob, samples=100, seed=4)
        assert a == b
