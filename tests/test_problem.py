import math

import numpy as np
import pytest
from helpers import ball_dist_eval, estimate_bounds, outer_quad_anchor_eval

from fedbilevel.federation import CONTIGUOUS, FISM, partition_data
from fedbilevel.instances import location_problem, selection_1d_problem
from fedbilevel.data import make_location_instance
from fedbilevel.problem import BoxConstraint, ProblemSpec, StepSchedule
from fedbilevel.rng import make_rng
from fedbilevel.solvers import run_solver


class TestBoxConstraint:
    def test_symmetric(self):
        box = BoxConstraint.symmetric(3, 10.0)
        assert box.dimension == 3
        assert np.array_equal(box.lo, [-10.0] * 3)
        assert np.array_equal(box.hi, [10.0] * 3)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            BoxConstraint(np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("lo, hi", [([math.nan], [1.0]), ([0.0], [math.nan]),
                                        ([0.0, math.nan], [1.0, 1.0])])
    def test_rejects_nan_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="must not be NaN"):
            BoxConstraint(np.array(lo), np.array(hi))

    def test_symmetric_rejects_nan_half_width(self):
        with pytest.raises(ValueError, match="half_width must be positive, got nan"):
            BoxConstraint.symmetric(1, math.nan)

    def test_infinite_bounds_allowed(self):
        box = BoxConstraint.symmetric(2, math.inf)
        assert box.contains(np.array([-1e300, 1e300]))
        assert BoxConstraint(np.array([-math.inf]), np.array([0.0])).dimension == 1

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
            ProblemSpec(inner=base.inner, outer=base.outer, clients=((),),
                        constraint=base.constraint, mu_H=1.0)

    def test_rejects_bad_modulus(self):
        base = selection_1d_problem()
        with pytest.raises(ValueError):
            ProblemSpec(inner=base.inner, outer=base.outer,
                        clients=base.clients, constraint=base.constraint, mu_H=0.0)

    def test_rejects_nan_modulus(self):
        base = selection_1d_problem()
        with pytest.raises(ValueError, match="modulus must be positive, got nan"):
            ProblemSpec(inner=base.inner, outer=base.outer,
                        clients=base.clients, constraint=base.constraint, mu_H=math.nan)

    @pytest.mark.parametrize("clients", [((0, 1), (1, 2)), ((0,), (2,)), ((0, 1), (2, 3))])
    def test_rejects_clients_not_covering_the_family(self, clients):
        # duplicated, missing and out-of-range indices
        base = selection_1d_problem((3,))
        with pytest.raises(ValueError):
            ProblemSpec(inner=base.inner, outer=base.outer, clients=clients,
                        constraint=base.constraint, mu_H=1.0)

    def test_from_oracles_keeps_client_order_and_sums(self):
        centers = [np.array([0.0]), np.array([3.0]), np.array([-2.0])]
        fns = [lambda x, c=c: ball_dist_eval(x, c, 0.5) for c in centers]
        prob = ProblemSpec.from_oracles(
            clients=[fns[:2], fns[2:]],
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


def _run_feasible(sched: StepSchedule, m: int, mu_H: float = 1.0) -> bool:
    # One FISM round on m copies of the selection ball; the run records
    # gamma1 * lambda1 * mu_H <= 2m, and its summary writes the same.
    base = selection_1d_problem((m,))
    prob = ProblemSpec(inner=base.inner, outer=base.outer, clients=base.clients,
                       constraint=base.constraint, mu_H=mu_H)
    record = run_solver(prob, sched, FISM, np.array([4.0]), 1)
    assert record.summary_dict()["schedule"]["feasible"] is record.feasible
    return record.feasible


class TestMakeSchedule:
    """A schedule is its four parameters as floats; its feasibility,
    gamma1 * lambda1 * mu_H <= 2m, is a property of a run."""

    def test_paper_scale_feasible(self):
        assert _run_feasible(StepSchedule(10, 0.8, 1, 0.1), m=11000)

    def test_constant_schedule_feasible(self):
        sched = StepSchedule(1, 0, 1, 0)
        assert _run_feasible(sched, m=1)
        assert sched.at(1) == (1.0, 1.0)

    def test_small_m_flagged_not_rejected(self):
        assert not _run_feasible(StepSchedule(10, 0.8, 1, 0.1), m=1)

    def test_feasible_up_to_the_boundary(self):
        # gamma1 * lambda1 * mu_H == 2m exactly is feasible; one ulp above is not
        assert _run_feasible(StepSchedule(4, 0.8, 1, 0.1), m=2)
        assert _run_feasible(StepSchedule(1, 0.8, 2, 0.1), m=4, mu_H=4.0)
        assert not _run_feasible(StepSchedule(math.nextafter(4.0, 5.0), 0.8, 1, 0.1), m=2)
        assert not _run_feasible(StepSchedule(1, 0.8, 2, 0.1), m=4, mu_H=math.nextafter(4.0, 5.0))

    def test_parameters_stored_as_floats(self):
        # a summary writes gamma1 = 10 as 10.0, as the CLI's parsed floats do
        sched = StepSchedule(10, np.float64(0.8), 1, 0)
        values = [sched.gamma1, sched.a, sched.lambda1, sched.b]
        assert [type(v) for v in values] == [float] * 4
        assert values == [10.0, 0.8, 1.0, 0.0]
        assert sched.at(32) == (10.0 / 32.0**0.8, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            StepSchedule(0, 0.8, 1, 0.1)
        with pytest.raises(ValueError):
            StepSchedule(10, 0.8, -1, 0.1)

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


class TestScheduleAt:
    def test_first_round(self):
        sched = StepSchedule(10, 0.8, 1, 0.1)
        assert sched.at(1) == (10.0, 1.0)

    def test_k32(self):
        sched = StepSchedule(10, 0.8, 1, 0.1)
        gamma, lam = sched.at(32)
        assert gamma == pytest.approx(0.625, abs=1e-12)
        assert lam == pytest.approx(2 ** -0.5, abs=1e-12)

    def test_constant(self):
        sched = StepSchedule(1, 0, 1, 0)
        assert sched.at(999) == (1.0, 1.0)

    def test_rejects_zero_round(self):
        sched = StepSchedule(1, 0, 1, 0)
        with pytest.raises(ValueError):
            sched.at(0)

    def test_overflowing_power_falls_to_zero(self):
        # 3.0 ** 1000 overflows a float; 2.0 ** 1000 does not and keeps its bits
        sched = StepSchedule(1, 1000, 1, 0)
        assert sched.at(3) == (0.0, 1.0)
        assert sched.at(2) == (1.0 / 2.0**1000, 1.0)
        assert StepSchedule(1, 0, 1, 2000).at(2) == (1.0, 0.0)

    def test_monotone_nonincreasing(self):
        rng = make_rng(17)
        for _ in range(20):
            sched = StepSchedule(float(rng.uniform(0.1, 10)), float(rng.uniform(0, 1.5)),
                                  float(rng.uniform(0.1, 10)), float(rng.uniform(0, 1.5)))
            prev = sched.at(1)
            for k in range(2, 60):
                cur = sched.at(k)
                assert cur[0] <= prev[0] and cur[1] <= prev[1]
                prev = cur


class TestScheduleSums:
    def test_divergent_weighted_sum(self):
        # for a + b < 1: partial sums of gamma_k * lambda_k grow like K^(1-a-b)
        for a, b in [(0.55, 0.4), (0.8, 0.1), (0.5, 0.3)]:
            sched = StepSchedule(1, a, 1, b)
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
            sched = StepSchedule(gamma1, a, 1, 0.1)
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
