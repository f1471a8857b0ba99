import math

import numpy as np
import pytest
from helpers import ball_dist_eval, logistic_eval, outer_l1_quad_eval, outer_quad_anchor_eval

from fedbilevel import selfcheck
from fedbilevel.oracles import BallDistances, L1Quad, LogisticLosses, QuadAnchor, project_box
from fedbilevel.problem import BoxConstraint
from fedbilevel.rng import make_rng
from fedbilevel.selfcheck import (finite_difference_failures, lane_subgrad_failures,
                                  projection_failures, stacked_value_failures,
                                  subgradient_inequality_failures)


class TestProjectBox:
    def test_clamps_exterior(self):
        box = BoxConstraint.symmetric(2, 1.0)
        out = project_box(np.array([2.0, -3.0]), box)
        assert np.array_equal(out, [1.0, -1.0])

    def test_identity_on_interior(self):
        box = BoxConstraint.symmetric(2, 1.0)
        x = np.array([0.5, 0.5])
        assert np.array_equal(project_box(x, box), x)

    def test_wide_box(self):
        box = BoxConstraint.symmetric(2, 100.0)
        out = project_box(np.array([150.0, -150.0]), box)
        assert np.array_equal(out, [100.0, -100.0])

    def test_dimension_mismatch(self):
        box = BoxConstraint.symmetric(2, 1.0)
        with pytest.raises(ValueError):
            project_box(np.array([1.0, 2.0, 3.0]), box)


class TestLogistic:
    def test_at_zero(self):
        res = logistic_eval(np.array([1.0, 0.0]), 1, np.zeros(2))
        assert res.value == pytest.approx(math.log(2), abs=1e-12)
        assert res.subgrad == pytest.approx([-0.5, 0.0], abs=1e-12)

    def test_quarter_sigmoid(self):
        res = logistic_eval(np.array([1.0, 0.0]), 1, np.array([math.log(3), 0.0]))
        assert res.value == pytest.approx(math.log(4 / 3), abs=1e-12)
        assert res.subgrad == pytest.approx([-0.25, 0.0], abs=1e-12)

    def test_overflow_safe(self):
        res = logistic_eval(np.array([1.0, 1.0]), -1, np.array([500.0, 500.0]))
        assert res.value == pytest.approx(1000.0, rel=1e-12)
        assert res.subgrad == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            logistic_eval(np.array([1.0]), 0, np.array([1.0]))
        with pytest.raises(ValueError):
            LogisticLosses(np.array([[1.0]]), [2])


class TestBallDist:
    def test_exterior_collinear(self):
        res = ball_dist_eval(np.array([3.0, 0.0]), np.zeros(2), 1.0)
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.subgrad == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_interior_zero(self):
        res = ball_dist_eval(np.array([0.2, 0.0]), np.zeros(2), 1.0)
        assert res.value == 0.0
        assert np.array_equal(res.subgrad, np.zeros(2))

    def test_boundary_zero(self):
        res = ball_dist_eval(np.array([0.0, 1.0]), np.zeros(2), 1.0)
        assert res.value == 0.0
        assert np.array_equal(res.subgrad, np.zeros(2))

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            ball_dist_eval(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            BallDistances(np.zeros((1, 2)), [-1.0])


class TestOuterL1Quad:
    def test_direct(self):
        res = outer_l1_quad_eval(np.array([1.0, -2.0]))
        assert res.value == pytest.approx(5.5, abs=1e-12)
        assert res.subgrad == pytest.approx([2.0, -3.0], abs=1e-12)

    def test_minimizer(self):
        res = outer_l1_quad_eval(np.zeros(2))
        assert res.value == 0.0
        assert np.array_equal(res.subgrad, np.zeros(2))

    def test_1d(self):
        res = outer_l1_quad_eval(np.array([0.5]))
        assert res.value == pytest.approx(0.625, abs=1e-12)
        assert res.subgrad == pytest.approx([1.5], abs=1e-12)


class TestOuterQuadAnchor:
    def test_minimum(self):
        anchor = np.array([1.0, 2.0])
        res = outer_quad_anchor_eval(anchor.copy(), anchor)
        assert res.value == 0.0
        assert np.array_equal(res.subgrad, np.zeros(2))

    def test_direct(self):
        res = outer_quad_anchor_eval(np.array([3.0, 4.0]), np.zeros(2))
        assert res.value == pytest.approx(12.5, abs=1e-12)
        assert res.subgrad == pytest.approx([3.0, 4.0], abs=1e-12)

    def test_1d(self):
        res = outer_quad_anchor_eval(np.array([1.0]), np.array([2.0]))
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.subgrad == pytest.approx([-1.0], abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            outer_quad_anchor_eval(np.zeros(3), np.zeros(2))


class TestOracleProperties:
    def test_subgradient_inequality(self):
        assert all(v == 0 for v in subgradient_inequality_failures(pairs=100).values())

    def test_finite_differences_smooth_points(self):
        assert all(v == 0 for v in finite_difference_failures(points=100).values())

    def test_stacked_values_bitwise(self):
        assert all(v == 0 for v in stacked_value_failures(stacks=100).values())

    def test_projection_properties(self):
        assert all(v == 0 for v in projection_failures(pairs=100).values())

    def test_outer_oracles_strongly_convex(self):
        # H(ax + (1-a)y) <= a H(x) + (1-a) H(y) - 0.5 * mu * a(1-a) ||x-y||^2
        rng = make_rng(99)
        anchor = rng.uniform(-2, 2, 5)
        for outer in [L1Quad(), QuadAnchor(anchor)]:
            for _ in range(100):
                x = rng.uniform(-5, 5, 5)
                y = rng.uniform(-5, 5, 5)
                alpha = float(rng.uniform(0, 1))
                mix = alpha * x + (1 - alpha) * y
                lhs, h_x, h_y = outer.values(np.stack((mix, x, y)))
                rhs = (alpha * h_x + (1 - alpha) * h_y
                       - 0.5 * 1.0 * alpha * (1 - alpha) * float(np.dot(x - y, x - y)))
                assert lhs <= rhs + 1e-9


def _only_failing(counts, probe):
    """The check failed ``probe`` and passed every other probe."""
    assert counts[probe] > 0, counts
    assert all(fails == 0 for name, fails in counts.items() if name != probe), counts


class TestChecksCanFail:
    """Each check family fails one broken probe, and only that probe."""

    def test_finite_difference_finds_a_dropped_term(self, monkeypatch):
        monkeypatch.setattr(L1Quad, "subgrad", lambda self, x: x)  # without sign(x)
        _only_failing(finite_difference_failures(points=100), "l1-quad")

    def test_subgradient_inequality_finds_a_flipped_subgradient(self, monkeypatch):
        # the sign-dropped subgradient above still satisfies this inequality
        subgrad = L1Quad.subgrad
        monkeypatch.setattr(L1Quad, "subgrad", lambda self, x: -subgrad(self, x))
        _only_failing(subgradient_inequality_failures(pairs=100), "l1-quad")

    def test_stacked_values_find_a_one_ulp_stack_dependence(self, monkeypatch):
        values = QuadAnchor.values
        monkeypatch.setattr(QuadAnchor, "values",
                            lambda self, X: values(self, X) * (1 + len(X) * 2**-52))
        _only_failing(stacked_value_failures(stacks=100), "quad-anchor")

    def test_lane_subgrads_find_a_one_ulp_lane_difference(self, monkeypatch):
        subgrads = BallDistances.subgrads
        monkeypatch.setattr(BallDistances, "subgrads",
                            lambda self, idx, X: subgrads(self, idx, X) * (1 + 2**-52))
        _only_failing(lane_subgrad_failures(stacks=100), "ball-distance")

    def test_projection_finds_a_projection_that_does_not_project(self, monkeypatch):
        # idempotence, nonexpansiveness and interior identity all hold for
        # the identity map; only feasibility catches it
        monkeypatch.setattr(selfcheck, "project_box", lambda x, box: x)
        _only_failing(projection_failures(pairs=100), "feasibility")
