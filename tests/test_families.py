"""Properties of the data-backed inner families and of box projection.

The per-sample ``*_eval`` oracles in ``helpers`` are the reference: a family's subgradient
must match them bitwise (the solvers' iterates depend on it), its vectorized
totals must match their per-sample sums up to summation-order rounding.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (ball_dist_eval, counting, left_to_right_sum, logistic_eval,
                     outer_l1_quad_eval, outer_quad_anchor_eval)

from fedbilevel import oracles
from fedbilevel.oracles import (BallDistances, L1Quad, LogisticLosses, OracleFamily,
                                OracleObjective, QuadAnchor, project_box)
from fedbilevel.problem import BoxConstraint

# Rounding allowance for vectorized totals, relative to the per-sample sum
# plus the magnitudes the per-sample terms are computed from: a term near a
# kink (a point on a ball's boundary, a large negative logistic margin) can
# be tiny while its inputs are not.
REL = 1e-12

coord = st.floats(-5.0, 5.0)


@st.composite
def logistic_case(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 12))
    features = draw(arrays(np.float64, (m, n), elements=coord))
    labels = draw(arrays(np.int64, m, elements=st.sampled_from([-1, 1])))
    points = draw(arrays(np.float64, (draw(st.integers(1, 3)), n), elements=coord))
    return features, labels, points


@st.composite
def ball_case(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 12))
    centers = draw(arrays(np.float64, (m, n), elements=coord))
    radii = draw(arrays(np.float64, m, elements=st.floats(0.01, 5.0)))
    points = draw(arrays(np.float64, (draw(st.integers(1, 3)), n), elements=coord))
    # put one point exactly on a center, where the subgradient switches to zero
    if draw(st.booleans()):
        points[0] = centers[0]
    return centers, radii, points


class TestLogisticLosses:
    @settings(max_examples=100, deadline=None)
    @given(logistic_case())
    def test_subgrad_bitwise_equals_reference(self, case):
        features, labels, points = case
        fam = LogisticLosses(features, labels)
        for x in points:
            for i in range(len(fam)):
                ref = logistic_eval(features[i], int(labels[i]), x).subgrad
                assert fam.subgrad(i, x).tobytes() == ref.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(logistic_case())
    def test_values_match_per_sample_sums(self, case):
        features, labels, points = case
        fam = LogisticLosses(features, labels)
        totals = fam.values(points)
        assert totals.shape == (len(points),)
        for x, total in zip(points, totals):
            terms = [logistic_eval(features[i], int(labels[i]), x).value
                     for i in range(len(fam))]
            scale = sum(terms) + float(np.sum(np.abs(features) @ np.abs(x)))
            assert abs(total - sum(terms)) <= REL * scale

    @pytest.mark.parametrize("features, labels", [(np.zeros(3), [1]),
                                                  (np.zeros((2, 3)), [1]),
                                                  (np.zeros((2, 3)), [1, 0])])
    def test_rejects_bad_data(self, features, labels):
        with pytest.raises(ValueError):
            LogisticLosses(features, labels)


class TestBallDistances:
    @settings(max_examples=100, deadline=None)
    @given(ball_case())
    def test_subgrad_bitwise_equals_reference(self, case):
        centers, radii, points = case
        fam = BallDistances(centers, radii)
        for x in points:
            for i in range(len(fam)):
                ref = ball_dist_eval(x, centers[i], float(radii[i])).subgrad
                assert fam.subgrad(i, x).tobytes() == ref.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(ball_case())
    def test_values_match_per_sample_sums(self, case):
        centers, radii, points = case
        fam = BallDistances(centers, radii)
        totals = fam.values(points)
        assert totals.shape == (len(points),)
        for x, total in zip(points, totals):
            terms = [ball_dist_eval(x, centers[i], float(radii[i])).value
                     for i in range(len(fam))]
            scale = sum(terms) + float(np.sum(np.linalg.norm(x - centers, axis=1) + radii))
            assert abs(total - sum(terms)) <= REL * scale


class TestOracleFamily:
    @settings(max_examples=50, deadline=None)
    @given(logistic_case(), st.data())
    def test_bitwise_equals_closure_sums(self, case, data):
        features, labels, points = case
        n = features.shape[1]
        centers = data.draw(arrays(np.float64, (3, n), elements=coord))
        oracles = [(lambda x, a=a, b=int(b): logistic_eval(a, b, x))
                   for a, b in zip(features, labels)]
        oracles += [(lambda x, c=c: ball_dist_eval(x, c, 0.5)) for c in centers]
        fam = OracleFamily(oracles)
        assert len(fam) == len(oracles)
        totals = fam.values(points)
        for x, total in zip(points, totals):
            assert total == left_to_right_sum(fn(x).value for fn in oracles)
            for i, fn in enumerate(oracles):
                assert fam.subgrad(i, x).tobytes() == fn(x).subgrad.tobytes()


@st.composite
def stacked_points(draw, max_rows=12):
    """A (b, n) stack of b iterates and a (b, n) stack of b averages."""
    n = draw(st.integers(1, 40) | st.sampled_from([100, 784, 1000]))
    b = draw(st.integers(1, max_rows))
    if n > 40:  # long rows: drawn from a seeded generator, not element by element
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return n, 100.0 * rng.standard_normal((b, n)), 100.0 * rng.standard_normal((b, n))
    wide = st.floats(-1e3, 1e3)
    return (n, draw(arrays(np.float64, (b, n), elements=wide)),
            draw(arrays(np.float64, (b, n), elements=wide)))


class TestBlockStacks:
    """run_solver takes a block of rounds' metrics from one stack, and the
    initial value from a one-row stack; every row must get the bits its
    one-round stack [x, avg] and its own one-row stack get."""

    @settings(max_examples=60, deadline=None)
    @given(stacked_points(), st.integers(1, 30), st.sampled_from(["balls", "logistic"]),
           st.data())
    def test_stack_rows_equal_two_row_stacks(self, points, m, kind, data):
        n, X, A = points
        rows = np.random.default_rng(m).uniform(-5.0, 5.0, (m, n))
        if kind == "balls":
            fam = BallDistances(rows, data.draw(arrays(np.float64, m,
                                                       elements=st.floats(0.01, 5.0))))
        else:
            labels = data.draw(arrays(np.float64, m, elements=st.sampled_from([-1.0, 1.0])))
            fam = LogisticLosses(rows, labels)
        b = len(X)
        block = fam.values(np.concatenate((X, A)))
        for j in range(b):
            pair = fam.values(np.array([X[j], A[j]]))
            assert pair.tobytes() == block[[j, b + j]].tobytes()
            assert fam.values(X[j:j + 1]).tobytes() == block[j:j + 1].tobytes()


def _family(kind, m, n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-5.0, 5.0, (m, n))
    if kind == "balls":
        return BallDistances(rows, rng.uniform(0.01, 5.0, m))
    return LogisticLosses(rows, rng.choice([-1.0, 1.0], m))


class TestSlicedValues:
    """The built-in families take ``values`` in row slices of the stack, and
    in sample slices within a row slice, so that one call's temporaries stay
    under a byte budget; every total must carry the bits of a one-slice call
    and of its own one-row stack."""

    @pytest.mark.parametrize("kind", ["balls", "logistic"])
    @pytest.mark.parametrize("m, n", [(1, 1), (37, 3), (300, 7), (1100, 2)])
    @pytest.mark.parametrize("rows, samples", [(1, 2), (5, 7), (25, 1024), (63, 3)])
    def test_sliced_totals_equal_one_slice_and_one_row(self, kind, m, n, rows, samples,
                                                       monkeypatch):
        fam = _family(kind, m, n, seed=m + n)
        X = np.random.default_rng(rows).uniform(-5.0, 5.0, (64, n))
        shape = oracles._slice_shape
        monkeypatch.setattr(oracles, "_slice_shape", lambda k, m, width: (k, m))
        whole = fam.values(X)
        monkeypatch.setattr(oracles, "_slice_shape",
                            lambda k, m, width: (min(k, rows), min(m, samples)))
        for height in sorted({1, rows, rows + 1, 64}):
            sliced = fam.values(X[:height])
            assert sliced.tobytes() == whole[:height].tobytes()
        for j in range(64):
            assert fam.values(X[j:j + 1]).tobytes() == whole[j:j + 1].tobytes()
        monkeypatch.setattr(oracles, "_slice_shape", shape)
        assert fam.values(X).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("kind", ["balls", "logistic"])
    def test_working_memory_stays_in_the_budget(self, kind):
        # One call on one stack would hold 2 k m float64s of margins
        # (logistic) or k m n of differences (balls): 3 and 12 MB here.
        m, n, k = 3000, 8, 64
        fam = _family(kind, m, n, seed=1)
        X = np.random.default_rng(2).uniform(-5.0, 5.0, (k, n))
        seen, terms = [], fam._terms
        fam._terms = lambda part, z, samples: (seen.append((len(part), samples)),
                                               terms(part, z, samples))
        whole = fam.values(X)
        del fam._terms
        assert len(seen) > 1 and seen[0][1] < m  # several row and sample slices
        tracemalloc.start()
        try:
            totals = fam.values(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert totals.tobytes() == whole.tobytes()
        # the slack covers a broadcasting ufunc's buffers (two of
        # np.getbufsize() float64s) and a few small arrays beside the slices
        slack = 2 * 8 * np.getbufsize() + 32 * 1024
        assert peak <= oracles._VALUES_BYTES + slack


class TestOuterValues:
    @settings(max_examples=100, deadline=None)
    @given(stacked_points(max_rows=20), st.data())
    def test_rows_bitwise_equal_value(self, points, data):
        n, X, _ = points
        anchor = data.draw(arrays(np.float64, n, elements=coord))

        def anchored(x):
            return outer_quad_anchor_eval(x, anchor)

        cases = [(L1Quad(), outer_l1_quad_eval), (QuadAnchor(anchor), anchored),
                 (OracleObjective(anchored), anchored)]
        for outer, oracle in cases:
            got = outer.values(X)
            assert got.shape == (len(X),)
            assert got.tobytes() == np.array([oracle(x).value for x in X]).tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_oracle_objective_calls_closure_once_per_row(self, k):
        fn, calls = counting(lambda x: outer_quad_anchor_eval(x, np.zeros(2)))
        outer = OracleObjective(fn)
        outer.values(np.ones((k, 2)))
        assert calls["n"] == k
        outer.subgrad(np.ones(2))
        assert calls["n"] == k + 1

    def test_quad_anchor_rejects_other_dimension(self):
        with pytest.raises(ValueError):
            QuadAnchor([1.0, 2.0]).values(np.zeros((3, 3)))


class TestProjectBoxProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 6))
    def test_equals_clip_on_finite_inputs(self, data, n):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        a = data.draw(arrays(np.float64, n, elements=finite))
        b = data.draw(arrays(np.float64, n, elements=finite))
        x = data.draw(arrays(np.float64, n, elements=finite))
        box = BoxConstraint(np.minimum(a, b), np.maximum(a, b))
        assert project_box(x, box).tobytes() == np.clip(x, box.lo, box.hi).tobytes()

    def test_nan_propagates(self):
        box = BoxConstraint.symmetric(3, 1.0)
        out = project_box(np.array([math.nan, 2.0, -0.5]), box)
        assert math.isnan(out[0])
        assert out[1:].tolist() == [1.0, -0.5]


def _lane_rows_match(fam, idx, X):
    """subgrads(idx, X) against subgrad per row, bitwise, leaving X as it was."""
    before = X.copy()
    got = fam.subgrads(idx, X)
    assert X.tobytes() == before.tobytes()
    assert got.shape == X.shape
    for c, (i, x) in enumerate(zip(idx.tolist(), X)):
        assert got[c].tobytes() == fam.subgrad(i, x).tobytes()
    return got


@st.composite
def lane_points(draw, dims=(1, 3, 20, 784)):
    """(n, m, idx, X): S lanes on distinct indices of an m-row family, at the
    rows of an (S, n) stack."""
    n = draw(st.sampled_from(dims))
    s = draw(st.integers(1, 8))
    m = s + draw(st.integers(0, 4))
    idx = np.array(draw(st.permutations(range(m)))[:s], dtype=np.intp)
    if n > 20:  # long rows: drawn from a seeded generator, not element by element
        X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-5.0, 5.0, (s, n))
    else:
        X = draw(arrays(np.float64, (s, n), elements=coord))
    return n, m, idx, X


class TestLaneSubgrads:
    """Row c of ``subgrads(idx, X)`` carries the bits of
    ``subgrad(idx[c], X[c])``: a client's iterates must not depend on the
    lanes stepped beside it."""

    @settings(max_examples=100, deadline=None)
    @given(lane_points(), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 30.0]))
    def test_logistic(self, case, seed, scale):
        n, m, idx, X = case
        rng = np.random.default_rng(seed)
        fam = LogisticLosses(scale * rng.standard_normal((m, n)), rng.choice([-1.0, 1.0], m))
        _lane_rows_match(fam, idx, X)

    @settings(max_examples=100, deadline=None)
    @given(lane_points(dims=(1, 2, 3, 10, 784)), st.data())
    def test_ball_inside_outside_and_on_the_sphere(self, case, data):
        n, m, idx, X = case
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        centers = rng.uniform(-5.0, 5.0, (m, n))
        radii = rng.uniform(0.5, 2.0, m)
        where = data.draw(st.lists(st.sampled_from(["center", "inside", "on", "outside"]),
                                   min_size=len(idx), max_size=len(idx)))
        for c, (i, kind) in enumerate(zip(idx.tolist(), where)):
            if kind == "center":
                X[c] = centers[i]
            d = X[c] - centers[i]
            dist = math.sqrt(float(np.dot(d, d)))  # the family's own distance
            if dist > 1e-12:  # keeps every radius positive
                radii[i] = {"center": radii[i], "inside": 2.0 * dist, "on": dist,
                            "outside": 0.5 * dist}[kind]
        got = _lane_rows_match(BallDistances(centers, radii), idx, X)
        for c, kind in enumerate(where):
            if kind in ("center", "inside", "on"):
                assert got[c].tobytes() == np.zeros(n).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(lane_points(dims=(1, 3, 20)), st.integers(0, 2**32 - 1))
    def test_oracle_family(self, case, seed):
        n, m, idx, X = case
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-5.0, 5.0, (m, n))
        oracles = [(lambda x, a=a: logistic_eval(a, 1, x)) if i % 2 else
                   (lambda x, a=a: ball_dist_eval(x, a, 0.5)) for i, a in enumerate(rows)]
        _lane_rows_match(OracleFamily(oracles), idx, X)
