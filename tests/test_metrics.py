import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from helpers import (RateDiagnosticUnavailable, ball_dist_eval, outer_quad_anchor_eval,
                     rate_diagnostic, record_of_rows, synthetic_separator)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedbilevel.data import LabeledDataset, make_synthetic_logistic
from fedbilevel.federation import METHODS, partition_data, round_time, uniform_costs
from fedbilevel.instances import location_problem, logistic_problem, selection_1d_problem
from fedbilevel.metrics import (_CHUNK, ROW_FIELDS, RoundRow, accuracy, write_rows_csv,
                                write_rows_jsonl, write_run_json)
from fedbilevel.oracles import EvalResult
from fedbilevel.problem import BoxConstraint, ProblemSpec, StepSchedule
from fedbilevel.solvers import run_solver


def _fake_record(gaps, f_star=0.0):
    return record_of_rows([
        RoundRow(k=k, inner_value=0.0, inner_value_mean=0.0,
                 inner_value_avg_iterate=f_star + g, outer_value=0.0,
                 step_norm=0.0, round_time_units=1.0, total_time_units=float(k),
                 inner_subgrad_evals=k, outer_subgrad_evals=k, wall_clock_sec=0.0)
        for k, g in enumerate(gaps, start=1)])


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                                1.7976931348623157e308, -1.7976931348623157e308,
                                math.nan, math.inf, -math.inf])
_FLOATS = st.floats() | _EDGE_FLOATS
_FLOAT_LIKE = _FLOATS | _FLOATS.map(np.float64)
_INT64 = st.integers(min_value=-2**63, max_value=2**63 - 1) | st.sampled_from(
    [-2**63, 2**63 - 1])
_INT_FIELDS = ("k", "inner_subgrad_evals", "outer_subgrad_evals")


@st.composite
def _row_lists(draw):
    """Rows from the columns' domain: int64 ints for the integer fields, any
    float or numpy float64 for the rest; the count sits at 0, 1, or one
    below, at or above a write chunk."""
    kinds = [_INT64 if name in _INT_FIELDS else _FLOAT_LIKE for name in ROW_FIELDS]
    base = draw(st.lists(st.tuples(*kinds), min_size=1, max_size=6))
    count = draw(st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1]))
    return [RoundRow(*base[i % len(base)]) for i in range(count)]


class TestAccuracy:
    def test_separator_is_perfect(self):
        ds, _ = make_synthetic_logistic(5, 30, margin=0.3, seed=8)
        assert accuracy(synthetic_separator(5, 30, 0.3, seed=8), ds) == 1.0

    def test_anti_separator_is_zero(self):
        ds, _ = make_synthetic_logistic(5, 30, margin=0.3, seed=8)
        assert accuracy(-synthetic_separator(5, 30, 0.3, seed=8), ds) == 0.0

    def test_zero_vector_ties_to_half(self):
        ds, _ = make_synthetic_logistic(5, 30, margin=0.3, seed=8)
        assert accuracy(np.zeros(5), ds) == 0.5  # ties predict +1, classes balanced

    def test_empty_dataset_rejected(self):
        ds = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            accuracy(np.zeros(2), ds)


class TestRateDiagnostic:
    def test_exact_power_law(self):
        ks = np.arange(1, 501)
        rec = _fake_record(ks ** -0.4)
        assert rate_diagnostic(rec, 0.0) == pytest.approx(-0.4, abs=0.01)

    def test_constant_gap(self):
        rec = _fake_record(np.full(500, 0.25))
        assert rate_diagnostic(rec, 0.0) == pytest.approx(0.0, abs=0.01)

    def test_needs_hundred_rounds(self):
        rec = _fake_record(np.ones(50))
        with pytest.raises(ValueError):
            rate_diagnostic(rec, 0.0)

    def test_unavailable_when_all_clipped(self):
        rec = _fake_record(np.zeros(500))
        with pytest.raises(RateDiagnosticUnavailable):
            rate_diagnostic(rec, 0.0)


class TestRecordOutputs:
    def _record(self):
        prob = selection_1d_problem()
        sched = StepSchedule(1, 0.55, 1, 0.4)
        return run_solver(prob, sched, "fism", np.array([3.0]), 20)

    def test_cumulative_time_matches_round_model(self):
        rec = self._record()
        per_round = round_time(uniform_costs((1,)), "fism")
        for i, row in enumerate(rec.rows, start=1):
            assert row.round_time_units == per_round
            assert row.total_time_units == pytest.approx(i * per_round)

    def test_counters_nondecreasing_rows_gapless(self):
        rec = self._record()
        ks = [row.k for row in rec.rows]
        assert ks == list(range(1, len(ks) + 1))
        for a, b in zip(rec.rows, rec.rows[1:]):
            assert b.inner_subgrad_evals >= a.inner_subgrad_evals
            assert b.outer_subgrad_evals >= a.outer_subgrad_evals
            assert b.total_time_units >= a.total_time_units

    def test_json_and_jsonl_round_trip(self, tmp_path):
        rec = self._record()
        write_run_json(rec, tmp_path / "run.json")
        write_rows_jsonl(rec, tmp_path / "run.jsonl")
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["method"] == "fism"
        assert summary["rounds"] == 20
        assert summary["prng"] == "philox4x64"
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        assert len(lines) == 20
        first = json.loads(lines[0])
        assert first["k"] == 1
        assert set(first) == {
            "k", "inner_value", "inner_value_mean", "inner_value_avg_iterate",
            "outer_value", "step_norm", "round_time_units", "total_time_units",
            "inner_subgrad_evals", "outer_subgrad_evals", "wall_clock_sec"}

    def _golden_record(self):
        rows = [RoundRow(1, 2.5, 1.25, float("nan"), float("inf"), 0.1, 1.0, 1.0, 2, 1,
                         0.001),
                RoundRow(2, 1e-300, 5e-301, 0.30000000000000004, float("-inf"), 0.0,
                         0.7, 1.7, 4, 2, 2e-06)]
        return record_of_rows(rows, problem_id="golden", n_clients=2, n_inner=2)

    def test_row_writers_golden_bytes(self, tmp_path):
        rec = self._golden_record()
        write_rows_jsonl(rec, tmp_path / "run.jsonl")
        write_rows_csv(rec, tmp_path / "run.csv")
        assert (tmp_path / "run.jsonl").read_bytes() == (
            b'{"k": 1, "inner_value": 2.5, "inner_value_mean": 1.25, '
            b'"inner_value_avg_iterate": NaN, "outer_value": Infinity, "step_norm": 0.1, '
            b'"round_time_units": 1.0, "total_time_units": 1.0, "inner_subgrad_evals": 2, '
            b'"outer_subgrad_evals": 1, "wall_clock_sec": 0.001}\n'
            b'{"k": 2, "inner_value": 1e-300, "inner_value_mean": 5e-301, '
            b'"inner_value_avg_iterate": 0.30000000000000004, "outer_value": -Infinity, '
            b'"step_norm": 0.0, "round_time_units": 0.7, "total_time_units": 1.7, '
            b'"inner_subgrad_evals": 4, "outer_subgrad_evals": 2, "wall_clock_sec": 2e-06}\n')
        assert (tmp_path / "run.csv").read_bytes() == (
            b"k,inner_value,inner_value_mean,inner_value_avg_iterate,outer_value,step_norm,"
            b"round_time_units,total_time_units,inner_subgrad_evals,outer_subgrad_evals,"
            b"wall_clock_sec\r\n"
            b"1,2.5,1.25,nan,inf,0.1,1.0,1.0,2,1,0.001\r\n"
            b"2,1e-300,5e-301,0.30000000000000004,-inf,0.0,0.7,1.7,4,2,2e-06\r\n")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=_row_lists())
    def test_jsonl_lines_are_json_dumps(self, tmp_path, rows):
        write_rows_jsonl(record_of_rows(rows), tmp_path / "run.jsonl")
        with open(tmp_path / "run.jsonl", encoding="utf-8") as f:
            lines = f.readlines()
        assert lines == [json.dumps(row._asdict()) + "\n" for row in rows]

    def test_no_field_name_holds_a_respelled_token(self):
        # The JSONL writer respells a non-finite chunk's "nan" and "inf"
        # wherever they occur, keys included.
        assert not [name for name in ROW_FIELDS if "nan" in name or "inf" in name]

    def test_columns_reject_what_they_cannot_hold(self):
        # The columns hold int64s and doubles: a value outside them is refused
        # as the record is built, before any writer sees it.
        with pytest.raises(OverflowError):
            record_of_rows([RoundRow(2**63, *([0.0] * 7), 1, 1, 0.0)])
        with pytest.raises(TypeError):
            record_of_rows([RoundRow(1, "0.5", *([0.0] * 6), 1, 1, 0.0)])

    def test_jsonl_writes_in_bounded_chunks(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [RoundRow(k, *rng.random(7).tolist(), k, k, float(rng.random()))
                for k in range(1, 20_001)]
        record = record_of_rows(rows)
        tracemalloc.start()
        try:
            write_rows_jsonl(record, tmp_path / "run.jsonl")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A quarter of these rows as boxed RoundRows (8.08 MB); a whole-record
        # text buffer is larger.
        assert peak < 2_020_000

    def test_rows_are_immutable(self):
        row = self._golden_record().rows[0]
        with pytest.raises(AttributeError):
            row.k = 5
        assert row.k == 1

    def test_csv_rows(self, tmp_path):
        rec = self._record()
        write_rows_csv(rec, tmp_path / "run.csv")
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert len(lines) == 21  # header + rows
        assert lines[0].startswith("k,inner_value,")


def _non_finite_problem():
    def inner(x):  # NaN once the iterate drops below 5.6, in round 2
        if x[0] < 5.6:
            return EvalResult(math.nan, np.full_like(x, math.nan))
        return ball_dist_eval(x, np.array([0.5]), 0.5)

    return ProblemSpec.from_oracles(
        clients=[[inner]],
        outer=lambda x: outer_quad_anchor_eval(x, np.array([2.0])),
        constraint=BoxConstraint.symmetric(1, 10.0), mu_H=1.0, name="nan-selection")


class TestRowTypes:
    """The JSONL fast path takes exact ints and floats; every row a solver
    returns must consist of them."""

    @staticmethod
    def _problems():
        ds, _ = make_synthetic_logistic(4, 40, margin=0.3, seed=2)
        yield selection_1d_problem(), (1.0, 0.55, 1.0, 0.4), None
        yield (location_problem(3, 12, 4, partition_data(12, 3, seed=4)),
               (1.0, 0.8, 1.0, 0.1), 1e-5)
        yield logistic_problem(ds, partition_data(40, 2, seed=1)), (10.0, 0.8, 1.0, 0.1), None
        yield _non_finite_problem(), (0.1, 0.55, 1.0, 0.4), None

    @pytest.mark.parametrize("method", METHODS)
    def test_fields_are_exact_ints_and_floats(self, method):
        stops = set()
        for prob, (g1, a, l1, b), tol in self._problems():
            sched = StepSchedule(g1, a, l1, b)
            x0 = np.full(prob.dimension, 6.0)
            rec = run_solver(prob, sched, method, x0, 40, tol=tol)
            stops.add(rec.stop_reason)
            for row in rec.rows:
                assert [type(v) for v in row] == [
                    int if name in ("k", "inner_subgrad_evals", "outer_subgrad_evals")
                    else float for name in RoundRow._fields]
        assert "non-finite" in stops


class TestColumnRows:
    """A solver run keeps its rows as typed columns; read back, they are the
    rows a list would hold, and they write the bytes json and csv write for
    those rows."""

    @staticmethod
    def _run(gamma1, rounds, method="fism"):
        sched = StepSchedule(gamma1, 0.55, 1, 0.4)
        return run_solver(selection_1d_problem(), sched, method, np.array([3.0]), rounds)

    def test_sequence_reads_match_a_list(self):
        rows = self._run(1, 2 * _CHUNK + 5).rows
        listed = list(rows)
        assert len(rows) == len(listed) == 2 * _CHUNK + 5
        assert all(type(row) is RoundRow for row in listed)
        for index in (0, 1, _CHUNK, -1, -len(rows)):
            assert rows[index] == listed[index]
            assert type(rows[index]) is RoundRow
        for part in (slice(3, 40), slice(-7, None), slice(None, None, -3), slice(5, 5)):
            assert rows[part] == listed[part]
        assert list(reversed(rows)) == listed[::-1]
        assert rows.index(listed[17]) == 17 and listed[17] in rows
        with pytest.raises(IndexError):
            rows[len(rows)]
        with pytest.raises(TypeError):
            rows[0] = listed[1]

    @pytest.mark.parametrize("gamma1, rounds", [(1, 3 * _CHUNK + 1), (1e308, 40)])
    @pytest.mark.parametrize("method", METHODS)
    def test_writes_the_bytes_of_a_list(self, tmp_path, gamma1, rounds, method):
        rec = self._run(gamma1, rounds, method)
        listed = list(rec.rows)
        if gamma1 == 1e308:  # the inf goes through a respelled chunk
            assert rec.stop_reason == "non-finite"
            assert not all(map(math.isfinite, listed[-1]))
        write_rows_jsonl(rec, tmp_path / "run.jsonl")
        write_rows_csv(rec, tmp_path / "run.csv")
        expected_csv = io.StringIO(newline="")
        writer = csv.writer(expected_csv)
        writer.writerow(ROW_FIELDS)
        writer.writerows(listed)
        assert (tmp_path / "run.jsonl").read_text(encoding="utf-8") == "".join(
            json.dumps(row._asdict()) + "\n" for row in listed)
        assert (tmp_path / "run.csv").read_bytes() == expected_csv.getvalue().encode()
        summary = rec.summary_dict()
        assert [summary[name] for name in ROW_FIELDS[-4:-1]] == list(listed[-1][-4:-1])

    def test_summary_of_no_rows(self):
        summary = record_of_rows([]).summary_dict()
        assert [summary[name] for name in ("rounds", *ROW_FIELDS[-4:-1])] == [0, 0.0, 0, 0]
        assert type(summary["total_time_units"]) is float

    def test_library_run_summary_reads_seed_zero_in_key_order(self):
        # Only the CLI labels a run with its seed; summary_dict sets the key order.
        rec = run_solver(selection_1d_problem(), StepSchedule(1, 0.55, 1, 0.4), "fism",
                         np.array([4.0]), 3)
        summary = rec.summary_dict()
        assert summary["seed"] == 0
        assert list(summary) == [
            "method", "problem_id", "schedule", "n_clients", "n_inner", "dimension", "seed",
            "prng", "rounds", "stop_reason", "final_inner_value", "final_outer_value",
            "total_time_units", "inner_subgrad_evals", "outer_subgrad_evals", "test_accuracy",
            "final_x", "final_avg_x", "config"]

    def test_run_rows_stay_below_two_words_a_value(self):
        rounds = 20_000
        problem = selection_1d_problem()
        sched = StepSchedule(1, 0.55, 1, 0.4)
        tracemalloc.start()
        try:
            rec = run_solver(problem, sched, "fism", np.array([3.0]), rounds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rec.rows) == rounds
        assert peak < 2 * 8 * len(ROW_FIELDS) * rounds  # boxed RoundRows take 7.8 MB
