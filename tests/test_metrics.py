import json

import numpy as np
import pytest

from fedbilevel.data import LabeledDataset, make_synthetic_logistic
from fedbilevel.federation import round_time, uniform_costs
from fedbilevel.instances import selection_1d_problem
from fedbilevel.metrics import (RateDiagnosticUnavailable, RoundRow, RunRecord, accuracy,
                                rate_diagnostic, write_rows_csv, write_rows_jsonl,
                                write_run_json)
from fedbilevel.problem import make_schedule
from fedbilevel.solvers import run_solver


def _fake_record(gaps, f_star=0.0):
    rows = [RoundRow(k=k, inner_value=0.0, inner_value_mean=0.0,
                     inner_value_avg_iterate=f_star + g, outer_value=0.0,
                     step_norm=0.0, round_time_units=1.0, total_time_units=float(k),
                     inner_subgrad_evals=k, outer_subgrad_evals=k, wall_clock_sec=0.0)
            for k, g in enumerate(gaps, start=1)]
    x = np.zeros(1)
    return RunRecord(method="fism", problem_id="fake", gamma1=1, a=0.5, lambda1=1,
                     b=0.4, n_clients=1, n_inner=1, dimension=1, seed=0, rows=rows,
                     final_x=x, final_avg_x=x, final_inner_value=0.0,
                     final_outer_value=0.0, stop_reason="max_rounds")


class TestAccuracy:
    def test_separator_is_perfect(self):
        ds = make_synthetic_logistic(5, 30, margin=0.3, seed=8)
        assert accuracy(ds.separator, ds) == 1.0

    def test_anti_separator_is_zero(self):
        ds = make_synthetic_logistic(5, 30, margin=0.3, seed=8)
        assert accuracy(-ds.separator, ds) == 0.0

    def test_zero_vector_ties_to_half(self):
        ds = make_synthetic_logistic(5, 30, margin=0.3, seed=8)
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
        sched = make_schedule(1, 0.55, 1, 0.4, mu_H=1, m=1)
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
        x = np.zeros(1)
        return RunRecord(method="fism", problem_id="golden", gamma1=1, a=0.5,
                         lambda1=1, b=0.4, n_clients=2, n_inner=2, dimension=1, seed=0,
                         rows=rows, final_x=x, final_avg_x=x, final_inner_value=0.0,
                         final_outer_value=0.0, stop_reason="max_rounds")

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
