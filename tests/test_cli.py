import csv
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import (SELECTION_1D_OPTIMUM, ball_dist_eval, outer_quad_anchor_eval,
                     reference_split, write_idx)
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbilevel import cli
from fedbilevel.config import ExperimentConfig
from fedbilevel.data import make_synthetic_logistic
from fedbilevel.oracles import EvalResult
from fedbilevel.problem import BoxConstraint, ProblemSpec

SYNTHETIC_CFG = Path(__file__).resolve().parents[1] / "configs" / "logistic-synthetic.cfg"


def _config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def _quiet(*args, **kwargs):
    pass


def _make_cfg(pairs):
    cfg = ExperimentConfig()
    for key, value in pairs:
        cfg.set_key(key, value)
    return cfg.resolve()


class TestExecute:
    def test_selection_default_converges_both_methods(self):
        cfg = _make_cfg([("problem", "selection-1d"), ("max_rounds", "5000")])
        records, failures = cli.execute(cfg, grid=True, progress=_quiet)
        assert not failures
        assert len(records) == 2  # fism + irig
        for _, record in records:
            assert abs(record.final_x[0] - SELECTION_1D_OPTIMUM) <= 1e-2

    def test_location_simulated_time_decreases_with_clients(self):
        cfg = _make_cfg([("problem", "location"), ("n", "10"), ("m", "500"),
                         ("methods", "fism"), ("s_values", "1,2,4,8"),
                         ("max_rounds", "15"), ("tol", "none"), ("seed", "1")])
        records, failures = cli.execute(cfg, grid=True, progress=_quiet)
        assert not failures
        times = [rec.rows[-1].total_time_units for _, rec in records]
        assert times == sorted(times, reverse=True)
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_repeat_sweep_deterministic_summary(self, tmp_path):
        cfg = _make_cfg([("problem", "selection-1d"), ("max_rounds", "300"),
                         ("repeats", "3"), ("seed", "5")])
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            records, failures = cli.execute(cfg, grid=True, progress=_quiet)
            assert not failures
            cli.write_outputs(records, out, write_csv=False, summary=True)
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_failed_run_is_isolated(self):
        # two cost multipliers price the S=2 run only; the S=4 run fails alone
        cfg = _make_cfg([("problem", "selection-1d"), ("m", "4"),
                         ("s_values", "2,4"), ("methods", "fism"),
                         ("client_cost_scale", "1,1"), ("max_rounds", "10")])
        records, failures = cli.execute(cfg, grid=True, progress=_quiet)
        assert len(records) == 1
        assert len(failures) == 1
        assert "S4" in failures[0][0]


class TestSyntheticSplit:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 25), st.integers(0, 25), st.integers(0, 1000))
    def test_bitwise_equal_to_fancy_index_split(self, n, train_half, test_half, seed):
        pool = make_synthetic_logistic(n, 2 * (train_half + test_half), 0.3, seed=seed)
        want = reference_split(pool.features, pool.labels, 2 * train_half)
        train, test = cli._split_balanced(pool, 2 * train_half)
        got = (train.features, train.labels, test.features, test.labels)
        for part, ref in zip(got, want):
            assert part.dtype == ref.dtype and part.shape == ref.shape
            assert part.tobytes() == ref.tobytes()
        assert train.separator is pool.separator and test.separator is pool.separator

    def test_build_datasets_holds_the_pool_once(self):
        cfg = _make_cfg([("problem", "logistic-synthetic"), ("n", "256"), ("m", "4000"),
                         ("test_size", "100")])
        tracemalloc.start()
        try:
            ctx = cli._build_datasets(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(ctx["train"]), len(ctx["test"])) == (4000, 100)
        assert peak <= 1.25 * (4000 + 100) * 256 * 8


class TestMain:
    def test_run_writes_outputs(self, tmp_path):
        path = _config(tmp_path, "problem = selection-1d\nmax_rounds = 200\n")
        out = tmp_path / "out"
        code = cli.main(["run", str(path), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "selection-1d_fism_S1_rep0.json").read_text())
        assert summary["method"] == "fism"
        assert summary["rounds"] == 200
        assert (out / "selection-1d_fism_S1_rep0.jsonl").exists()
        assert not (out / "summary.csv").exists()  # single runs skip the sweep summary

    def test_sweep_writes_summary(self, tmp_path):
        path = _config(tmp_path, "problem = selection-1d\nmax_rounds = 100\nrepeats = 2\n")
        out = tmp_path / "out"
        code = cli.main(["sweep", str(path), "--out", str(out), "--set", "write_csv=true"])
        assert code == 0
        with open(out / "summary.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][:4] == ["problem", "method", "n_clients", "repeats"]
        assert len(rows) == 3  # header + fism + irig
        assert (out / "selection-1d_fism_S1_rep1.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = _config(tmp_path, "problem = selection-1d\nbogus = 1\n")
        assert cli.main(["run", str(path)]) == 2

    @pytest.mark.parametrize("setting", ["test_size=1", "margin=9"])
    def test_synthetic_data_config_error_exit_code(self, tmp_path, setting):
        out = tmp_path / "out"
        code = cli.main(["run", str(SYNTHETIC_CFG), "--out", str(out),
                         "--set", setting])
        assert code == 2
        assert not out.exists()  # rejected before any data is drawn

    def test_data_error_exit_code(self, tmp_path):
        path = _config(tmp_path, "problem = logistic-mnist\n"
                                 "images_path = missing.idx\nlabels_path = missing.idx\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 3

    def test_data_error_removes_the_directories_it_made(self, tmp_path):
        path = _config(tmp_path, "problem = logistic-mnist\n"
                                 "images_path = missing.idx\nlabels_path = missing.idx\n")
        assert cli.main(["sweep", str(path), "--out", str(tmp_path / "a" / "b")]) == 3
        assert not (tmp_path / "a").exists()

    def test_data_error_keeps_directories_that_existed(self, tmp_path):
        path = _config(tmp_path, "problem = logistic-mnist\n"
                                 "images_path = missing.idx\nlabels_path = missing.idx\n")
        keep, empty = tmp_path / "keep", tmp_path / "empty"
        keep.mkdir()
        empty.mkdir()
        (keep / "notes.txt").write_text("kept", encoding="utf-8")
        assert cli.main(["sweep", str(path), "--out", str(keep / "new" / "out")]) == 3
        assert not (keep / "new").exists()
        assert (keep / "notes.txt").read_text(encoding="utf-8") == "kept"
        assert cli.main(["sweep", str(path), "--out", str(empty)]) == 3
        assert empty.is_dir()

    def test_partial_failure_exit_code(self, tmp_path):
        path = _config(tmp_path, "problem = selection-1d\nm = 4\nclient_cost_scale = 1,1\n"
                                 "s_values = 2,4\nmethods = fism\nmax_rounds = 10\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out", str(out)]) == 1

    def test_s_values_above_m_is_config_error(self, tmp_path):
        path = _config(tmp_path, "problem = selection-1d\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out", str(out), "--set", "s_values=1,2"]) == 2
        assert not out.exists()  # rejected before any run

    @pytest.mark.parametrize("setting", [
        "gamma1=nan", "a=inf", "lambda1=nan", "b=-inf", "tol=nan", "unit_cost=nan",
        "comm_cost=nan", "client_cost_scale=inf"])
    def test_non_finite_float_is_config_error(self, tmp_path, capsys, setting):
        path = _config(tmp_path, "problem = selection-1d\nmax_rounds = 5\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out", str(out), "--set", setting]) == 2
        assert f"{setting.partition('=')[0]} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_is_data_error_before_any_run(self, tmp_path, monkeypatch):
        def run_solver(*args, **kwargs):
            raise AssertionError("a run was computed")

        monkeypatch.setattr(cli, "run_solver", run_solver)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        path = _config(tmp_path, "problem = selection-1d\nmax_rounds = 5\n")
        assert cli.main(["sweep", str(path), "--out", str(blocker / "sub")]) == 3

    def test_non_finite_run_is_written_and_fails(self, tmp_path, monkeypatch):
        def inner(x):  # iterates 6.29, 5.76, then 5.50: NaN at the end of round 2
            if x[0] < 5.6:
                return EvalResult(math.nan, np.full_like(x, math.nan))
            return ball_dist_eval(x, np.array([0.5]), 0.5)

        prob = ProblemSpec.from_oracles(
            dimension=1, clients=[[inner]],
            outer=lambda x: outer_quad_anchor_eval(x, np.array([2.0])),
            constraint=BoxConstraint.symmetric(1, 10.0), mu_H=1.0, name="selection-1d")
        monkeypatch.setattr(cli, "_build_problem", lambda *args: prob)
        path = _config(tmp_path, "problem = selection-1d\nmethods = fism\nmax_rounds = 50\n"
                                 "gamma1 = 0.1\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out", str(out)]) == 1
        summary = json.loads((out / "selection-1d_fism_S1_rep0.json").read_text())
        assert summary["stop_reason"] == "non-finite"
        assert summary["rounds"] == 2
        assert (out / "selection-1d_fism_S1_rep0.jsonl").exists()
        assert (out / "summary.csv").exists()

    def test_threads_flag_is_rejected(self, tmp_path):
        path = _config(tmp_path, "problem = selection-1d\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", str(path), "--threads", "2"])
        assert exc.value.code == 2

    def test_equal_digits_is_config_error(self, tmp_path):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(np.zeros((4, 28, 28), dtype=np.uint8), images)
        write_idx(np.array([0, 1, 0, 1], dtype=np.uint8), labels)
        path = _config(tmp_path, f"problem = logistic-mnist\nimages_path = {images}\n"
                                 f"labels_path = {labels}\npos_digit = 1\nneg_digit = 1\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest", "--points", "20", "--pairs", "20"]) == 0
        out = capsys.readouterr().out
        assert "PASS finite-difference logistic" in out
        assert "FAIL" not in out

    def test_inspect_prints_summary(self, tmp_path, capsys):
        path = _config(tmp_path, "problem = selection-1d\nmax_rounds = 50\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        record = out / "selection-1d_fism_S1_rep0.json"
        assert cli.main(["inspect", str(record)]) == 0
        printed = capsys.readouterr().out
        assert "selection-1d" in printed
        assert "rounds:   50" in printed

    def test_inspect_non_object_is_data_error(self, tmp_path, capsys):
        record = tmp_path / "list.json"
        record.write_text("[1, 2]", encoding="utf-8")
        assert cli.main(["inspect", str(record)]) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("schedule", ["1", "[0.5]", '"fixed"', "null"])
    def test_inspect_non_object_schedule_is_data_error(self, tmp_path, capsys, schedule):
        record = tmp_path / "summary.json"
        record.write_text(f'{{"schedule": {schedule}, "rounds": 3}}', encoding="utf-8")
        assert cli.main(["inspect", str(record)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "schedule" in err
