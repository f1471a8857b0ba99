import csv
import gc
import json
import math
import struct
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from helpers import (SELECTION_1D_OPTIMUM, ball_dist_eval, outer_quad_anchor_eval,
                     reference_split, write_idx)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedbilevel import cli
from fedbilevel.config import PROBLEMS, ExperimentConfig
from fedbilevel.data import make_synthetic_logistic
from fedbilevel.federation import METHODS, STRATEGIES
from fedbilevel.oracles import EvalResult
from fedbilevel.problem import BoxConstraint, ProblemSpec

SYNTHETIC_CFG = Path(__file__).resolve().parents[1] / "configs" / "logistic-synthetic.cfg"
SELECTION_CFG = SYNTHETIC_CFG.with_name("selection-1d.cfg")


def _config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def _mnist_cfg(tmp_path):
    """A logistic-mnist config whose image and label files do not exist."""
    return _config(tmp_path, "problem = logistic-mnist\n"
                             "images_path = missing.idx\nlabels_path = missing.idx\n")


def _config_error(tmp_path, capsys, argv, named):
    """``cli.main(argv)``, with ``--out`` two levels below ``tmp_path``, exits
    2 before it makes a directory, and its ``config error:`` line on stderr
    holds ``named``."""
    out = tmp_path / "a" / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err, err
    assert not (tmp_path / "a").exists()


def _make_cfg(pairs):
    cfg = ExperimentConfig()
    for key, value in pairs:
        cfg.set_key(key, value)
    return cfg.resolve()


def _execute(cfg):
    """``cli.execute`` with an ``emit`` that keeps every record; returns
    (records, failures)."""
    records = []
    failures = cli.execute(cfg, cli._plan(cfg), emit=lambda run_id, record: records.append(
        (run_id, record)))
    return records, failures


class TestExecute:
    def test_selection_default_converges_both_methods(self):
        cfg = _make_cfg([("problem", "selection-1d"), ("max_rounds", "5000")])
        records, failures = _execute(cfg)
        assert not failures
        assert len(records) == 2  # fism + irig
        for _, record in records:
            assert abs(record.final_x[0] - SELECTION_1D_OPTIMUM) <= 1e-2

    def test_location_simulated_time_decreases_with_clients(self):
        cfg = _make_cfg([("problem", "location"), ("n", "10"), ("m", "500"),
                         ("methods", "fism"), ("s_values", "1,2,4,8"),
                         ("max_rounds", "15"), ("tol", "none"), ("seed", "1")])
        records, failures = _execute(cfg)
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
            out.mkdir()
            records, failures = _execute(cfg)
            assert not failures
            cli.write_summary([record.summary_dict() for _, record in records],
                              out / "summary.csv")
            # each repeat's summary names its own seed, the base seed plus the repeat
            for _, record in records:
                summary = record.summary_dict()
                assert summary["seed"] == 5 + summary["config"]["repeat"]
                assert summary["seed"] == summary["config"]["run_seed"]
            assert {record.config["repeat"] for _, record in records} == {0, 1, 2}
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_summary_mean_of_finite_values_is_finite(self, tmp_path):
        # Three runs at the largest double sum past it, and their means are
        # still that double. A cell whose sum does not overflow keeps
        # np.mean's bits: 1.55, where the scaled mean reads 1.5500000000000003.
        big = 1.7976931348623157e308
        runs = [{"problem_id": "location", "method": "fism", "n_clients": s, "rounds": 1,
                 "total_time_units": t, "final_inner_value": t, "final_outer_value": -t,
                 "test_accuracy": None} for s, t in [(1, big)] * 3 + [(2, 3.0), (2, 0.1)]]
        cli.write_summary(runs, tmp_path / "summary.csv")
        with open(tmp_path / "summary.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        means = ("sim_time_mean", "final_inner_mean", "final_outer_mean")
        assert [[row[key] for key in means] for row in rows] == [
            [repr(big), repr(big), repr(-big)], ["1.55", "1.55", "-1.55"]]

    def test_failed_run_is_isolated(self):
        # two cost multipliers price the S=2 run only; the S=4 run fails alone
        cfg = _make_cfg([("problem", "selection-1d"), ("m", "4"),
                         ("s_values", "2,4"), ("methods", "fism"),
                         ("client_cost_scale", "1,1"), ("max_rounds", "10")])
        records, failures = _execute(cfg)
        assert len(records) == 1
        assert len(failures) == 1
        assert "S4" in failures[0][0]


class TestStreaming:
    """A sweep writes each run when it finishes and keeps no finished record."""

    SWEEP = "problem = selection-1d\nmax_rounds = 40\nrepeats = 2\n"
    RUN_IDS = ["selection-1d_fism_S1_rep0", "selection-1d_fism_S1_rep1",
               "selection-1d_irig_S1_rep0", "selection-1d_irig_S1_rep1"]

    def _sweep(self, tmp_path, monkeypatch, before_run):
        """Sweep ``SWEEP`` into ``tmp_path/out``, calling ``before_run(out,
        refs)`` as each ``run_solver`` call starts, where ``refs`` holds weak
        references to the records of the earlier calls; returns (refs, exit
        code)."""
        orig = cli.run_solver
        refs = []
        out = tmp_path / "out"

        def run_solver(*args, **kwargs):
            before_run(out, refs)
            result = orig(*args, **kwargs)
            refs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(cli, "run_solver", run_solver)
        path = _config(tmp_path, self.SWEEP)
        code = cli.main(["sweep", str(path), "--out", str(out)])
        return refs, code

    def test_previous_record_is_freed_before_the_next_run(self, tmp_path, monkeypatch, capsys):
        alive = []

        def before_run(out, refs):
            gc.collect()
            alive.append([ref() is not None for ref in refs])

        refs, code = self._sweep(tmp_path, monkeypatch, before_run)
        assert code == 0 and len(refs) == 4
        assert alive == [[], [False], [False, False], [False, False, False]]

    def test_finished_runs_are_on_disk_before_the_next_run(self, tmp_path, monkeypatch,
                                                          capsys):
        seen = []

        def before_run(out, refs):
            seen.append(sorted(path.name for path in out.iterdir()))

        _, code = self._sweep(tmp_path, monkeypatch, before_run)
        assert code == 0 and len(seen) == 4
        for k, names in enumerate(seen):
            assert names == sorted(f"{run_id}.{ext}" for run_id in self.RUN_IDS[:k]
                                   for ext in ("json", "jsonl"))
        assert json.loads((tmp_path / "out" / f"{self.RUN_IDS[0]}.json").read_text())[
            "rounds"] == 40

    def test_write_error_stops_the_sweep_and_keeps_written_runs(self, tmp_path, monkeypatch,
                                                               capsys):
        orig = cli.write_rows_jsonl
        calls = []

        def write_rows_jsonl(record, path):
            calls.append(path)
            if len(calls) == 2:  # the second run: part of the file, then a full disk
                Path(path).write_text('{"k": 1', encoding="utf-8")
                raise OSError(28, "No space left on device")
            orig(record, path)

        monkeypatch.setattr(cli, "write_rows_jsonl", write_rows_jsonl)
        path = _config(tmp_path, self.SWEEP)
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out", str(out)]) == 3
        assert len(calls) == 2  # no run after the failed one
        first = self.RUN_IDS[0]
        assert sorted(p.name for p in out.iterdir()) == [f"{first}.json", f"{first}.jsonl"]
        summary = json.loads((out / f"{first}.json").read_text())
        rows = (out / f"{first}.jsonl").read_text().splitlines()
        assert summary["rounds"] == len(rows) == 40
        assert [json.loads(row)["k"] for row in rows] == list(range(1, 41))
        err = capsys.readouterr().err
        assert "data error" in err and f"{self.RUN_IDS[1]}.jsonl" in err

    def test_interrupted_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "run.json"
        target.write_text("old", encoding="utf-8")

        def write(data, path):
            Path(path).write_text(data, encoding="utf-8")
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            cli._write_atomic(write, "new", target)
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
        assert target.read_text(encoding="utf-8") == "old"


class TestSyntheticSplit:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 25), st.integers(0, 25), st.integers(0, 1000))
    def test_bitwise_equal_to_fancy_index_split(self, n, train_half, test_half, seed):
        m, test_size = 2 * train_half, 2 * test_half
        pool, _ = make_synthetic_logistic(n, m + test_size, 0.3, seed=seed)
        want = reference_split(pool.features, pool.labels, m)
        train, test = make_synthetic_logistic(n, m, 0.3, seed=seed, test_size=test_size)
        got = (train.features, train.labels, test.features, test.labels)
        for part, ref in zip(got, want):
            assert part.dtype == ref.dtype and part.shape == ref.shape
            assert part.tobytes() == ref.tobytes()
        assert (train.name, test.name) == (pool.name, pool.name + "-heldout")

    def test_base_problem_holds_the_pool_once(self):
        cfg = _make_cfg([("problem", "logistic-synthetic"), ("n", "256"), ("m", "4000"),
                         ("test_size", "100")])
        tracemalloc.start()
        try:
            problem, heldout = cli._base_problem(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (problem.n_inner, len(heldout)) == (4000, 100)
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

    def test_run_memory_does_not_grow_with_the_sweep(self, tmp_path, capsys):
        # run computes the sweep's first run alone: listing the whole plan
        # held methods x s_values x repeats entries, about 70 MiB at this size.
        argv = ["run", str(SELECTION_CFG), "--out", str(tmp_path / "out"),
                "--set", "max_rounds=5", "--set", "repeats=200000"]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

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

    def test_config_error_exit_code(self, tmp_path, capsys):
        for line, named in [("bogus = 1", "line 2: unknown key 'bogus'"),
                            ("max_rounds", "line 2: expected 'key = value'")]:
            path = _config(tmp_path, f"problem = selection-1d\n{line}\n")
            _config_error(tmp_path, capsys, ["run", str(path)], named)

    @pytest.mark.parametrize("flags", [["--set", "out_dir="], ["--out", ""]],
                             ids=["set", "out"])
    def test_empty_out_dir_is_config_error(self, tmp_path, monkeypatch, capsys, flags):
        # an empty out_dir wrote the run's files into the current directory
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", str(SELECTION_CFG), "--set", "max_rounds=3", *flags]) == 2
        assert "out_dir must not be empty" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_seed_and_out_flags_win_over_set(self, tmp_path):
        out, other = tmp_path / "out", tmp_path / "other"
        assert cli.main(["run", str(SELECTION_CFG), "--seed", "3", "--out", str(out),
                         "--set", "max_rounds=3", "--set", "seed=7",
                         "--set", f"out_dir={other}"]) == 0
        summary = json.loads((out / "selection-1d_fism_S1_rep0.json").read_text())
        assert summary["seed"] == 3 and summary["config"]["out_dir"] == str(out)
        assert not other.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_undecodable_config_file_is_config_error(self, tmp_path, capsys, command):
        # \xff is no UTF-8 text: a traceback and exit 1 ("partial run failures") before
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"problem = selection-1d\n\xff\n")
        _config_error(tmp_path, capsys, [command, str(path)], f"cannot read config file {path}")

    def test_schedule_preset_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, ["sweep", str(SELECTION_CFG),
                                         "--set", "schedule_preset=selection"],
                      "unknown key 'schedule_preset'")

    @pytest.mark.parametrize("setting", ["s_values=1,1", "methods=fism,irig,fism"])
    def test_repeated_grid_entry_is_config_error(self, tmp_path, capsys, setting):
        _config_error(tmp_path, capsys, ["sweep", str(SELECTION_CFG), "--set", setting],
                      f"{setting.partition('=')[0]} must not repeat")

    @pytest.mark.parametrize("key", ["test_images_path", "test_labels_path"])
    def test_half_set_heldout_pair_is_config_error(self, tmp_path, capsys, key):
        _config_error(tmp_path, capsys, ["run", str(_mnist_cfg(tmp_path)),
                                         "--set", f"{key}=missing.idx"],
                      "test_images_path and test_labels_path must be set together")

    @pytest.mark.parametrize("setting", ["test_size=1", "margin=9"])
    def test_synthetic_data_config_error_exit_code(self, tmp_path, capsys, setting):
        # rejected before any data is drawn
        _config_error(tmp_path, capsys, ["run", str(SYNTHETIC_CFG), "--set", setting],
                      setting.partition("=")[0])

    @pytest.mark.parametrize("paths", ["", "images_path = images.idx\n",
                                       "labels_path = labels.idx\n"])
    def test_mnist_without_data_paths_is_config_error(self, tmp_path, capsys, paths):
        path = _config(tmp_path, f"problem = logistic-mnist\n{paths}")
        _config_error(tmp_path, capsys, ["sweep", str(path)], "config error: logistic-mnist needs")

    @pytest.mark.parametrize("setting", ["pos_digit=12", "neg_digit=-1"])
    def test_mnist_digit_outside_0_to_9_is_config_error(self, tmp_path, capsys, setting):
        key, _, value = setting.partition("=")
        _config_error(tmp_path, capsys, ["run", str(_mnist_cfg(tmp_path)), "--set", setting],
                      f"{key} must be a digit from 0 to 9, got {value}")

    def test_mnist_digit_absent_from_the_labels_is_data_error(self, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(np.zeros((4, 2, 2), dtype=np.uint8), images)
        write_idx(np.array([0, 3, 0, 3], dtype=np.uint8), labels)
        path = _config(tmp_path, f"problem = logistic-mnist\nimages_path = {images}\n"
                                 f"labels_path = {labels}\npos_digit = 1\nneg_digit = 0\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 3
        assert "no samples with digit 1" in capsys.readouterr().err
        assert not out.exists()

    def test_data_error_exit_code(self, tmp_path):
        assert cli.main(["run", str(_mnist_cfg(tmp_path)), "--out", str(tmp_path / "out")]) == 3

    def test_data_error_removes_the_directories_it_made(self, tmp_path):
        path = _mnist_cfg(tmp_path)
        assert cli.main(["sweep", str(path), "--out", str(tmp_path / "a" / "b")]) == 3
        assert not (tmp_path / "a").exists()

    def test_overflowing_idx_header_is_data_error(self, tmp_path, capsys):
        # An image header of 2^31 x 2^31 x 4 with no payload: its byte count
        # wraps to 0 in int64, but it is a malformed file, not a crash.
        images = tmp_path / "images.idx"
        images.write_bytes(struct.pack(">4I", 0x00000803, 2**31, 2**31, 4))
        write_idx(np.array([0, 1], dtype=np.uint8), tmp_path / "labels.idx")
        path = _config(tmp_path, f"problem = logistic-mnist\nimages_path = {images}\n"
                                 f"labels_path = {tmp_path / 'labels.idx'}\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "a" / "out")]) == 3
        assert "data error:" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_memory_error_building_data_is_data_error(self, tmp_path, monkeypatch, capsys):
        def make_synthetic_logistic(*args, **kwargs):
            raise MemoryError("Unable to allocate the features")

        monkeypatch.setattr(cli, "make_synthetic_logistic", make_synthetic_logistic)
        out = tmp_path / "a" / "out"
        assert cli.main(["sweep", str(SYNTHETIC_CFG), "--out", str(out)]) == 3
        assert "data error: Unable to allocate" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_data_error_keeps_directories_that_existed(self, tmp_path):
        path = _mnist_cfg(tmp_path)
        keep, empty = tmp_path / "keep", tmp_path / "empty"
        keep.mkdir()
        empty.mkdir()
        (keep / "notes.txt").write_text("kept", encoding="utf-8")
        assert cli.main(["sweep", str(path), "--out", str(keep / "new" / "out")]) == 3
        assert not (keep / "new").exists()
        assert (keep / "notes.txt").read_text(encoding="utf-8") == "kept"
        assert cli.main(["sweep", str(path), "--out", str(empty)]) == 3
        assert empty.is_dir()

    @pytest.mark.parametrize("key, text", [
        # two cost multipliers price the S=2 run only; the S=4 run fails alone
        ("client_cost_scale", "problem = selection-1d\nm = 4\nclient_cost_scale = 1,1\n"
                              "s_values = 2,4\n"),
        # three communication costs price neither S=1 nor S=2: every run fails
        ("comm_cost", "problem = location\nn = 2\nm = 10\ncomm_cost = 1,2,3\n"
                      "s_values = 1,2\n"),
    ], ids=["client_cost_scale", "comm_cost"])
    def test_partial_failure_exit_code(self, tmp_path, capsys, key, text):
        path = _config(tmp_path, text + "methods = fism\nmax_rounds = 10\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out", str(out)]) == 1
        assert f"ConfigError: {key}" in capsys.readouterr().err

    def test_empty_comm_cost_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, ["sweep", str(SYNTHETIC_CFG), "--set", "comm_cost="],
                      "comm_cost must not be empty")

    def test_empty_client_cost_scale_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, ["sweep", str(SYNTHETIC_CFG),
                                         "--set", "client_cost_scale="],
                      "client_cost_scale must not be empty")

    def test_selection_dimension_other_than_1_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, ["run", str(SELECTION_CFG), "--set", "n=5"], "n = 5")

    def test_mnist_dimension_key_is_config_error(self, tmp_path, capsys):
        # n and m come from the images; a set n or m was ignored
        for key in ("n", "m"):
            _config_error(tmp_path, capsys, ["run", str(_mnist_cfg(tmp_path)),
                                             "--set", f"{key}=5"], f"{key} must not be set")

    def test_heldout_image_size_mismatch_is_data_error(self, tmp_path, capsys):
        # caught before any run, where it failed every run at its accuracy
        rng = np.random.default_rng(0)
        for name, shape in [("train", (40, 4, 5)), ("test", (40, 4, 6))]:
            write_idx(rng.integers(0, 256, shape), tmp_path / f"{name}-images.idx")
            write_idx(np.arange(40) % 3, tmp_path / f"{name}-labels.idx")
        path = _config(tmp_path, f"problem = logistic-mnist\nmax_rounds = 3\n"
                                 f"images_path = {tmp_path}/train-images.idx\n"
                                 f"labels_path = {tmp_path}/train-labels.idx\n"
                                 f"test_images_path = {tmp_path}/test-images.idx\n"
                                 f"test_labels_path = {tmp_path}/test-labels.idx\n")
        out = tmp_path / "a" / "out"
        assert cli.main(["sweep", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "held-out images have 24 pixels, the training images 20" in err
        assert "FAILED" not in err
        assert not (tmp_path / "a").exists()

    def test_mnist_summary_echoes_the_image_shape(self, tmp_path):
        # n and m come from the images; logistic-mnist has no default for either
        rng = np.random.default_rng(0)
        write_idx(rng.integers(0, 256, (40, 4, 5)), tmp_path / "images.idx")
        write_idx(np.arange(40) % 3, tmp_path / "labels.idx")
        path = _config(tmp_path, f"problem = logistic-mnist\nmax_rounds = 3\n"
                                 f"images_path = {tmp_path}/images.idx\n"
                                 f"labels_path = {tmp_path}/labels.idx\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "logistic-mnist_fism_S1_rep0.json").read_text())
        assert summary["config"]["n"] == summary["dimension"] == 20
        assert summary["config"]["m"] == summary["n_inner"] == 27

    def test_s_values_above_m_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, ["sweep", str(SELECTION_CFG), "--set", "s_values=1,2"],
                      "s_values must not exceed m = 1")

    @pytest.mark.parametrize("setting", [
        "gamma1=nan", "a=inf", "lambda1=nan", "b=-inf", "tol=nan", "unit_cost=nan",
        "comm_cost=nan", "client_cost_scale=inf"])
    def test_non_finite_float_is_config_error(self, tmp_path, capsys, setting):
        _config_error(tmp_path, capsys, ["sweep", str(SELECTION_CFG), "--set", setting],
                      f"{setting.partition('=')[0]} must be finite")

    def test_non_finite_margin_is_config_error(self, tmp_path, capsys):
        # margin was missing from a hand-kept list of float keys, so the NaN
        # reached the run summary, which strict JSON parsers then rejected
        _config_error(tmp_path, capsys, ["run", str(SYNTHETIC_CFG.with_name("location.cfg")),
                                         "--set", "margin=nan"], "margin must be finite")

    def test_infinite_cost_product_fails_the_runs(self, tmp_path, capsys):
        # Two finite settings whose product overflows: the cost model rejects
        # the infinite cost, so no row reads an infinite round time.
        out = tmp_path / "out"
        assert cli.main(["sweep", str(SELECTION_CFG), "--out", str(out),
                         "--set", "unit_cost=1e200", "--set", "client_cost_scale=1e200",
                         "--set", "max_rounds=3"]) == 1
        err = capsys.readouterr().err
        assert err.count("per-update costs must be finite and nonnegative, got inf") == 2
        assert not list(out.glob("*.json*"))
        with open(out / "summary.csv", newline="") as f:
            assert len(list(csv.reader(f))) == 1  # the header only

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
            clients=[[inner]],
            outer=lambda x: outer_quad_anchor_eval(x, np.array([2.0])),
            constraint=BoxConstraint.symmetric(1, 10.0), mu_H=1.0, name="selection-1d")
        monkeypatch.setattr(cli, "_base_problem", lambda cfg: (prob, None))
        path = _config(tmp_path, "problem = selection-1d\nmethods = fism\nmax_rounds = 50\n"
                                 "gamma1 = 0.1\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out", str(out)]) == 1
        summary = json.loads((out / "selection-1d_fism_S1_rep0.json").read_text())
        assert summary["stop_reason"] == "non-finite"
        assert summary["rounds"] == 2
        assert (out / "selection-1d_fism_S1_rep0.jsonl").exists()
        assert (out / "summary.csv").exists()

    def test_sweep_builds_its_problem_once(self, tmp_path, monkeypatch):
        # Runs differ only in their split of the inner functions, so the
        # eight runs of this sweep share one built problem.
        built = []
        orig = cli.location_problem

        def location_problem(*args):
            built.append(args)
            return orig(*args)

        monkeypatch.setattr(cli, "location_problem", location_problem)
        path = _config(tmp_path, "problem = location\nn = 4\nm = 24\ns_values = 1,4\n"
                                 "repeats = 2\nmax_rounds = 3\ntol = none\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", str(path), "--out", str(out)]) == 0
        assert len(list(out.glob("*.json"))) == 8
        assert len(built) == 1

    @pytest.mark.parametrize("setting", ["a=1000", "b=2000"])
    def test_overflowing_schedule_exponent_runs(self, tmp_path, setting):
        # k**a overflows a float from round 3 (k**b from round 2); the step
        # or weight is then 0 and the run completes
        out = tmp_path / "out"
        code = cli.main(["run", str(SELECTION_CFG), "--out", str(out), "--set", setting,
                         "--set", "max_rounds=10"])
        assert code == 0
        summary = json.loads((out / "selection-1d_fism_S1_rep0.json").read_text())
        assert summary["rounds"] == 10
        assert math.isfinite(summary["final_x"][0])
        assert (out / "selection-1d_fism_S1_rep0.jsonl").exists()

    def test_threads_flag_is_rejected(self, tmp_path):
        path = _config(tmp_path, "problem = selection-1d\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", str(path), "--threads", "2"])
        assert exc.value.code == 2

    def test_equal_digits_is_config_error(self, tmp_path, capsys):
        _config_error(tmp_path, capsys, ["run", str(_mnist_cfg(tmp_path)),
                                         "--set", "pos_digit=1", "--set", "neg_digit=1"],
                      "pos_digit and neg_digit must differ")

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest", "--points", "20", "--pairs", "20"]) == 0
        out = capsys.readouterr().out
        assert "PASS finite-difference logistic" in out
        assert "FAIL" not in out

    def test_selftest_default_report(self, capsys):
        assert cli.main(["selftest"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS finite-difference logistic (0 failing coordinates)",
            "PASS finite-difference ball-distance (0 failing coordinates)",
            "PASS finite-difference l1-quad (0 failing coordinates)",
            "PASS finite-difference quad-anchor (0 failing coordinates)",
            "PASS subgradient-inequality logistic (0 failing pairs)",
            "PASS subgradient-inequality ball-distance (0 failing pairs)",
            "PASS subgradient-inequality l1-quad (0 failing pairs)",
            "PASS subgradient-inequality quad-anchor (0 failing pairs)",
            "PASS stacked-values logistic (0 failing stacks)",
            "PASS stacked-values ball-distance (0 failing stacks)",
            "PASS stacked-values l1-quad (0 failing stacks)",
            "PASS stacked-values quad-anchor (0 failing stacks)",
            "PASS lane-subgrads logistic (0 failing stacks)",
            "PASS lane-subgrads ball-distance (0 failing stacks)",
            "PASS lane-subgrads closures (0 failing stacks)",
            "PASS projection idempotence (0 failing pairs)",
            "PASS projection nonexpansiveness (0 failing pairs)",
            "PASS projection interior-identity (0 failing pairs)",
            "PASS projection feasibility (0 failing pairs)",
        ]

    @pytest.mark.parametrize("flag, raw", [("--points", "0"), ("--pairs", "-3"),
                                           ("--points", "x")])
    def test_selftest_rejects_counts_below_1(self, capsys, flag, raw):
        # a count of 0 ran no case and printed every check as PASS
        with pytest.raises(SystemExit) as exc:
            cli.main(["selftest", flag, raw])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "PASS" not in captured.out

    def test_inspect_prints_summary(self, tmp_path, capsys):
        path = _config(tmp_path, "problem = selection-1d\nmax_rounds = 50\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        record = out / "selection-1d_fism_S1_rep0.json"
        assert cli.main(["inspect", str(record)]) == 0
        printed = capsys.readouterr().out
        assert "selection-1d" in printed
        assert "rounds:   50" in printed
        # the selection-1d schedule gives gamma1 * lambda1 * mu_H = 1 <= 2m = 2
        assert "b=0.4 feasible=True" in printed

    def test_inspect_non_object_is_data_error(self, tmp_path, capsys):
        record = tmp_path / "list.json"
        record.write_text("[1, 2]", encoding="utf-8")
        assert cli.main(["inspect", str(record)]) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [b'{"rounds": 3}\xff', b"\xff\xfe{}", b"{"])
    def test_inspect_unreadable_file_is_data_error_naming_it(self, tmp_path, capsys, data):
        # bytes that are not UTF-8 (a traceback and exit 1 before) or not JSON
        record = tmp_path / "summary.json"
        record.write_bytes(data)
        assert cli.main(["inspect", str(record)]) == 3
        captured = capsys.readouterr()
        assert f"data error: {record}" in captured.err and not captured.out

    @pytest.mark.parametrize("drop, lacking", [
        (None, "schedule"), ("method", "'method'"), ("stop_reason", "'stop_reason'"),
        ("schedule.feasible", "'feasible'")])
    def test_inspect_non_summary_object_is_data_error(self, tmp_path, capsys, drop, lacking):
        # {} printed seven lines of None and exited 0 before
        path = _config(tmp_path, "problem = selection-1d\nmax_rounds = 5\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        record = out / "selection-1d_fism_S1_rep0.json"
        summary = json.loads(record.read_text(encoding="utf-8"))
        if drop is None:
            summary = {}
        else:
            *parents, key = drop.split(".")
            del (summary[parents[0]] if parents else summary)[key]
        record.write_text(json.dumps(summary), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["inspect", str(record)]) == 3
        captured = capsys.readouterr()
        assert not captured.out
        assert "data error" in captured.err and str(record) in captured.err
        assert lacking in captured.err

    @pytest.mark.parametrize("schedule", ["1", "[0.5]", '"fixed"', "null"])
    def test_inspect_non_object_schedule_is_data_error(self, tmp_path, capsys, schedule):
        record = tmp_path / "summary.json"
        record.write_text(f'{{"schedule": {schedule}, "rounds": 3}}', encoding="utf-8")
        assert cli.main(["inspect", str(record)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "schedule" in err


# Override domains for the CLI property: each key's valid range on small
# instances (m <= 50, n <= 20, max_rounds <= 5) plus edge values. ``{data}``
# stands for a directory holding a small IDX image/label pair.
_INT_EDGES = ("0", "-1", "1e3", "nan", "inf", "", "none")
_FLOAT_EDGES = ("0", "-0.0", "-1", "nan", "inf", "-inf", "", "none", "1e308", "5e-324")


def _int_key(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(_INT_EDGES))


def _float_key(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr), st.sampled_from(_FLOAT_EDGES))


def _list_key(entry):
    # empty lists and repeated entries included
    return st.lists(entry, max_size=4).map(",".join)


_PATHS = st.sampled_from(["", "{data}/images.idx", "{data}/labels.idx", "{data}/missing.idx"])
_OVERRIDES = {
    "problem": st.sampled_from(PROBLEMS + ("bogus",)),
    "n": _int_key(1, 20),
    "m": _int_key(1, 50),
    "seed": st.one_of(st.integers(-2**70, 2**70).map(str), st.sampled_from(_INT_EDGES)),
    "methods": _list_key(st.sampled_from(METHODS + ("sgd",))),
    "s_values": _list_key(st.integers(-1, 60).map(str)),
    "gamma1": _float_key(1e-3, 1e3),
    "a": _float_key(0.0, 2.0),
    "lambda1": _float_key(1e-3, 1e3),
    "b": _float_key(0.0, 2.0),
    "max_rounds": _int_key(1, 5),
    "tol": _float_key(1e-12, 1.0),
    "repeats": _int_key(1, 2),
    "margin": _float_key(0.0, 1.0),
    "test_size": _int_key(0, 20),
    "pos_digit": _int_key(0, 9),
    "neg_digit": _int_key(0, 9),
    "images_path": _PATHS,
    "labels_path": _PATHS,
    "test_images_path": _PATHS,
    "test_labels_path": _PATHS,
    "partition": st.sampled_from(STRATEGIES + ("bogus",)),
    "unit_cost": _float_key(0.0, 10.0),
    "comm_cost": _list_key(_float_key(0.0, 10.0)),
    "client_cost_scale": _list_key(_float_key(0.0, 10.0)),
    "write_csv": st.sampled_from(["true", "false", "maybe"]),
}
_SETTING = st.one_of(
    st.sampled_from(sorted(_OVERRIDES)).flatmap(
        lambda key: _OVERRIDES[key].map(lambda raw: f"{key}={raw}")),
    st.sampled_from(["colour=red", "max_rounds", "=1"]))


class TestCliProperty:
    """No ``--set`` override, however invalid, escapes ``main`` as an
    exception, and each exit code leaves the outputs it promises."""

    @settings(max_examples=150, deadline=None)
    @given(base=st.sampled_from(PROBLEMS), command=st.sampled_from(["run", "sweep"]),
           settings_=st.lists(_SETTING, max_size=6),
           seed=st.none() | st.integers(-2**70, 2**70))
    # m = 12 updates of 1e308 overflow every round time: written as Infinity with exit 0
    @example(base="location", command="sweep", settings_=["unit_cost=1e308"], seed=None)
    # two runs of m = 500 at 5e305 a unit each total 1.25e308: their sum overflows
    @example(base="location", command="sweep", seed=None,
             settings_=["m=500", "s_values=2", "repeats=2", "max_rounds=1", "unit_cost=5e305",
                        "methods=fism"])
    def test_main_exits_0_to_3_and_leaves_clean_outputs(self, base, command, settings_, seed):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            data = tmp / "data"
            data.mkdir()
            rng = np.random.default_rng(0)
            write_idx(rng.integers(0, 256, (40, 4, 5)), data / "images.idx")
            write_idx(np.arange(40) % 3, data / "labels.idx")
            # selection-1d has dimension 1; logistic-mnist takes n and m from the images
            n = {"selection-1d": "n = 1\n", "logistic-mnist": ""}.get(base, "n = 4\n")
            m = "" if base == "logistic-mnist" else "m = 12\n"
            path = _config(data, f"problem = {base}\n{n}{m}max_rounds = 3\n"
                                 f"test_size = 10\ns_values = 1, 2\n"
                                 f"images_path = {data}/images.idx\n"
                                 f"labels_path = {data}/labels.idx\n")
            out = tmp / "a" / "out"
            argv = [command, str(path), "--out", str(out)]
            for setting in settings_:
                argv += ["--set", setting.replace("{data}", str(data))]
            if seed is not None:
                argv += ["--seed", str(seed)]
            code = cli.main(argv)
            assert code in (0, 1, 2, 3)
            assert not list(tmp.rglob("*.tmp"))
            if code == 0:  # every number written is finite
                def refuse(constant):
                    raise ValueError(f"{constant} written with exit 0")
                for path in out.glob("*.json*"):
                    text = path.read_text(encoding="utf-8")
                    for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
                        json.loads(doc, parse_constant=refuse)
                for path in out.glob("*.csv"):
                    with open(path, newline="", encoding="utf-8") as f:
                        cells = {cell.lower() for row in csv.reader(f) for cell in row}
                    assert not cells & {"inf", "-inf", "nan"}, path
            if code == 2:
                assert not (tmp / "a").exists()  # rejected before anything is written
            if code == 3:
                for made in (out, tmp / "a"):
                    assert not made.exists() or any(made.iterdir())
