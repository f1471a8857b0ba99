"""The shipped configs sweep cleanly: the output contract of each, and the
settings that take a shipped config to an edge (overflow, sliced metrics,
no held-out set), and one pass of each benchmark workload under the
benchmark's own output checks. Each test calls ``cli.main`` in-process;
pytest turns a RuntimeWarning into an error, so a run that warns does not
exit 0. One test runs the ``python -m fedbilevel.cli`` process entry point
itself, with RuntimeWarnings as errors, and reads its exit statuses."""
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import workloads

from fedbilevel import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _sweep(tmp_path, name, *settings):
    """``fedbilevel sweep configs/<name>.cfg --out tmp_path/out`` with one
    ``--set`` per setting; returns (exit code, output directory)."""
    out = tmp_path / "out"
    argv = ["sweep", str(CONFIGS / f"{name}.cfg"), "--out", str(out)]
    for setting in settings:
        argv += ["--set", setting]
    return cli.main(argv), out


@pytest.mark.parametrize("name, settings", [
    ("selection-1d", ("max_rounds=5",)),
    ("location", ("max_rounds=5",)),
    ("logistic-synthetic", ("max_rounds=5",)),
    # rows read back from a run's typed columns past several write chunks
    ("selection-1d", ("max_rounds=2000", "write_csv=true")),
], ids=["selection-1d", "location", "logistic-synthetic", "selection-1d-2000-rounds-csv"])
def test_sweep_output_contract(tmp_path, name, settings):
    code, out = _sweep(tmp_path, name, *settings)
    assert code == 0
    assert (out / "summary.csv").stat().st_size > 0
    assert not list(out.glob("*.tmp"))  # every file was renamed into place
    summaries = sorted(out.glob("*.json"))
    assert summaries
    for path in summaries:
        lines = path.with_suffix(".jsonl").read_text(encoding="utf-8").splitlines()
        for line in lines:  # the canonical encoding of its own parse
            assert json.dumps(json.loads(line)) == line
        rounds = json.loads(path.read_text(encoding="utf-8"))["rounds"]
        assert len(lines) == rounds
        if "write_csv=true" in settings:
            rows = path.with_suffix(".csv").read_text(encoding="utf-8").splitlines()[1:]
            assert len(rows) == rounds


def test_overflow_fails_as_non_finite_without_a_warning(tmp_path, capsys):
    code, _ = _sweep(tmp_path, "selection-1d", "gamma1=1e308", "max_rounds=5")
    assert code == 1
    err = capsys.readouterr().err
    assert err and "RuntimeWarning" not in err
    for line in err.splitlines():
        assert re.fullmatch(r"failed: .*non-finite objective value in round \d+", line)


def test_entry_point_exits_with_the_commands_status(tmp_path):
    # python -m runs script_main, whose sys.exit carries main's status out of
    # the process: 0 done, 1 a run failed, 2 a config error, 3 a data error.
    def fedbilevel(*args):
        return subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "fedbilevel.cli", *args],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120)

    selection = str(CONFIGS / "selection-1d.cfg")
    assert fedbilevel("selftest").returncode == 0
    assert fedbilevel("sweep", selection, "--out", "ok", "--set", "max_rounds=5").returncode == 0
    assert (tmp_path / "ok" / "summary.csv").stat().st_size > 0
    shown = fedbilevel("inspect", "ok/selection-1d_fism_S1_rep0.json")
    assert shown.returncode == 0 and "feasible=True" in shown.stdout
    assert fedbilevel("sweep", selection, "--out", "bad", "--set", "gamma1=1e308").returncode == 1
    # the non-finite rows take the JSONL writer's respelled path
    lines = [line for path in sorted((tmp_path / "bad").glob("*.jsonl"))
             for line in path.read_text(encoding="utf-8").splitlines(keepends=True)]
    assert lines and all(json.dumps(json.loads(line)) + "\n" == line for line in lines)
    assert any("NaN" in line or "Infinity" in line for line in lines)
    assert fedbilevel("sweep", selection, "--set", "bogus=1").returncode == 2
    (tmp_path / "file").write_text("", encoding="utf-8")
    assert fedbilevel("sweep", selection, "--out", "file/out").returncode == 3


def test_location_metrics_stay_finite_across_slices(tmp_path):
    # 64-round metric blocks on 5000 balls span several slices of BallDistances.values
    code, out = _sweep(tmp_path, "location", "m=5000", "tol=none", "max_rounds=64",
                       "s_values=1", "methods=fism", "repeats=1")
    assert code == 0
    paths = sorted(out.glob("*.jsonl"))
    assert paths
    for path in paths:
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 64
        for row in rows:
            assert all(math.isfinite(v) for v in row.values() if isinstance(v, (int, float)))


def test_tolerance_sweep_stops_by_tolerance(tmp_path, capsys):
    # A tolerance sweep: every run stops by the composite relative-change
    # test, inside a block of rounds, and inspect reports that stop.
    code, out = _sweep(tmp_path, "location", "m=200", "s_values=1,4", "repeats=1",
                       "tol=1e-3")
    assert code == 0
    summaries = sorted(out.glob("*.json"))
    assert len(summaries) == 4
    for path in summaries:
        summary = json.loads(path.read_text(encoding="utf-8"))
        assert summary["stop_reason"] == "tolerance"
        assert summary["rounds"] < summary["config"]["max_rounds"]
        capsys.readouterr()
        assert cli.main(["inspect", str(path)]) == 0
        assert "(stop: tolerance)" in capsys.readouterr().out


def test_no_heldout_set_leaves_accuracy_empty(tmp_path):
    code, out = _sweep(tmp_path, "logistic-synthetic", "max_rounds=5", "test_size=0")
    assert code == 0
    with open(out / "summary.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert rows and all(row["test_accuracy_mean"] == "" for row in rows)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_pass_passes_its_checks(tmp_path, monkeypatch, name):
    # The benchmark's own checks on one pass of each workload, so a change
    # that the benchmark would find incorrect fails here too.
    monkeypatch.chdir(ROOT)  # the workload names its config from the checkout's root
    workload, out = workloads.WORKLOADS[name], tmp_path / "out"
    assert cli.main(workload.sweep_argv(out, 0)) == 0
    assert workloads.check_outputs(workload, out, 0, workloads.load_reference()) == {}
