"""tools/compare_runs.py on two tiny sweeps."""
import importlib.util
import json
import math
from pathlib import Path

import pytest

from fedbilevel import cli

_SPEC = importlib.util.spec_from_file_location(
    "compare_runs", Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_runs)


@pytest.fixture
def two_sweeps(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = location\nn = 3\nm = 12\nmethods = fism,irig\n"
                   "s_values = 1,3\nmax_rounds = 20\ntol = none\n", encoding="utf-8")
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["sweep", str(cfg), "--out", str(out)]) == 0
        dirs.append(out)
    return dirs


def _edit_summary(path: Path, key: str, change) -> None:
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary[key] = change(summary[key])
    path.write_text(json.dumps(summary), encoding="utf-8")


def test_identical_sweeps_pass(two_sweeps, capsys):
    a, b = two_sweeps
    assert compare_runs.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "runs compared: 4" in out
    assert "exact fields identical" in out


def test_objective_shift_is_reported_not_failed(two_sweeps, capsys):
    a, b = two_sweeps
    _edit_summary(b / "location_fism_S3_rep0.json", "final_inner_value",
                  lambda v: v * (1 + 1e-15))
    assert compare_runs.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "summary.final_inner_value" in out


def test_iterate_difference_fails(two_sweeps, capsys):
    a, b = two_sweeps
    _edit_summary(b / "location_irig_S1_rep0.json", "final_x",
                  lambda xs: [math.nextafter(xs[0], math.inf)] + xs[1:])
    assert compare_runs.main([str(a), str(b)]) == 1
    assert "location_irig_S1_rep0: final_x differs" in capsys.readouterr().out


def test_step_norm_difference_fails(two_sweeps):
    a, b = two_sweeps
    path = b / "location_fism_S1_rep0.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows[5]["step_norm"] = math.nextafter(rows[5]["step_norm"], math.inf)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert compare_runs.main([str(a), str(b)]) == 1


def test_different_run_sets_are_a_usage_error(two_sweeps):
    a, b = two_sweeps
    (b / "location_fism_S3_rep0.json").unlink()
    assert compare_runs.main([str(a), str(b)]) == 2
