"""tools/compare_runs.py on two tiny sweeps."""
import json
import math
from pathlib import Path

import compare_runs
import pytest

from fedbilevel import cli


@pytest.fixture
def two_sweeps(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = location\nn = 3\nm = 12\nmethods = fism,irig\n"
                   "s_values = 1,3\nmax_rounds = 20\ntol = none\nwrite_csv = true\n",
                   encoding="utf-8")
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
    # the two sweeps' wall clocks differ, every other byte is the same
    assert ".jsonl lines (minus wall_clock_sec) byte-identical in every run" in out
    assert "summary.csv bytes: identical" in out
    # config.out_dir differs (a vs b) and is ignored, as is the csv wall clock
    assert ".json summaries (minus config.out_dir) identical in every run" in out
    assert "per-run .csv files (minus wall_clock_sec) byte-identical in all 4 runs" in out


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


@pytest.mark.parametrize("name", ["location_fism_S1_rep0.json",
                                  "location_irig_S3_rep0.jsonl", "summary.csv"])
def test_undecodable_output_is_a_read_error(two_sweeps, capsys, name):
    # an output that is not UTF-8 gave a traceback and exit 1 ("exact fields differ"),
    # and then a message that named no file
    a, b = two_sweeps
    with open(b / name, "ab") as f:
        f.write(b"\xff")
    assert compare_runs.main([str(a), str(b)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot read run outputs: {b / name}: 'utf-8' codec ")
    assert not captured.out


def test_jsonl_line_that_is_not_json_is_a_read_error(two_sweeps, capsys):
    a, b = two_sweeps
    with open(b / "location_irig_S3_rep0.jsonl", "a", encoding="utf-8") as f:
        f.write("{not json\n")
    assert compare_runs.main([str(a), str(b)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot read run outputs: {b / 'location_irig_S3_rep0.jsonl'}"
                                   ": Expecting property name")
    assert not captured.out


@pytest.mark.parametrize("name, text, where", [
    ("location_fism_S1_rep0.json", "[]", ""),
    ("location_irig_S3_rep0.jsonl", "[1]\n", "line 1 "),
], ids=["summary", "row"])
def test_json_that_is_not_an_object_is_a_read_error(two_sweeps, capsys, name, text, where):
    # a list gave a traceback and exit 1: 'list' object has no attribute 'get'
    a, b = two_sweeps
    (b / name).write_text(text, encoding="utf-8")
    assert compare_runs.main([str(a), str(b)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"cannot read run outputs: {b / name}: {where}is not a JSON object: "
                            f"{text.strip()}\n")
    assert not captured.out


def test_unparsed_number_names_the_run_and_field(two_sweeps, capsys):
    # a number written as a string leaves it out of one side's logged fields
    a, b = two_sweeps
    _edit_summary(b / "location_fism_S3_rep0.json", "n_inner", str)
    assert compare_runs.main([str(a), str(b)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "logged fields differ between the two directories: location_fism_S3_rep0 has "
        f"summary.n_inner in {a} where {b} has summary.dimension"]


def test_unparsed_summary_csv_number_names_the_file(two_sweeps, capsys):
    a, b = two_sweeps
    path = b / "summary.csv"
    path.write_bytes(path.read_bytes().replace(b",20.0,", b",twenty,", 1))
    assert compare_runs.main([str(a), str(b)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("logged fields differ between the two directories: summary.csv has "
                          "summary.csv.rounds_mean in ")


def test_number_equal_rewrites_are_byte_differences(two_sweeps, capsys):
    a, b = two_sweeps
    # an integer counter written as a float, in the third row of one run
    path = b / "location_irig_S3_rep0.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[2])
    row["inner_subgrad_evals"] = float(row["inner_subgrad_evals"])
    lines[2] = json.dumps(row) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    # a float written in another notation, in the first row of another
    path = b / "location_fism_S1_rep0.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert '"round_time_units": 12.0,' in lines[0]
    lines[0] = lines[0].replace('"round_time_units": 12.0,', '"round_time_units": 1.2e1,')
    path.write_text("".join(lines), encoding="utf-8")
    # a float mean written as an integer
    csv_path = b / "summary.csv"
    original = csv_path.read_bytes()
    csv_path.write_bytes(original.replace(b",20.0,", b",20,"))
    assert csv_path.read_bytes() != original

    assert compare_runs.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "exact fields identical" in out
    assert ".jsonl lines (minus wall_clock_sec) DIFFER in 2 of 4 runs" in out
    assert "location_irig_S3_rep0.jsonl line 3" in out
    assert "location_fism_S1_rep0.jsonl line 1" in out
    assert "summary.csv bytes: DIFFER" in out


def test_changed_strings_in_a_summary_are_reported_not_failed(two_sweeps, capsys):
    a, b = two_sweeps
    _edit_summary(b / "location_fism_S3_rep0.json", "method", lambda m: "irig")
    _edit_summary(b / "location_fism_S3_rep0.json", "config",
                  lambda config: dict(config, partition="contiguous-balanced"))
    _edit_summary(b / "location_irig_S1_rep0.json", "config",
                  lambda config: dict(config, partition="contiguous-balanced"))
    assert compare_runs.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "exact fields identical" in out
    assert ".json summaries (minus config.out_dir) DIFFER in 2 of 4 runs" in out
    assert "location_fism_S3_rep0.json at method, config.partition" in out
    assert "location_irig_S1_rep0.json at config.partition" in out


def test_key_differences_names_every_leaf_and_a_key_order_change():
    a = {"x": 1, "y": {"p": [1.0, 2.0], "q": "s"}, "z": 3}
    assert compare_runs._key_differences(a, a) == []
    b = {"z": 3.0, "y": {"p": [1.0, 2.5], "q": "s", "r": None}, "x": 1}
    assert compare_runs._key_differences(a, b) == ["y.p[1]", "y.r", "z",
                                                   "the top level (key order)"]
    # a key present on one side only is not an order change
    assert compare_runs._key_differences({"x": 1}, {"x": 1, "w": 2}) == ["w"]


def test_number_equal_rewrite_in_a_run_csv_is_a_byte_difference(two_sweeps, capsys):
    a, b = two_sweeps
    path = b / "location_irig_S1_rep0.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    assert lines[1].startswith(b"1,")
    lines[1] = b"1.0," + lines[1][2:]
    path.write_bytes(b"".join(lines))
    assert compare_runs.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "exact fields identical" in out
    assert "per-run .csv files (minus wall_clock_sec) DIFFER in 1 of 4 runs" in out
    assert "location_irig_S1_rep0.csv line 2" in out


def test_a_jsonl_in_one_directory_is_a_usage_error(two_sweeps, capsys):
    a, b = two_sweeps
    (b / "location_fism_S1_rep0.jsonl").unlink()
    assert compare_runs.main([str(a), str(b)]) == 2
    assert "location_fism_S1_rep0.jsonl" in capsys.readouterr().err


def test_a_run_csv_in_one_directory_is_reported_not_failed(two_sweeps, capsys):
    a, b = two_sweeps
    (b / "location_irig_S3_rep0.csv").unlink()
    assert compare_runs.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "per-run .csv files (minus wall_clock_sec) DIFFER in 1 of 4 runs" in out
    assert "  location_irig_S3_rep0.csv is in one directory only" in out


def test_a_summary_csv_in_one_directory_is_reported_not_failed(two_sweeps, capsys):
    a, b = two_sweeps
    (b / "summary.csv").unlink()
    assert compare_runs.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "summary.csv is in one directory only" in out.splitlines()
    assert "summary.csv bytes" not in out
