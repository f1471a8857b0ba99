"""Golden runs: short sweeps of the shipped configs whose outputs must keep
their bytes. ``tools/record_golden.py`` records the digests in
``tests/golden/`` and says what is digested. A digest is compared only on a
platform with the fingerprint it was recorded on (numpy version, BLAS name,
the CPU features numpy dispatches on), and skipped with the difference
named elsewhere.

Twins check what holds on any platform: two execution shapes of one golden
setting write byte-identical outputs after the same normalisation."""
import importlib.util
import json
from pathlib import Path

import pytest

from fedbilevel import solvers

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "record_golden.py"
_SPEC = importlib.util.spec_from_file_location("record_golden", _TOOL)
record_golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_golden)


@pytest.mark.parametrize("name", list(record_golden.RUNS))
def test_golden_run(name):
    golden = json.loads((record_golden.GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    # A changed run definition needs new digests, wherever they were recorded.
    assert golden["argv"] == record_golden.argv(name), "re-record with tools/record_golden.py"
    here = record_golden.fingerprint()
    if golden["fingerprint"] != here:
        differ = {key: (golden["fingerprint"].get(key), value) for key, value in here.items()
                  if golden["fingerprint"].get(key) != value}
        pytest.skip(f"digests recorded on another platform, (recorded, here): {differ}")
    got = record_golden.digest(name)
    assert sorted(got["files"]) == sorted(golden["files"])
    changed = [key for key in ("exit_code", "stdout", "stderr") if got[key] != golden[key]]
    changed += [f for f, sha in golden["files"].items() if got["files"][f] != sha]
    assert not changed, f"outputs differ from the golden digests: {changed}"


def test_every_golden_file_has_a_run():
    recorded = sorted(path.stem for path in record_golden.GOLDEN_DIR.glob("*.json"))
    assert recorded == sorted(record_golden.RUNS)


def _first_difference(a: dict, b: dict):
    """The first key, in sorted order, whose value differs between a and b."""
    return next((key for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)), None)


@pytest.mark.parametrize("name", ["location", "selection-1d-overflow"])
def test_block_length_twins(name, tmp_path, monkeypatch):
    # The overflow runs stop inside a block, so the rounds computed past the
    # stop are discarded; with tol set a block is one round, so no tol setting.
    got = []
    for block in (1, 32):
        monkeypatch.setattr(solvers, "_BLOCK", block)
        code, streams, files = record_golden.outputs(name, tmp_path / f"b{block}")
        got.append({"exit_code": code, **streams, **files})
    assert _first_difference(*got) is None, f"{_first_difference(*got)} differs"


def test_run_is_the_sweeps_first_run(tmp_path):
    code, _, run_files = record_golden.outputs("location", tmp_path / "run", command="run")
    assert code == 0
    assert sorted(run_files) == ["location_fism_S1_rep0.csv", "location_fism_S1_rep0.json",
                                 "location_fism_S1_rep0.jsonl"]
    _, _, sweep_files = record_golden.outputs("location", tmp_path / "sweep")
    sweep_first = {file: sweep_files[file] for file in run_files}
    assert _first_difference(run_files, sweep_first) is None, \
        f"{_first_difference(run_files, sweep_first)} differs"
