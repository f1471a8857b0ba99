"""Golden runs: short sweeps of the shipped configs whose outputs must keep
their bytes. ``tools/record_golden.py`` records the digests in
``tests/golden/`` and says what is digested. A digest is compared only on a
platform with the fingerprint it was recorded on (numpy version, BLAS name,
the CPU features numpy dispatches on), and skipped with the difference
named elsewhere.

Twins check what holds on any platform: two execution shapes of one golden
setting write byte-identical outputs after the same normalisation, and
IRIG's S cells of one repeat write the same iterates. A failing twin names
the first differing line or the differing key paths."""
import json
import re

import compare_runs
import pytest
import record_golden

from fedbilevel import cli, solvers


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


def _first_difference(a: dict, b: dict) -> str | None:
    """Where two ``outputs`` results first differ: the first name, in sorted
    order, whose value differs, with the first differing line of a stream,
    ``.jsonl`` or ``.csv`` file or the differing key paths of a ``.json``
    summary; None when none does."""
    name = next((key for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)), None)
    if name is None or name == "exit_code" or name not in a or name not in b:
        return name
    if name.endswith(".json"):
        keys = compare_runs._key_differences(json.loads(a[name]), json.loads(b[name]))
        return f"{name} at {', '.join(keys)}"
    lines = (data.splitlines(keepends=True) for data in (a[name], b[name]))
    return f"{name} line {compare_runs._first_line_difference(*lines)}"


@pytest.mark.parametrize("name", ["location", "location-tol", "selection-1d-overflow"])
def test_block_length_twins(name, tmp_path, monkeypatch):
    # The overflow and tolerance runs stop inside a block, so the rounds
    # computed past the stop are discarded.
    got = []
    for block in (1, 32):
        monkeypatch.setattr(solvers, "_BLOCK", block)
        code, streams, files = record_golden.outputs(name, tmp_path / f"b{block}")
        got.append({"exit_code": code, **streams, **files})
    difference = _first_difference(*got)
    assert difference is None, f"{difference} differs"


def test_run_is_the_sweeps_first_run(tmp_path):
    code, _, run_files = record_golden.outputs("location", tmp_path / "run", command="run")
    assert code == 0
    assert sorted(run_files) == ["location_fism_S1_rep0.csv", "location_fism_S1_rep0.json",
                                 "location_fism_S1_rep0.jsonl"]
    _, _, sweep_files = record_golden.outputs("location", tmp_path / "sweep")
    sweep_first = {file: sweep_files[file] for file in run_files}
    difference = _first_difference(run_files, sweep_first)
    assert difference is None, f"{difference} differs"


# IRIG sweeps all inner functions in one order whatever S is, so S changes
# only its simulated time. unit_cost = 0.1 makes that time differ in its last
# bits between S = 1 and S = 4, so the time columns must really be dropped.
_TIME_COLUMNS = re.compile(rb'(, )?"(?:round_time_units|total_time_units|wall_clock_sec)": '
                           rb'[^,}]*')
_IRIG_SETTINGS = ("methods=irig", "s_values=1,4", "repeats=2", "max_rounds=40", "unit_cost=0.1")


@pytest.fixture(scope="module")
def irig_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("irig") / "out"
    argv = ["sweep", str(record_golden.CONFIGS / "location.cfg"), "--out", str(out)]
    for setting in _IRIG_SETTINGS:
        argv += ["--set", setting]
    assert cli.main(argv) == 0
    return out


def _irig_difference(out, rep_one: int, rep_four: int) -> str | None:
    """Where IRIG's S=1 run of repeat ``rep_one`` and its S=4 run of repeat
    ``rep_four`` differ, apart from the time columns of their rows and the
    client count and total time of their summaries; None when nowhere."""
    one, four = f"location_irig_S1_rep{rep_one}", f"location_irig_S4_rep{rep_four}"
    lines = [_TIME_COLUMNS.sub(b"", (out / f"{run}.jsonl").read_bytes()).splitlines(keepends=True)
             for run in (one, four)]
    line = compare_runs._first_line_difference(*lines)
    if line is not None:
        return f"{one}.jsonl and {four}.jsonl at line {line}"
    summaries = []
    for run in (one, four):
        summary = json.loads((out / f"{run}.json").read_text(encoding="utf-8"))
        del summary["n_clients"], summary["total_time_units"], summary["config"]["n_clients"]
        summaries.append(summary)
    keys = compare_runs._key_differences(*summaries)
    return f"{one}.json and {four}.json at {', '.join(keys)}" if keys else None


@pytest.mark.parametrize("rep", [0, 1])
def test_irig_iterates_do_not_depend_on_the_client_count(irig_sweep, rep):
    difference = _irig_difference(irig_sweep, rep, rep)
    assert difference is None, f"{difference} differ"


def test_irig_twin_tells_repeats_apart(irig_sweep):
    raw = [(irig_sweep / f"location_irig_S{s}_rep0.jsonl").read_bytes() for s in (1, 4)]
    assert raw[0] != raw[1]  # the time columns differ before they are dropped
    assert _irig_difference(irig_sweep, 0, 1) == \
        "location_irig_S1_rep0.jsonl and location_irig_S4_rep1.jsonl at line 1"
