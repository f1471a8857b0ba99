"""Golden runs: short sweeps of the shipped configs whose outputs must keep
their bytes. ``tools/record_golden.py`` records the digests in
``tests/golden/`` and says what is digested. A digest is compared only on a
platform with the fingerprint it was recorded on (numpy version, BLAS name,
the CPU features numpy dispatches on). Elsewhere the run is still digested
and then skipped, with a reason that names the fingerprint differences and
says either ``every digest matches`` or which outputs differ, so a
``pytest -rs`` log shows whether the digests hold on that platform.

Twins check what holds on any platform: two execution shapes of one golden
setting write byte-identical outputs after the same normalisation, and
IRIG's S cells of one repeat write the same iterates. Every twin is one
``compare_runs.differences`` call, which names each differing file with its
first differing line or its differing key paths."""
import json

import compare_runs
import pytest
import record_golden

from fedbilevel import cli, solvers


@pytest.mark.parametrize("name", list(record_golden.RUNS))
def test_golden_run(name):
    golden = json.loads((record_golden.GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    # A changed run definition needs new digests, wherever they were recorded.
    assert golden["argv"] == record_golden.argv(name), "re-record with tools/record_golden.py"
    got = record_golden.digest(name)
    changed = [key for key in ("exit_code", "stdout", "stderr") if got[key] != golden[key]]
    changed += [f for f in dict.fromkeys([*golden["files"], *got["files"]])
                if got["files"].get(f) != golden["files"].get(f)]
    here = record_golden.fingerprint()
    if golden["fingerprint"] != here:
        differ = {key: (golden["fingerprint"].get(key), value) for key, value in here.items()
                  if golden["fingerprint"].get(key) != value}
        pytest.skip(f"digests recorded on another platform, (recorded, here): {differ}; "
                    + (f"outputs differ from the golden digests: {changed}" if changed
                       else "every digest matches"))
    assert not changed, f"outputs differ from the golden digests: {changed}"


def test_golden_run_elsewhere_says_whether_the_digests_match(tmp_path, monkeypatch):
    # On another fingerprint the run is still digested, and the skip reason
    # says whether every digest matches or which outputs differ.
    name, edited = "selection-1d", "selection-1d_irig_S1_rep1.jsonl"
    record = record_golden.digest(name)  # this platform's digests
    monkeypatch.setattr(record_golden, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(record_golden, "fingerprint", lambda: dict(record["fingerprint"],
                                                                   numpy="0.0"))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(pytest.skip.Exception) as skipped:
        test_golden_run(name)
    assert str(skipped.value).endswith("every digest matches")
    assert f"'numpy': ('{record['fingerprint']['numpy']}', '0.0')" in str(skipped.value)
    record["files"][edited] = "0" * 64
    path.write_text(json.dumps(record), encoding="utf-8")
    with pytest.raises(pytest.skip.Exception) as skipped:
        test_golden_run(name)
    assert str(skipped.value).endswith(f"outputs differ from the golden digests: ['{edited}']")


def test_every_golden_file_has_a_run():
    recorded = sorted(path.stem for path in record_golden.GOLDEN_DIR.glob("*.json"))
    assert recorded == sorted(record_golden.RUNS)


@pytest.mark.parametrize("name", ["location", "location-tol", "selection-1d-overflow"])
def test_block_length_twins(name, tmp_path, monkeypatch):
    # The overflow and tolerance runs stop inside a block, so the rounds
    # computed past the stop are discarded.
    codes, outputs = [], []
    for block in (1, 32):
        monkeypatch.setattr(solvers, "_BLOCK", block)
        code, streams, files = record_golden.outputs(name, tmp_path / f"b{block}")
        codes.append(code)
        outputs.append({**streams, **files})
    assert codes[0] == codes[1]
    found = compare_runs.differences(*outputs)
    assert not found, found


def test_run_is_the_sweeps_first_run(tmp_path):
    code, _, run_files = record_golden.outputs("location", tmp_path / "run", command="run")
    assert code == 0
    assert sorted(run_files) == ["location_fism_S1_rep0.csv", "location_fism_S1_rep0.json",
                                 "location_fism_S1_rep0.jsonl"]
    _, _, sweep_files = record_golden.outputs("location", tmp_path / "sweep")
    sweep_first = {file: sweep_files[file] for file in run_files}
    found = compare_runs.differences(run_files, sweep_first)
    assert not found, found


# IRIG sweeps all inner functions in one order whatever S is, so S changes
# only its simulated time. unit_cost = 0.1 makes that time differ in its last
# bits between S = 1 and S = 4, so the time fields must really be dropped.
_IRIG_DROP = ("round_time_units", "total_time_units", "wall_clock_sec", "n_clients",
              "config.n_clients")
_IRIG_SETTINGS = ("methods=irig", "s_values=1,4", "repeats=2", "max_rounds=40", "unit_cost=0.1")


@pytest.fixture(scope="module")
def irig_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("irig") / "out"
    argv = ["sweep", str(record_golden.CONFIGS / "location.cfg"), "--out", str(out)]
    for setting in _IRIG_SETTINGS:
        argv += ["--set", setting]
    assert cli.main(argv) == 0
    return out


def _irig_run(out, s: int, rep: int) -> dict:
    """IRIG's S = ``s`` run of repeat ``rep``: its rows and summary by file
    suffix, without the ``_IRIG_DROP`` fields."""
    run = out / f"location_irig_S{s}_rep{rep}"
    return {suffix: compare_runs.canonical(suffix, run.with_suffix(suffix).read_bytes(),
                                           _IRIG_DROP)
            for suffix in (".jsonl", ".json")}


@pytest.mark.parametrize("rep", [0, 1])
def test_irig_iterates_do_not_depend_on_the_client_count(irig_sweep, rep):
    found = compare_runs.differences(_irig_run(irig_sweep, 1, rep), _irig_run(irig_sweep, 4, rep))
    assert not found, found


def test_irig_twin_tells_repeats_apart(irig_sweep):
    raw = [(irig_sweep / f"location_irig_S{s}_rep0.jsonl").read_bytes() for s in (1, 4)]
    assert raw[0] != raw[1]  # the time columns differ before they are dropped
    # S = 1 of repeat 0 against S = 4 of repeat 1: the first row differs,
    # and the summaries from the seed on
    rows, summary = compare_runs.differences(_irig_run(irig_sweep, 1, 0),
                                             _irig_run(irig_sweep, 4, 1))
    assert rows == ".jsonl line 1"
    assert summary.startswith(".json at seed, final_inner_value, ")
