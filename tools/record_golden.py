"""Record the golden digests of a fixed set of short ``fedbilevel sweep`` runs.

Usage:

    PYTHONPATH=src python tools/record_golden.py [NAME ...]

Runs each named golden run (all of them by default) in a fresh temporary
directory through ``fedbilevel.cli.main`` in-process, and writes
``tests/golden/<name>.json``: the run's argv, the exit code, and SHA-256
digests of stdout, stderr and every file the sweep wrote. Before hashing,
the temporary directory's path (so ``config.out_dir`` and the IDX paths of
``logistic-mnist``) is replaced by ``<work>``, and
``compare_runs.canonical`` removes ``wall_clock_sec``: the entry of every
``.jsonl`` line and the column of every per-run ``.csv``. ``summary.csv``
and the ``.json`` summaries, which hold no wall clock, keep their bytes
otherwise.

The location and logistic bits depend on the BLAS dot kernel and on numpy's
SIMD dispatch, so each file also records a fingerprint: the numpy version,
the BLAS name and the CPU features numpy dispatches on.
``tests/test_golden.py`` reruns every golden run and compares the digests
where the fingerprint matches; elsewhere it skips, naming the difference
and saying whether every digest matches all the same.

A change that means to alter outputs re-records the digests with this tool
and says why, with ``tools/compare_runs.py``'s maximum deviation.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import compare_runs
import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
CONFIGS = ROOT / "configs"

_SHORT = ("s_values=1,4", "repeats=2", "max_rounds=40", "write_csv=true")

# name -> (shipped config, --set overrides); every run is a sweep.
RUNS = {
    "selection-1d": ("selection-1d", ("repeats=2", "max_rounds=40", "write_csv=true")),
    "location": ("location", _SHORT),
    "logistic-synthetic": ("logistic-synthetic", _SHORT),
    "logistic-mnist": ("logistic-mnist", _SHORT),
    # m = 200 at tol = 1e-3 stops every run by tolerance, within 40-60 rounds.
    "location-tol": ("location", ("m=200", "s_values=1,4", "repeats=2", "tol=1e-3")),
    # perfbench's mnist-shape workload at 3 rounds
    "mnist-shape": ("logistic-synthetic", ("n=784", "m=11000", "test_size=100",
                                           "methods=fism,irig", "s_values=4", "repeats=1",
                                           "max_rounds=3", "tol=none")),
    # overflows in round 1: every run stops non-finite and the sweep exits 1
    "selection-1d-overflow": ("selection-1d", ("gamma1=1e308",)),
}


def fingerprint() -> dict:
    """The numpy version, the BLAS name and the CPU features numpy
    dispatches on (its SIMD baseline and the extensions found on this CPU)."""
    config = np.show_config(mode="dicts")
    simd = config.get("SIMD Extensions", {})
    return {
        "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas", {}).get("name"),
        "simd_baseline": list(simd.get("baseline", [])),
        "simd_found": list(simd.get("found", [])),
    }


def _write_mnist_pair(work: Path) -> list[str]:
    """A small IDX training pair and held-out pair (4x5 images, digits 0, 1
    and 7) written with ``tests/helpers.write_idx``; returns the --set
    overrides that point a logistic-mnist config at them."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from helpers import write_idx
    finally:
        sys.path.remove(str(ROOT / "tests"))
    rng = np.random.default_rng(20240)
    settings = []
    for prefix, count in (("", 60), ("test_", 20)):
        labels = np.resize(np.array([0, 1, 7], dtype=np.uint8), count)
        images = rng.integers(0, 256, (count, 4, 5), dtype=np.uint8)
        images[labels == 1, :, 2] = 255  # a stroke down the middle
        write_idx(images, work / f"{prefix}images.idx")
        write_idx(labels, work / f"{prefix}labels.idx")
        settings += [f"{prefix}images_path={work / f'{prefix}images.idx'}",
                     f"{prefix}labels_path={work / f'{prefix}labels.idx'}"]
    return settings


def argv(name: str) -> list[str]:
    """The golden run's argv, with ``<work>`` for its working directory."""
    config, settings = RUNS[name]
    out = ["sweep", f"configs/{config}.cfg", "--out", "<work>/out"]
    for setting in settings:
        out += ["--set", setting]
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _normalised(name: str, data: bytes, work: Path) -> bytes:
    """``data``, the contents of output ``name``, as it is digested."""
    for form in {str(work), json.dumps(str(work))[1:-1]}:
        data = data.replace(form.encode(), b"<work>")
    return compare_runs.canonical(name, data, ("wall_clock_sec",))


def outputs(name: str, work: Path, command: str = "sweep") -> tuple[int, dict, dict]:
    """Run golden run ``name``'s config and settings through ``fedbilevel
    <command>`` in the directory ``work``; returns the exit code, the
    normalised stdout and stderr by label, and the normalised bytes of every
    file written by name."""
    from fedbilevel import cli

    config, settings = RUNS[name]
    work.mkdir(parents=True, exist_ok=True)
    extra = _write_mnist_pair(work) if config == "logistic-mnist" else []
    args = [command, str(CONFIGS / f"{config}.cfg"), "--out", str(work / "out")]
    for setting in (*settings, *extra):
        args += ["--set", setting]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(args)
    streams = {label: _normalised(label, stream.getvalue().encode(), work)
               for label, stream in (("stdout", stdout), ("stderr", stderr))}
    files = {path.name: _normalised(path.name, path.read_bytes(), work)
             for path in sorted((work / "out").iterdir())}
    return code, streams, files


def digest(name: str) -> dict:
    """Run golden run ``name`` in a fresh temporary directory and digest it."""
    with tempfile.TemporaryDirectory() as tmp:
        code, streams, files = outputs(name, Path(tmp))
    return {"argv": argv(name), "fingerprint": fingerprint(), "exit_code": code,
            **{label: _sha(data) for label, data in streams.items()},
            "files": {file: _sha(data) for file, data in files.items()}}


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        print(f"unknown golden runs: {unknown}; known: {list(RUNS)}", file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in names or RUNS:
        record = digest(name)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"{path.relative_to(ROOT)}: exit {record['exit_code']}, "
              f"{len(record['files'])} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
