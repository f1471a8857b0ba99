"""Workload definitions and per-run output checks for the fedbilevel benchmark.

Each workload is one ``fedbilevel sweep`` invocation: a shipped config file
plus pinned ``--set`` overrides, with the benchmark seed passed through as
``--seed``. Every run of a pass is checked from the files the sweep wrote;
see README.md for why each workload exists and what each check asserts.
"""
from __future__ import annotations

import importlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# selection-1d: closed-form bilevel optimum and the stated distance to it
# after the shipped 20000-round budget (observed ~1.3e-3).
SELECTION_OPTIMUM = 1.0
SELECTION_TOL = 5e-3
# mnist-shape seeds without a recorded accuracy: held-out accuracy floor
# (recorded seeds 0-99 range 0.96-1.0 for fism and 0.91-1.0 for irig).
MNIST_ACC_FLOOR = 0.85


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    settings: tuple[tuple[str, str], ...]
    run_ids: tuple[str, ...]

    def sweep_argv(self, out_dir: Path, seed: int) -> list[str]:
        argv = ["sweep", self.config, "--out", str(out_dir), "--seed", str(seed)]
        for key, value in self.settings:
            argv += ["--set", f"{key}={value}"]
        return argv


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mnist-shape",
            config="configs/logistic-synthetic.cfg",
            settings=(("n", "784"), ("m", "11000"), ("test_size", "100"),
                      ("methods", "fism,irig"), ("s_values", "4"), ("repeats", "1"),
                      ("max_rounds", "15"), ("tol", "none")),
            run_ids=("logistic-synthetic_fism_S4_rep0", "logistic-synthetic_irig_S4_rep0"),
        ),
        Workload(
            name="selection",
            config="configs/selection-1d.cfg",
            settings=(("methods", "fism,irig"), ("s_values", "1"), ("repeats", "1"),
                      ("max_rounds", "20000"), ("tol", "none")),
            run_ids=("selection-1d_fism_S1_rep0", "selection-1d_irig_S1_rep0"),
        ),
    )
}


def working_set_bytes(workload: Workload) -> dict[str, int]:
    """Sizes of the workload's input arrays, computed from their shapes
    (float64), so a result records how big its inputs were."""
    settings = dict(workload.settings)
    if workload.name == "mnist-shape":
        n, m, test = int(settings["n"]), int(settings["m"]), int(settings["test_size"])
        # The generated pool is split into train/held-out copies, so both live.
        return {"pool_features": (m + test) * n * 8, "train_features": m * n * 8,
                "heldout_features": test * n * 8, "labels": 2 * (m + test) * 8}
    return {"center": 8, "anchor": 8}


def import_package(root: Path):
    """Import ``fedbilevel`` from ``root/src`` and nowhere else.

    Raises ``FileNotFoundError`` when the checkout holds no package sources,
    so the benchmark can never time an installed copy by accident.
    """
    src = (root / "src").resolve()
    if not (src / "fedbilevel" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fedbilevel sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("fedbilevel")
    if Path(pkg.__file__).resolve().parent != src / "fedbilevel":
        raise ImportError(f"fedbilevel was imported from {pkg.__file__}, not {src}")
    importlib.import_module("fedbilevel.cli")  # the package itself does not import it
    return pkg


def load_reference() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def load_summaries(out_dir: Path, run_ids) -> dict[str, dict]:
    """Run summaries the sweep wrote; a missing or unreadable one is absent."""
    found = {}
    for run_id in run_ids:
        path = out_dir / f"{run_id}.json"
        try:
            found[run_id] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
    return found


def _all_finite(value) -> bool:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    return True


def _check_mnist_shape(runs: dict[str, dict], ref: dict | None, out_dir: Path) -> dict[str, str]:
    errors = {}
    for run_id, s in runs.items():
        rows_path = out_dir / f"{run_id}.jsonl"
        rows = [json.loads(line) for line in rows_path.read_text(encoding="utf-8").splitlines()]
        if not (_all_finite(s) and _all_finite(rows)):
            errors[run_id] = "non-finite value in the summary or the per-round rows"
            continue
        floor = ref[run_id] if ref is not None else MNIST_ACC_FLOOR
        acc = s["test_accuracy"]
        if acc is None or acc < floor:
            errors[run_id] = f"held-out accuracy {acc} below the floor {floor}"
    return errors


def _check_selection(runs: dict[str, dict], ref: dict | None, out_dir: Path) -> dict[str, str]:
    errors = {}
    for run_id, s in runs.items():
        x = s["final_x"][0]
        if not abs(x - SELECTION_OPTIMUM) <= SELECTION_TOL:
            errors[run_id] = f"final_x={x} not within {SELECTION_TOL} of {SELECTION_OPTIMUM}"
    xs = {tuple(s["final_x"]) for s in runs.values()}
    if len(xs) > 1:  # C5: FISM and IRIG iterates are bitwise equal at S = m = 1
        for run_id in runs:
            errors.setdefault(run_id, f"fism and irig final_x differ: {sorted(xs)}")
    return errors


_CHECKS = {"mnist-shape": _check_mnist_shape, "selection": _check_selection}


def check_outputs(workload: Workload, out_dir: Path, seed: int,
                  reference: dict) -> dict[str, str]:
    """Check every run of one pass; returns run_id -> reason for each failure.

    A run whose summary is missing (it raised inside the sweep) fails too.
    """
    runs = load_summaries(out_dir, workload.run_ids)
    errors = {run_id: "no run summary written" for run_id in workload.run_ids
              if run_id not in runs}
    ref = reference.get(workload.name, {}).get(str(seed))
    try:
        found = _CHECKS[workload.name](runs, ref, out_dir)
    except (KeyError, TypeError, IndexError, ValueError, OSError) as exc:
        found = {run_id: f"malformed output: {type(exc).__name__}: {exc}" for run_id in runs}
    for run_id, reason in found.items():
        errors.setdefault(run_id, reason)
    return errors
