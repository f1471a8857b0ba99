"""fedbilevel benchmark: one workload through ``fedbilevel sweep``, in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mnist-shape --seed 0 --seconds 55 --trace 0

The package is imported from ``src/`` of the checkout (nothing is
installed). Each pass calls the public CLI entry point with ``sweep`` and the
workload's pinned settings on one thread, then checks every run from the
files the sweep wrote. Passes repeat until ``--seconds`` is used up (at
least two). With ``--trace 0`` the last stdout line reports the end-to-end
metrics; with ``--trace 1`` one extra traced pass follows the untraced ones
and the last line reports the per-layer metrics instead. Scratch output
goes to ``.perfbench-out/`` in the checkout; see README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import tracer as tr
import workloads as wl

OUT_ROOT = Path(".perfbench-out")
MIN_PASSES = 2
# Time reserved for the traced pass, in untraced passes.
TRACED_COST = 1.3
# Set-up-only passes: at least this many, and more until this much time is
# spent, so the millisecond-scale set-up of the small workloads is a median
# of many samples.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 50


class _SetupDone(BaseException):
    """Ends a set-up-only pass at the first run_solver call; derives from
    BaseException so the sweep's per-run ``except Exception`` lets it pass."""


def _one_pass(cli, argv: list[str], setup_only: bool = False, root=None) -> dict:
    """Run ``fedbilevel sweep`` once; times the whole call, the set-up before
    the first ``run_solver`` call, and the time inside ``run_solver``."""
    stats = {"first_solver": None, "solver_s": 0.0}
    orig = cli.run_solver

    def run_solver(*args, **kwargs):
        t = time.perf_counter()
        if stats["first_solver"] is None:
            stats["first_solver"] = t
        if setup_only:
            raise _SetupDone
        try:
            return orig(*args, **kwargs)
        finally:
            stats["solver_s"] += time.perf_counter() - t

    log = io.StringIO()
    main = cli.main if root is None else root.wrap(cli.main, tr.ROOT)
    cli.run_solver = run_solver
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = main(argv)
    except _SetupDone:
        code = None
    except Exception as exc:  # noqa: BLE001 - a crashed pass fails its runs
        log.write(traceback.format_exc())
        code = f"{type(exc).__name__}: {exc}"
    finally:
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        cli.run_solver = orig
    first = stats["first_solver"]
    return {
        "exit": code,
        "log": log.getvalue(),
        "sweep_s": t1 - t0,
        "setup_s": (first if first is not None else t1) - t0,
        "solver_s": stats["solver_s"],
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
    }


def _measure_setup(cli, argv: list[str]) -> list[float]:
    times: list[float] = []
    t0 = time.perf_counter()
    while len(times) < SETUP_MAX_REPS and (len(times) < SETUP_MIN_REPS
                                           or time.perf_counter() - t0 < SETUP_MIN_S):
        times.append(_one_pass(cli, argv, setup_only=True)["setup_s"])
        gc.collect()
    return times


def _output_size(out_dir: Path) -> tuple[int, int]:
    """(JSONL rows, bytes) the sweep wrote into ``out_dir``."""
    rows = nbytes = 0
    for path in out_dir.iterdir() if out_dir.is_dir() else ():
        nbytes += path.stat().st_size
        if path.suffix == ".jsonl":
            with open(path, "rb") as f:
                rows += sum(1 for _ in f)
    return rows, nbytes


class Bench:
    """One benchmark invocation: passes, their checks, and the tallies."""

    def __init__(self, pkg, workload: wl.Workload, seed: int):
        self.cli = pkg.cli
        self.workload = workload
        self.seed = seed
        self.out_dir = OUT_ROOT / "sweep" / workload.name
        self.argv = workload.sweep_argv(self.out_dir, seed)
        self.reference = wl.load_reference()
        self.attempted = 0
        self.failures: list[str] = []
        self.first_outputs: dict[str, tuple] | None = None
        self.passes: list[dict] = []

    def run_pass(self, root=None) -> dict:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        p = _one_pass(self.cli, self.argv, root=root)
        self.attempted += len(self.workload.run_ids)
        errors = wl.check_outputs(self.workload, self.out_dir, self.seed, self.reference)
        runs = wl.load_summaries(self.out_dir, self.workload.run_ids)
        # Same seed, same process: every pass must reproduce the first bitwise.
        outputs = {run_id: (s.get("final_x"), s.get("rounds"), s.get("total_time_units"))
                   for run_id, s in runs.items()}
        if self.first_outputs is None:
            self.first_outputs = outputs
        for run_id, out in outputs.items():
            if out != self.first_outputs.get(run_id):
                errors.setdefault(run_id, "output differs from the first pass")
        if p["exit"] != 0 and not errors:
            errors["sweep"] = f"sweep exited {p['exit']}"
        for run_id, reason in errors.items():
            self.failures.append(f"{run_id}: {reason}")
        p["rounds"] = sum(s.get("rounds", 0) for s in runs.values())
        p["sim_time_units"] = sum(s.get("total_time_units", 0.0) for s in runs.values())
        if root is not None:
            p["rows_written"], p["bytes_written"] = _output_size(self.out_dir)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if errors:
            sys.stderr.write(p["log"])
        del p["log"]
        gc.collect()
        return p

    def run_untraced(self, budget_s: float, min_passes: int, reserve: float = 0.0) -> None:
        """Untraced passes until the next one (plus ``reserve`` passes' worth
        of time kept for later) would overrun ``budget_s``."""
        t0 = time.perf_counter()
        while True:
            self.passes.append(self.run_pass())
            elapsed = time.perf_counter() - t0
            next_s = statistics.median(p["sweep_s"] for p in self.passes)
            if len(self.passes) >= min_passes and elapsed + next_s * (1 + reserve) > budget_s:
                return

    @property
    def failed(self) -> int:
        return len(self.failures)


def _git_rev(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _facts(pkg, workload: wl.Workload, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "sweep_argv": workload.sweep_argv(Path("<out>"), seed),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "prng": getattr(pkg, "PRNG_ID", "unknown"), "git_rev": _git_rev(Path.cwd()),
        "working_set_bytes": wl.working_set_bytes(workload),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = wl.WORKLOADS[args.workload]
    try:
        pkg = wl.import_package(Path.cwd())
        if not Path(workload.config).is_file():
            raise FileNotFoundError(f"missing shipped config {workload.config}")
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2

    bench = Bench(pkg, workload, args.seed)
    facts = _facts(pkg, workload, args.seed, args.seconds, args.trace)
    setup_times: list[float] = []
    if args.trace:
        # Untraced passes first, leaving room for the traced one (1.1-1.3x).
        bench.run_untraced(args.seconds, min_passes=1, reserve=TRACED_COST)
        tracer = tr.Tracer()
        tracer.patch()
        try:
            traced = bench.run_pass(root=tracer)
        finally:
            tracer.unpatch()
        layer = tr.layer_metrics(tracer)
        tracer.save(OUT_ROOT / f"trace-{workload.name}.npz")
        base = _median(p["sweep_s"] for p in bench.passes)
        layer["trace.overhead_frac"] = (traced["sweep_s"] / base - 1.0, "frac")
        layer["metrics.rows_written"] = (traced["rows_written"], "count")
        layer["metrics.bytes_written"] = (traced["bytes_written"], "B")
        layer["trace.absent_targets"] = (len(tracer.absent), "count")
        facts["absent_targets"] = tracer.absent
        metrics = layer
    else:
        t0 = time.perf_counter()
        setup_times = _measure_setup(bench.cli, bench.argv)
        bench.run_untraced(args.seconds - (time.perf_counter() - t0), min_passes=MIN_PASSES)
        passes = bench.passes
        setup_times += [p["setup_s"] for p in passes]
        metrics = {
            "sweep_s": (_median(p["sweep_s"] for p in passes), "s"),
            "setup_s": (_median(setup_times), "s"),
            "rounds_per_s": (_median(p["rounds"] / p["solver_s"] if p["solver_s"] else 0.0
                                     for p in passes), "1/s"),
            "cpu_s": (_median(p["cpu_s"] for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "sim_time_units": (_median(p["sim_time_units"] for p in passes), "units"),
            "passed_frac": ((bench.attempted - bench.failed) / bench.attempted, "frac"),
        }

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(facts, passes=bench.passes, setup_times_s=setup_times,
                  failures=bench.failures, result=result)
    results_dir = OUT_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in bench.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
