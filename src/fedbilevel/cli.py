"""Configuration-driven experiment runner.

Subcommands:
  run <config>      execute a single run (first method, first client count)
  sweep <config>    execute the full methods x client-counts x repeats grid
                    and write a merged summary.csv
  selftest          objective and projection property suite
  inspect <file>    print a saved run summary

Every run writes a JSON summary and a JSONL stream of per-round rows
(optionally a CSV of the same rows) into the output directory as soon as it
finishes; a run that stops on a non-finite objective value writes its files
too and counts as a failure. Each file is written under a temporary name and
moved into place, so an interrupted sweep leaves only complete files. Exit
codes: 0 all runs complete, 1 partial run failures, 2 invalid configuration,
3 data errors (including data too large for memory and an unwritable file).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from collections.abc import Callable
from itertools import takewhile
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .data import (FormatError, load_binary_digits, make_location_instance,
                   make_synthetic_logistic)
from .federation import CostModel, partition_data
from .instances import location_problem, logistic_problem, selection_1d_problem
from .metrics import RunRecord, accuracy, write_rows_csv, write_rows_jsonl, write_run_json
from .problem import ProblemSpec, make_schedule
from .rng import STREAM_INIT, make_rng, open_uniform
from .solvers import run_solver


def _build_datasets(cfg: ExperimentConfig) -> dict:
    """Load or generate the problem data shared by all runs of a sweep."""
    ctx: dict = {}
    if cfg.problem == "location":
        ctx["instance"] = make_location_instance(cfg.n, cfg.m, seed=cfg.seed)
    elif cfg.problem == "logistic-synthetic":
        ctx["train"], heldout = make_synthetic_logistic(cfg.n, cfg.m, cfg.margin, seed=cfg.seed,
                                                        test_size=cfg.test_size)
        if len(heldout):
            ctx["test"] = heldout
    elif cfg.problem == "logistic-mnist":
        ctx["train"] = load_binary_digits(cfg.images_path, cfg.labels_path, cfg.pos_digit,
                                          cfg.neg_digit, name="mnist")
        if cfg.test_images_path:  # the config sets the held-out pair together or not at all
            ctx["test"] = load_binary_digits(cfg.test_images_path, cfg.test_labels_path,
                                             cfg.pos_digit, cfg.neg_digit, name="mnist-test")
            train_px, test_px = (ctx[s].features.shape[1] for s in ("train", "test"))
            if test_px != train_px:
                raise FormatError(f"{cfg.test_images_path}: held-out images have {test_px} "
                                  f"pixels, the training images {train_px}")
    return ctx


def _build_problem(cfg: ExperimentConfig, ctx: dict, n_clients: int,
                   run_seed: int) -> ProblemSpec:
    m = len(ctx["train"]) if "train" in ctx else cfg.m
    clients = partition_data(m, n_clients, cfg.partition, seed=run_seed)
    if cfg.problem == "selection-1d":
        return selection_1d_problem(tuple(map(len, clients)))
    if cfg.problem == "location":
        return location_problem(ctx["instance"], clients)
    return logistic_problem(ctx["train"], clients)


def _cost_model(cfg: ExperimentConfig, sizes: tuple[int, ...]) -> CostModel:
    scale = cfg.client_cost_scale
    if scale is not None and len(scale) != len(sizes):
        raise ConfigError("client_cost_scale length must equal the client count",
                          key="client_cost_scale")
    comm = cfg.comm_cost
    if len(comm) not in (1, len(sizes)):
        raise ConfigError("comm_cost must hold one value or one per client",
                          key="comm_cost")
    if scale is None:
        scale = (1.0,) * len(sizes)
    per = tuple(np.full(size, cfg.unit_cost * s) for size, s in zip(sizes, scale))
    return CostModel(per, np.full(len(sizes), comm[0]) if len(comm) == 1 else comm)


def execute(cfg: ExperimentConfig, grid: bool, emit: Callable[[str, RunRecord], None],
            progress=print) -> list[tuple[str, str]]:
    """Run the configured experiment, handing each finished run to
    ``emit(run_id, record)``; returns the failures as (run_id, message).

    No record is kept once ``emit`` returns, so memory holds one run at a
    time. An exception from ``emit`` stops the sweep.
    """
    ctx = _build_datasets(cfg)
    methods = cfg.methods if grid else cfg.methods[:1]
    s_values = cfg.s_values if grid else cfg.s_values[:1]
    repeats = cfg.repeats if grid else 1
    failures: list[tuple[str, str]] = []
    for method in methods:
        for n_clients in s_values:
            for rep in range(repeats):
                run_seed = cfg.seed + rep
                run_id = f"{cfg.problem}_{method}_S{n_clients}_rep{rep}"
                try:
                    record = _single_run(cfg, ctx, method, n_clients, rep, run_seed)
                except Exception as exc:  # noqa: BLE001 - runs are isolated
                    failures.append((run_id, f"{type(exc).__name__}: {exc}"))
                    progress(f"{run_id}: FAILED ({exc})")
                    continue
                emit(run_id, record)
                progress(f"{run_id}: {record.rounds} rounds, stop={record.stop_reason}, "
                         f"final inner={record.final_inner_value:.6g}, "
                         f"outer={record.final_outer_value:.6g}")
                if record.stop_reason == "non-finite":
                    failures.append((run_id, f"non-finite objective value in round "
                                             f"{record.rounds}"))
                del record  # else it stays alive while the next run computes
    return failures


def _single_run(cfg: ExperimentConfig, ctx: dict, method: str, n_clients: int,
                rep: int, run_seed: int) -> RunRecord:
    problem = _build_problem(cfg, ctx, n_clients, run_seed)
    sched = make_schedule(cfg.gamma1, cfg.a, cfg.lambda1, cfg.b,
                          mu_H=problem.mu_H, m=problem.n_inner)
    box = problem.constraint
    x_init = open_uniform(make_rng(run_seed, STREAM_INIT), box.lo, box.hi, box.dimension)
    costs = _cost_model(cfg, problem.client_sizes)
    record = run_solver(problem, sched, method, x_init, cfg.max_rounds, tol=cfg.tol,
                        seed=run_seed, costs=costs)
    if "test" in ctx:
        record.test_accuracy = accuracy(record.final_x, ctx["test"])
    record.config = dict(cfg.echo_dict(), method=method, n_clients=n_clients,
                         repeat=rep, run_seed=run_seed)
    return record


# The fields of a run summary that summary.csv averages.
SUMMARY_FIELDS = ("problem_id", "method", "n_clients", "rounds", "total_time_units",
                  "final_inner_value", "final_outer_value", "test_accuracy")


def _write_atomic(write, data, path: Path) -> None:
    """``write(data, tmp)`` to a temporary name beside ``path``, then move it
    into place, so ``path`` is never left half written. An OSError names
    ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(data, tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc}") from exc
        raise


def write_outputs(run_id: str, record: RunRecord, out_dir: Path, write_csv: bool) -> None:
    """Write one run's ``.jsonl`` (and ``.csv``), then its ``.json``, into
    ``out_dir``: a run whose summary exists has all its files."""
    _write_atomic(write_rows_jsonl, record, out_dir / f"{run_id}.jsonl")
    if write_csv:
        _write_atomic(write_rows_csv, record, out_dir / f"{run_id}.csv")
    _write_atomic(write_run_json, record, out_dir / f"{run_id}.json")


def write_summary(summaries: list[dict], path: Path) -> None:
    """Write ``summary.csv``: per-(method, S) means of run summaries, which
    need only the ``SUMMARY_FIELDS``."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for summary in summaries:
        groups.setdefault((summary["method"], summary["n_clients"]), []).append(summary)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["problem", "method", "n_clients", "repeats", "rounds_mean",
                         "sim_time_mean", "final_inner_mean", "final_outer_mean",
                         "test_accuracy_mean"])
        for (method, n_clients), runs in groups.items():
            accs = [r["test_accuracy"] for r in runs if r["test_accuracy"] is not None]
            writer.writerow([
                runs[0]["problem_id"], method, n_clients, len(runs),
                float(np.mean([r["rounds"] for r in runs])),
                float(np.mean([r["total_time_units"] for r in runs])),
                float(np.mean([r["final_inner_value"] for r in runs])),
                float(np.mean([r["final_outer_value"] for r in runs])),
                float(np.mean(accs)) if accs else "",
            ])


def _cmd_run(args: argparse.Namespace, grid: bool) -> int:
    try:
        cfg = load_config(args.config, args.set)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.out_dir)
    # The directories this invocation makes, deepest first: a data error
    # removes them again, as long as they are empty.
    created = list(takewhile(lambda path: not path.exists(), (out_dir, *out_dir.parents)))
    summaries: list[dict] = []

    def emit(run_id: str, record: RunRecord) -> None:
        write_outputs(run_id, record, out_dir, cfg.write_csv)
        summary = record.summary_dict()
        summaries.append({key: summary[key] for key in SUMMARY_FIELDS})

    try:
        out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable place fails before any run
        failures = execute(cfg, grid=grid, emit=emit)
        if grid:
            _write_atomic(write_summary, summaries, out_dir / "summary.csv")
    except (FormatError, FileNotFoundError, OSError, MemoryError) as exc:
        # The runs written so far stay: removal stops at the first non-empty directory.
        print(f"data error: {exc}", file=sys.stderr)
        for path in created:
            try:
                path.rmdir()
            except OSError:  # not empty, or never made
                break
        return 3
    if failures:
        for run_id, message in failures:
            print(f"failed: {run_id}: {message}", file=sys.stderr)
        return 1
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selfcheck import run_selftest
    results = run_selftest(points=args.points, pairs=args.pairs)
    all_ok = True
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name} ({detail})")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        summary = json.loads(Path(args.record).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    sched = summary.get("schedule", {}) if isinstance(summary, dict) else None
    if not isinstance(sched, dict):
        print(f"data error: {args.record} is not a run summary object with an object "
              f"schedule", file=sys.stderr)
        return 3
    print(f"problem:  {summary.get('problem_id')}")
    print(f"method:   {summary.get('method')} (S={summary.get('n_clients')}, "
          f"m={summary.get('n_inner')}, n={summary.get('dimension')})")
    print(f"schedule: gamma1={sched.get('gamma1')} a={sched.get('a')} "
          f"lambda1={sched.get('lambda1')} b={sched.get('b')}")
    print(f"seed:     {summary.get('seed')} (prng {summary.get('prng')})")
    print(f"rounds:   {summary.get('rounds')} (stop: {summary.get('stop_reason')})")
    print(f"final:    inner={summary.get('final_inner_value')} "
          f"outer={summary.get('final_outer_value')}")
    print(f"time:     {summary.get('total_time_units')} units; "
          f"evals inner={summary.get('inner_subgrad_evals')} "
          f"outer={summary.get('outer_subgrad_evals')}")
    if summary.get("test_accuracy") is not None:
        print(f"accuracy: {summary['test_accuracy']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fedbilevel", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("config", help="path to a flat key = value config file")
        p.add_argument("--out", default=None, help="output directory (overrides out_dir)")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (repeatable)")

    p_run = sub.add_parser("run", help="execute a single run")
    add_run_flags(p_run)
    p_sweep = sub.add_parser("sweep", help="execute the full config grid")
    add_run_flags(p_sweep)
    p_self = sub.add_parser("selftest", help="objective and projection property suite")
    p_self.add_argument("--points", type=int, default=100)
    p_self.add_argument("--pairs", type=int, default=100)
    p_inspect = sub.add_parser("inspect", help="print a saved run summary")
    p_inspect.add_argument("record", help="path to a run .json summary")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args, grid=False)
    if args.command == "sweep":
        return _cmd_run(args, grid=True)
    if args.command == "selftest":
        return _cmd_selftest(args)
    return _cmd_inspect(args)


def script_main() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    script_main()
