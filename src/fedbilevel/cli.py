"""Configuration-driven experiment runner.

Subcommands:
  run <config>      execute the sweep's first run (first method, first client
                    count, repeat 0); its files equal the sweep's, byte for byte
  sweep <config>    execute the full methods x client-counts x repeats grid
                    and write a merged summary.csv
  selftest          objective and projection property suite
  inspect <file>    print a saved run summary

A sweep builds its data and problem once; each run splits that problem's
inner functions across its clients with its own seed.
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
from collections.abc import Callable, Iterable, Iterator
from dataclasses import replace
from itertools import islice, takewhile
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .data import FormatError, LabeledDataset, load_binary_digits, make_synthetic_logistic
from .federation import CostModel, partition_data
from .instances import location_problem, logistic_problem, selection_1d_problem
from .metrics import RunRecord, accuracy, write_rows_csv, write_rows_jsonl, write_run_json
from .problem import ProblemSpec, StepSchedule
from .rng import STREAM_INIT, make_rng, open_uniform
from .solvers import run_solver


def _base_problem(cfg: ExperimentConfig) -> tuple[ProblemSpec, LabeledDataset | None]:
    """The problem every run of a sweep shares, with all its inner functions
    on one client, and the held-out set if the config has one."""
    if cfg.problem == "selection-1d":  # identical balls: any split gives the same bits
        return selection_1d_problem((cfg.m,)), None
    if cfg.problem == "location":
        return location_problem(cfg.n, cfg.m, cfg.seed, (range(cfg.m),)), None
    heldout = None
    if cfg.problem == "logistic-synthetic":
        train, heldout = make_synthetic_logistic(cfg.n, cfg.m, cfg.margin, seed=cfg.seed,
                                                 test_size=cfg.test_size)
    else:  # logistic-mnist
        train = load_binary_digits(cfg.images_path, cfg.labels_path, cfg.pos_digit,
                                   cfg.neg_digit, name="mnist")
        if cfg.test_images_path:  # the config sets the held-out pair together or not at all
            heldout = load_binary_digits(cfg.test_images_path, cfg.test_labels_path,
                                         cfg.pos_digit, cfg.neg_digit, name="mnist-test")
            train_px, test_px = (ds.features.shape[1] for ds in (train, heldout))
            if test_px != train_px:
                raise FormatError(f"{cfg.test_images_path}: held-out images have {test_px} "
                                  f"pixels, the training images {train_px}")
    return logistic_problem(train, (range(len(train)),)), heldout or None  # None if empty


def _cost_model(cfg: ExperimentConfig, sizes: tuple[int, ...]) -> CostModel:
    scale = cfg.client_cost_scale or (1.0,) * len(sizes)
    if len(scale) != len(sizes):
        raise ConfigError("client_cost_scale length must equal the client count",
                          key="client_cost_scale")
    comm = cfg.comm_cost
    if len(comm) not in (1, len(sizes)):
        raise ConfigError("comm_cost must hold one value or one per client",
                          key="comm_cost")
    per = tuple(np.full(size, cfg.unit_cost * s) for size, s in zip(sizes, scale))
    return CostModel(per, np.full(len(sizes), comm[0]) if len(comm) == 1 else comm)


def _plan(cfg: ExperimentConfig) -> Iterator[tuple[str, str, int, int]]:
    """Every run of the sweep as (run_id, method, S, repeat), lazily, in run order."""
    return ((f"{cfg.problem}_{method}_S{n_clients}_rep{rep}", method, n_clients, rep)
            for method in cfg.methods for n_clients in cfg.s_values
            for rep in range(cfg.repeats))


def execute(cfg: ExperimentConfig, runs: Iterable[tuple[str, str, int, int]],
            emit: Callable[[str, RunRecord], None]) -> list[tuple[str, str]]:
    """Compute ``runs``, entries of ``_plan(cfg)``, on one shared problem,
    handing each finished run to ``emit(run_id, record)`` and printing one
    line on it; returns the failures as (run_id, message).

    No record is kept once ``emit`` returns, so memory holds one run at a
    time. An exception from ``emit`` stops the sweep.
    """
    base, heldout = _base_problem(cfg)
    failures: list[tuple[str, str]] = []
    for run_id, method, n_clients, rep in runs:
        try:
            record = _single_run(cfg, base, heldout, method, n_clients, rep)
        except Exception as exc:  # noqa: BLE001 - runs are isolated
            failures.append((run_id, f"{type(exc).__name__}: {exc}"))
            print(f"{run_id}: FAILED ({exc})")
            continue
        emit(run_id, record)
        print(f"{run_id}: {record.rounds} rounds, stop={record.stop_reason}, "
              f"final inner={record.final_inner_value:.6g}, "
              f"outer={record.final_outer_value:.6g}")
        if record.stop_reason == "non-finite":
            failures.append((run_id, f"non-finite objective value in round {record.rounds}"))
        del record  # else it stays alive while the next run computes
    return failures


def _single_run(cfg: ExperimentConfig, base: ProblemSpec, heldout: LabeledDataset | None,
                method: str, n_clients: int, rep: int) -> RunRecord:
    run_seed = cfg.seed + rep
    problem = replace(base, clients=partition_data(base.n_inner, n_clients, cfg.partition,
                                                   seed=run_seed))
    sched = StepSchedule(cfg.gamma1, cfg.a, cfg.lambda1, cfg.b)
    box = problem.constraint
    x_init = open_uniform(make_rng(run_seed, STREAM_INIT), box.lo, box.hi, box.dimension)
    costs = _cost_model(cfg, problem.client_sizes)
    record = run_solver(problem, sched, method, x_init, cfg.max_rounds, tol=cfg.tol,
                        costs=costs)
    record.seed = run_seed
    if heldout is not None:
        record.test_accuracy = accuracy(record.final_x, heldout)
    # n and m echo the problem as built: logistic-mnist reads both from its images.
    record.config = dict(cfg.echo_dict(), n=problem.dimension, m=problem.n_inner,
                         method=method, n_clients=n_clients, repeat=rep, run_seed=run_seed)
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
        flags = [f"{key}={value}" for key, value in (("seed", args.seed), ("out_dir", args.out))
                 if value is not None]  # after every --set, so the flags win
        cfg = load_config(args.config, args.set + flags)
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
        failures = execute(cfg, islice(_plan(cfg), None if grid else 1), emit=emit)
        if grid:
            _write_atomic(write_summary, summaries, out_dir / "summary.csv")
    except (FormatError, OSError, MemoryError) as exc:
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
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        print(f"data error: {args.record}: {exc}", file=sys.stderr)
        return 3
    sched = summary.get("schedule") if isinstance(summary, dict) else None
    if not isinstance(sched, dict):
        print(f"data error: {args.record} is not a run summary object with an object "
              f"schedule", file=sys.stderr)
        return 3
    try:  # every line is formatted before any is printed
        lines = [
            f"problem:  {summary['problem_id']}",
            f"method:   {summary['method']} (S={summary['n_clients']}, "
            f"m={summary['n_inner']}, n={summary['dimension']})",
            f"schedule: gamma1={sched['gamma1']} a={sched['a']} lambda1={sched['lambda1']} "
            f"b={sched['b']} feasible={sched['feasible']}",
            f"seed:     {summary['seed']} (prng {summary['prng']})",
            f"rounds:   {summary['rounds']} (stop: {summary['stop_reason']})",
            f"final:    inner={summary['final_inner_value']} "
            f"outer={summary['final_outer_value']}",
            f"time:     {summary['total_time_units']} units; "
            f"evals inner={summary['inner_subgrad_evals']} "
            f"outer={summary['outer_subgrad_evals']}",
        ]
    except KeyError as exc:
        print(f"data error: {args.record}: not a run summary, no key {exc}", file=sys.stderr)
        return 3
    if summary.get("test_accuracy") is not None:
        lines.append(f"accuracy: {summary['test_accuracy']}")
    print("\n".join(lines))
    return 0


def _count(raw: str) -> int:
    """A ``--points``/``--pairs`` count: an integer of at least 1 (0 checks nothing)."""
    with contextlib.suppress(ValueError):
        if int(raw) >= 1:
            return int(raw)
    raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {raw!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fedbilevel", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("run", "execute the sweep's first run"),
                            ("sweep", "execute the full config grid")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a flat key = value config file")
        p.add_argument("--out", default=None, help="output directory (overrides out_dir)")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (repeatable)")
    p_self = sub.add_parser("selftest", help="objective and projection property suite")
    p_self.add_argument("--points", type=_count, default=100)
    p_self.add_argument("--pairs", type=_count, default=100)
    p_inspect = sub.add_parser("inspect", help="print a saved run summary")
    p_inspect.add_argument("record", help="path to a run .json summary")

    args = parser.parse_args(argv)
    if args.command in ("run", "sweep"):
        return _cmd_run(args, grid=args.command == "sweep")
    if args.command == "selftest":
        return _cmd_selftest(args)
    return _cmd_inspect(args)


def script_main() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    script_main()
