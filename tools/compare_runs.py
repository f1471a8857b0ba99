"""Compare the outputs of two ``fedbilevel run``/``sweep`` directories.

Usage:

    python tools/compare_runs.py A B

Both directories must hold the same run summaries (``<run_id>.json`` with a
matching ``<run_id>.jsonl``). For every run, ``final_x``, ``final_avg_x``,
``rounds``, ``stop_reason``, ``test_accuracy`` and every row's ``step_norm``
must be bitwise equal. Every other logged number (summaries, per-round rows
and ``summary.csv`` where both have one) is compared too, and the largest
relative deviation of each field that is not equal everywhere is printed;
``wall_clock_sec`` and ``config.out_dir`` are ignored.

A number-only comparison misses an integer written as ``1.0``, a number
written in another notation or a changed string, so the report also says
whether every ``.jsonl`` line (with its ``wall_clock_sec`` entry removed),
every per-run ``.csv`` (with its ``wall_clock_sec`` column removed) and
``summary.csv`` (where both have one) are byte-identical, and whether every
``.json`` summary is identical once ``config.out_dir`` is removed, naming
every key path that differs. Such a difference alone does not change
the exit status.

Exit status: 0 when the exact fields match, 1 when any of them differs, 2
when the directories do not hold the same runs or fields.
"""
from __future__ import annotations

import csv
import json
import math
import re
import sys
from pathlib import Path

EXACT_SUMMARY = ("final_x", "final_avg_x", "rounds", "stop_reason", "test_accuracy")
EXACT_ROW = ("step_norm",)
IGNORED = {"rows.wall_clock_sec", "summary.config.out_dir"}
WALL_CLOCK = re.compile(rb'(, )?"wall_clock_sec": [^,}]*')


def _numbers(value, path: str, out: list[tuple[str, float]]) -> None:
    """Append (field path, number) for every number in a parsed JSON value;
    list elements share their list's path."""
    if isinstance(value, dict):
        for key, item in value.items():
            _numbers(item, f"{path}.{key}", out)
    elif isinstance(value, list):
        for item in value:
            _numbers(item, path, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if path not in IGNORED:
            out.append((path, float(value)))


def _csv_numbers(path: Path) -> list[tuple[str, float]]:
    out = []
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            for key, cell in row.items():
                try:
                    out.append((f"summary.csv.{key}", float(cell)))
                except ValueError:
                    continue
    return out


def _rel_dev(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def _same(a, b) -> bool:
    # json.dumps writes the shortest repr that round-trips, so equal strings
    # mean bitwise-equal floats (and tell 0.0 from -0.0).
    return json.dumps(a) == json.dumps(b)


_ABSENT = object()


def _key_differences(a, b, path: str = "") -> list[str]:
    """Every key path (a list item as ``[i]``) at which two parsed JSON values
    differ, ints and floats told apart, in key order; a dict whose shared
    keys come in another order adds ``<path> (key order)``. Empty when the
    values are the same."""
    if isinstance(a, dict) and isinstance(b, dict):
        items = [(f"{path}.{key}" if path else key, a.get(key, _ABSENT), b.get(key, _ABSENT))
                 for key in dict.fromkeys([*a, *b])]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        items = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    elif a is _ABSENT or b is _ABSENT or not _same(a, b):
        return [path or "the top level"]
    else:
        return []
    found = [leaf for sub, x, y in items for leaf in _key_differences(x, y, sub)]
    if isinstance(a, dict) and [k for k in a if k in b] != [k for k in b if k in a]:
        found.append(f"{path or 'the top level'} (key order)")
    return found


def _without_out_dir(summary: dict) -> dict:
    config = summary.get("config")
    if isinstance(config, dict):
        summary = dict(summary, config={k: v for k, v in config.items() if k != "out_dir"})
    return summary


def _without_wall_clock_column(lines: list[bytes]) -> list[bytes]:
    """CSV lines with the ``wall_clock_sec`` column (named in the header)
    removed, line ends kept."""
    header = lines[0].rstrip(b"\r\n").split(b",") if lines else []
    if b"wall_clock_sec" not in header:
        return lines
    col, out = header.index(b"wall_clock_sec"), []
    for line in lines:
        body = line.rstrip(b"\r\n")
        cells = body.split(b",")
        out.append(b",".join(cells[:col] + cells[col + 1:]) + line[len(body):])
    return out


def _load_run(directory: Path, run_id: str) -> tuple[dict, list[bytes]]:
    """The run's parsed summary and its raw JSONL lines, line ends kept."""
    summary = json.loads((directory / f"{run_id}.json").read_text(encoding="utf-8"))
    lines = (directory / f"{run_id}.jsonl").read_bytes().splitlines(keepends=True)
    return summary, lines


def _first_line_difference(lines_a: list[bytes], lines_b: list[bytes]) -> int | None:
    """1-based number of the first line that differs, or None when none does."""
    for number, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        if la != lb:
            return number
    if len(lines_a) != len(lines_b):
        return min(len(lines_a), len(lines_b)) + 1
    return None


def compare(a_dir: Path, b_dir: Path) -> tuple[int, list[str]]:
    """Returns (exit status, report lines)."""
    runs_a = sorted(p.stem for p in a_dir.glob("*.json"))
    runs_b = sorted(p.stem for p in b_dir.glob("*.json"))
    if not runs_a or runs_a != runs_b:
        return 2, [f"run sets differ: {runs_a} vs {runs_b}"]
    differences = []
    worst: dict[str, float] = {}
    pairs: list[tuple[list, list]] = []
    byte_diffs: list[str] = []
    json_diffs: list[str] = []
    csv_diffs: list[str] = []
    csv_runs = 0
    for run_id in runs_a:
        sa, lines_a = _load_run(a_dir, run_id)
        sb, lines_b = _load_run(b_dir, run_id)
        line = _first_line_difference([WALL_CLOCK.sub(b"", la) for la in lines_a],
                                      [WALL_CLOCK.sub(b"", lb) for lb in lines_b])
        if line is not None:
            byte_diffs.append(f"{run_id}.jsonl line {line}")
        keys = _key_differences(_without_out_dir(sa), _without_out_dir(sb))
        if keys:
            json_diffs.append(f"{run_id}.json at {', '.join(keys)}")
        csvs = [d / f"{run_id}.csv" for d in (a_dir, b_dir)]
        if any(path.is_file() for path in csvs):
            csv_runs += 1
            if not all(path.is_file() for path in csvs):
                csv_diffs.append(f"{run_id}.csv is in one directory only")
            else:
                ca, cb = (_without_wall_clock_column(path.read_bytes().splitlines(keepends=True))
                          for path in csvs)
                line = _first_line_difference(ca, cb)
                if line is not None:
                    csv_diffs.append(f"{run_id}.csv line {line}")
        rows_a = [json.loads(la) for la in lines_a]
        rows_b = [json.loads(lb) for lb in lines_b]
        for key in EXACT_SUMMARY:
            if not _same(sa.get(key), sb.get(key)):
                differences.append(f"{run_id}: {key} differs")
        if len(rows_a) != len(rows_b):
            differences.append(f"{run_id}: {len(rows_a)} vs {len(rows_b)} rows")
        for ra, rb in zip(rows_a, rows_b):
            for key in EXACT_ROW:
                if not _same(ra.get(key), rb.get(key)):
                    differences.append(f"{run_id}: {key} differs in round {ra.get('k')}")
                    break
        na, nb = [], []
        _numbers(sa, "summary", na)
        _numbers(sb, "summary", nb)
        _numbers(rows_a, "rows", na)
        _numbers(rows_b, "rows", nb)
        pairs.append((na, nb))
    csv_a, csv_b = a_dir / "summary.csv", b_dir / "summary.csv"
    csv_same = None
    if csv_a.is_file() and csv_b.is_file():
        pairs.append((_csv_numbers(csv_a), _csv_numbers(csv_b)))
        csv_same = csv_a.read_bytes() == csv_b.read_bytes()
    for na, nb in pairs:
        if [f for f, _ in na] != [f for f, _ in nb]:
            if not differences:
                return 2, ["logged fields differ between the two directories"]
            continue
        for (field, x), (_, y) in zip(na, nb):
            worst[field] = max(worst.get(field, 0.0), _rel_dev(x, y))
    report = [f"runs compared: {len(runs_a)}"]
    if differences:
        report.append("exact fields DIFFER:")
        report += [f"  {d}" for d in differences]
    else:
        report.append("exact fields identical: " + ", ".join(EXACT_SUMMARY + EXACT_ROW))
    if byte_diffs:
        report.append(f".jsonl lines (minus wall_clock_sec) DIFFER in {len(byte_diffs)} "
                      f"of {len(runs_a)} runs, first at:")
        report += [f"  {d}" for d in byte_diffs]
    else:
        report.append(".jsonl lines (minus wall_clock_sec) byte-identical in every run")
    if json_diffs:
        report.append(f".json summaries (minus config.out_dir) DIFFER in {len(json_diffs)} "
                      f"of {len(runs_a)} runs, at:")
        report += [f"  {d}" for d in json_diffs]
    else:
        report.append(".json summaries (minus config.out_dir) identical in every run")
    if csv_diffs:
        report.append(f"per-run .csv files (minus wall_clock_sec) DIFFER in {len(csv_diffs)} "
                      f"of {csv_runs} runs, first at:")
        report += [f"  {d}" for d in csv_diffs]
    elif csv_runs:
        report.append(f"per-run .csv files (minus wall_clock_sec) byte-identical in all "
                      f"{csv_runs} runs")
    else:
        report.append("per-run .csv files: none in either directory")
    if csv_same is not None:
        report.append(f"summary.csv bytes: {'identical' if csv_same else 'DIFFER'}")
    shifted = {field: dev for field, dev in worst.items() if dev > 0.0}
    report.append(f"logged numeric fields: {len(worst)}, equal in every run: "
                  f"{len(worst) - len(shifted)}")
    if shifted:
        report.append("max relative deviation of the others:")
        width = max(len(f) for f in shifted)
        report += [f"  {field:<{width}}  {dev:.3g}" for field, dev in sorted(shifted.items())]
    return (1 if differences else 0), report


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a_dir, b_dir = Path(args[0]), Path(args[1])
    for d in (a_dir, b_dir):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    try:
        status, report = compare(a_dir, b_dir)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read run outputs: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
