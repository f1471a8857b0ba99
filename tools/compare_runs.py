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
whether every ``.jsonl`` line, every per-run ``.csv`` and ``summary.csv``
are byte-identical, and whether every ``.json`` summary is identical,
naming every key path that differs, once ``wall_clock_sec`` and
``config.out_dir`` are removed; a file found in one directory only is
named. Such a difference alone does not change the exit status.

This module is the one definition of "the same outputs": ``canonical``
removes named key paths from an output file's bytes and ``differences``
names where two sets of files differ. The golden digests
(``tools/record_golden.py``), the execution-shape twins and acceptance
criterion C11 use them too.

Exit status: 0 when the exact fields match, 1 when any of them differs, 2
when the directories do not hold the same runs or fields, or an output
cannot be read, is not UTF-8, is not JSON or holds a summary or row that is
not a JSON object. A status 2 names what it found: the file it could not
read (``cannot read run outputs: <path>: <reason>``), or the run (or
``summary.csv``) and the first field path at which the two directories'
logged fields part.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from collections.abc import Iterable
from itertools import zip_longest
from pathlib import Path

EXACT_SUMMARY = ("final_x", "final_avg_x", "rounds", "stop_reason", "test_accuracy")
EXACT_ROW = ("step_norm",)
# What differs between two runs of one setting: the wall clock of each row
# and each summary's output directory.
IGNORED = ("wall_clock_sec", "config.out_dir")


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
        out.append((path, float(value)))


def _csv_numbers(path: Path, data: bytes) -> list[tuple[str, float]]:
    out = []
    for row in _parsed(path, data):
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


def _kind(name: str) -> str:
    """How output ``name`` (a file name or path) is read: ``.jsonl`` rows, a
    ``.json`` summary, per-run ``.csv`` columns, or "" for bytes only
    (``summary.csv``, streams)."""
    if Path(name).name == "summary.csv":
        return ""
    return next((ext for ext in (".jsonl", ".json", ".csv") if name.endswith(ext)), "")


def _parsed(where, data: bytes):
    """Output ``where`` (a file name or path) decoded as UTF-8 and parsed: a
    ``.json`` summary's object, a ``.jsonl``'s row objects, or a ``.csv``'s
    rows as dicts. A ValueError (not UTF-8, not JSON, or a summary or row
    that is not a JSON object) names ``where``."""
    kind = _kind(str(where))
    try:
        if kind not in (".json", ".jsonl"):
            return list(csv.DictReader(io.StringIO(data.decode("utf-8"), newline="")))
        lines = data.splitlines() if kind == ".jsonl" else [data]
        values = [json.loads(line.decode("utf-8")) for line in lines]
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    for n, value in enumerate(values, start=1):
        if not isinstance(value, dict):
            line = f"line {n} " if kind == ".jsonl" else ""
            raise ValueError(f"{where}: {line}is not a JSON object: {json.dumps(value)[:40]}")
    return values if kind == ".jsonl" else values[0]


def canonical(name: str, data: bytes, drop: Iterable[str]) -> bytes:
    """``data``, the contents of output ``name`` (a file name or path, which
    names the file if it cannot be parsed), without the key paths in
    ``drop``: the fields of every ``.jsonl`` row (a row's key paths are its
    field names), the columns of a per-run ``.csv`` and the key paths of a
    ``.json`` summary, which is then written as the summary writer writes it
    (``indent=2``). Any other file, and a file holding none of them, keeps
    its bytes."""
    kind, drop = _kind(name), sorted(drop)
    if kind == ".jsonl" and drop:
        fields = b"|".join(re.escape(key.encode()) for key in drop)
        return re.sub(rb'(, )?"(?:' + fields + rb')": [^,}]*', b"", data)
    if kind == ".csv":
        lines = data.splitlines(keepends=True)
        header = lines[0].rstrip(b"\r\n").split(b",") if lines else []
        dropped = {key.encode() for key in drop}
        cols = {i for i, cell in enumerate(header) if cell in dropped}
        if not cols:
            return data
        out = []
        for line in lines:
            body = line.rstrip(b"\r\n")
            cells = [cell for i, cell in enumerate(body.split(b",")) if i not in cols]
            out.append(b",".join(cells) + line[len(body):])
        return b"".join(out)
    if kind == ".json":
        summary, removed = _parsed(name, data), False
        for path in drop:
            *parents, key = path.split(".")
            node = summary
            for part in parents:
                node = node.get(part) if isinstance(node, dict) else None
            if isinstance(node, dict) and key in node:
                del node[key]
                removed = True
        if removed:
            return json.dumps(summary, indent=2).encode()
    return data


def differences(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    """Where two sets of outputs, file name -> bytes, differ: one entry per
    differing file, in the order the names first appear, saying ``<name> is
    in one directory only``, ``<name> at <key path>, ...`` for a ``.json``
    summary whose parsed values differ, or else ``<name> line <n>``, its
    first differing line. Empty when the two are the same."""
    found = []
    for name in dict.fromkeys([*a, *b]):
        if name not in a or name not in b:
            found.append(f"{name} is in one directory only")
        elif a[name] != b[name]:
            keys = (_key_differences(_parsed(name, a[name]), _parsed(name, b[name]))
                    if _kind(name) == ".json" else [])
            lines = zip_longest(*(side[name].splitlines(keepends=True) for side in (a, b)))
            line = next(n for n, (x, y) in enumerate(lines, start=1) if x != y)
            found.append(f"{name} at {', '.join(keys)}" if keys else f"{name} line {line}")
    return found


def read(directory: Path, names: Iterable[str], drop: Iterable[str]) -> dict[str, bytes]:
    """The ``canonical`` bytes of each named file of ``directory``, by name;
    a file that cannot be parsed is named by its path."""
    return {name: canonical(str(directory / name), (directory / name).read_bytes(), drop)
            for name in names}


def _section(label: str, found: list[str], total: int, where: str, same: str) -> list[str]:
    if not found:
        return [f"{label} {same}"]
    return [f"{label} DIFFER in {len(found)} of {total} runs, {where}:",
            *(f"  {d}" for d in found)]


def compare(a_dir: Path, b_dir: Path) -> tuple[int, list[str]]:
    """Returns (exit status, report lines)."""
    runs = sorted(p.stem for p in a_dir.glob("*.json"))
    runs_b = sorted(p.stem for p in b_dir.glob("*.json"))
    if not runs or runs != runs_b:
        return 2, [f"run sets differ: {runs} vs {runs_b}"]
    # A run's rows and summary must be in both directories; its .csv and
    # summary.csv may be in either.
    names = [f"{run}{ext}" for run in runs for ext in (".jsonl", ".json")]
    optional = [*(f"{run}.csv" for run in runs), "summary.csv"]
    dirs = (a_dir, b_dir)
    files = [read(d, names + [n for n in optional if (d / n).is_file()], IGNORED)
             for d in dirs]
    found: dict[str, list[str]] = {".jsonl": [], ".json": [], ".csv": [], "": []}
    for entry in differences(*files):
        found[_kind(entry.split(" ", 1)[0])].append(entry)
    exact = []
    worst: dict[str, float] = {}
    pairs: list[tuple[str, list, list]] = []  # (run or summary.csv, numbers of a, of b)
    for run in runs:
        sa, sb = (_parsed(d / f"{run}.json", f[f"{run}.json"]) for d, f in zip(dirs, files))
        rows_a, rows_b = (_parsed(d / f"{run}.jsonl", f[f"{run}.jsonl"])
                          for d, f in zip(dirs, files))
        for key in EXACT_SUMMARY:
            if not _same(sa.get(key), sb.get(key)):
                exact.append(f"{run}: {key} differs")
        if len(rows_a) != len(rows_b):
            exact.append(f"{run}: {len(rows_a)} vs {len(rows_b)} rows")
        for ra, rb in zip(rows_a, rows_b):
            for key in EXACT_ROW:
                if not _same(ra.get(key), rb.get(key)):
                    exact.append(f"{run}: {key} differs in round {ra.get('k')}")
                    break
        na, nb = [], []
        _numbers(sa, "summary", na)
        _numbers(sb, "summary", nb)
        _numbers(rows_a, "rows", na)
        _numbers(rows_b, "rows", nb)
        pairs.append((run, na, nb))
    summary_csv = [(d / "summary.csv", f["summary.csv"]) for d, f in zip(dirs, files)
                   if "summary.csv" in f]
    if len(summary_csv) == 2:
        pairs.append(("summary.csv", *(_csv_numbers(*side) for side in summary_csv)))
    for label, na, nb in pairs:
        fields = [[f for f, _ in side] for side in (na, nb)]
        if fields[0] != fields[1]:
            if not exact:  # name the first field at which the two lists part
                x, y = next(pair for pair in zip_longest(*fields) if pair[0] != pair[1])
                return 2, [f"logged fields differ between the two directories: {label} "
                           f"has {x or 'no field'} in {a_dir} where {b_dir} has "
                           f"{y or 'no field'}"]
            continue
        for (field, x), (_, y) in zip(na, nb):
            worst[field] = max(worst.get(field, 0.0), _rel_dev(x, y))
    report = [f"runs compared: {len(runs)}"]
    if exact:
        report.append("exact fields DIFFER:")
        report += [f"  {d}" for d in exact]
    else:
        report.append("exact fields identical: " + ", ".join(EXACT_SUMMARY + EXACT_ROW))
    report += _section(".jsonl lines (minus wall_clock_sec)", found[".jsonl"], len(runs),
                       "first at", "byte-identical in every run")
    report += _section(".json summaries (minus config.out_dir)", found[".json"], len(runs),
                       "at", "identical in every run")
    csv_runs = sum(any(f"{run}.csv" in f for f in files) for run in runs)
    if csv_runs:
        report += _section("per-run .csv files (minus wall_clock_sec)", found[".csv"], csv_runs,
                           "first at", f"byte-identical in all {csv_runs} runs")
    else:
        report.append("per-run .csv files: none in either directory")
    if len(summary_csv) == 2:
        report.append(f"summary.csv bytes: {'DIFFER' if found[''] else 'identical'}")
    else:
        report += found[""]  # "summary.csv is in one directory only", or nothing
    shifted = {field: dev for field, dev in worst.items() if dev > 0.0}
    report.append(f"logged numeric fields: {len(worst)}, equal in every run: "
                  f"{len(worst) - len(shifted)}")
    if shifted:
        report.append("max relative deviation of the others:")
        width = max(len(f) for f in shifted)
        report += [f"  {field:<{width}}  {dev:.3g}" for field, dev in sorted(shifted.items())]
    return (1 if exact else 0), report


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
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        print(f"cannot read run outputs: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
