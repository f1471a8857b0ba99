"""Per-round run records and classification accuracy.

Records serialize to a JSON summary plus a JSONL stream of per-round rows
(optionally a CSV of the same rows); the row field names are part of the
documented output schema, see README. A record keeps its rows as one typed
column per field, which the writers read; indexing reads ``RoundRow``s back.
"""
from __future__ import annotations

import csv
import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple, get_type_hints

import numpy as np

from .rng import PRNG_ID

if TYPE_CHECKING:  # pragma: no cover
    from .data import LabeledDataset


class RoundRow(NamedTuple):
    """One round's logged metrics; an immutable tuple whose field order is
    the JSONL key order and the CSV column order."""

    k: int
    inner_value: float
    inner_value_mean: float
    inner_value_avg_iterate: float
    outer_value: float
    step_norm: float
    round_time_units: float
    total_time_units: float
    inner_subgrad_evals: int
    outer_subgrad_evals: int
    wall_clock_sec: float


ROW_FIELDS = RoundRow._fields
_TYPECODES = tuple({int: "q", float: "d"}[hint] for hint in get_type_hints(RoundRow).values())


def _as_rows(columns) -> map:
    # tuple.__new__ makes the same RoundRow at half the cost of RoundRow's
    # own __new__, which is Python code.
    return map(tuple.__new__, repeat(RoundRow), zip(*columns))


class _ColumnRows(Sequence):
    """A run's rows held as one typed column per ``RoundRow`` field, in
    field order: ``'q'`` for an ``int`` field, ``'d'`` for a ``float`` one.
    A row takes 88 bytes, against about 400 as a ``RoundRow`` of boxed
    numbers in a list.

    Read-only to its readers: an index (negative too) gives a ``RoundRow``,
    a slice a list of them, and iteration zips the columns. Each value reads
    back as the exact ``int`` or ``float`` that was stored.
    """

    __slots__ = ("columns",)

    def __init__(self) -> None:
        self.columns = tuple(map(array, _TYPECODES))

    def extend(self, *columns: list) -> None:
        """Append a block of rows given as one list per field, in field
        order (``array.fromlist`` takes a list at twice the speed of
        ``extend``)."""
        for column, values in zip(self.columns, columns, strict=True):
            column.fromlist(values)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(_as_rows(column[index] for column in self.columns))
        return tuple.__new__(RoundRow, [column[index] for column in self.columns])

    def __iter__(self):
        return _as_rows(self.columns)


@dataclass
class RunRecord:
    """Everything a single solver run produces. ``rows`` holds the per-round
    rows as typed columns, filled by ``run_solver`` through ``extend``.
    ``seed`` labels the summary only: the CLI sets it to the run's seed."""

    method: str
    problem_id: str
    gamma1: float
    a: float
    lambda1: float
    b: float
    feasible: bool
    n_clients: int
    n_inner: int
    dimension: int
    rows: _ColumnRows
    final_x: np.ndarray
    final_avg_x: np.ndarray
    final_inner_value: float
    final_outer_value: float
    stop_reason: str
    seed: int = 0
    test_accuracy: float | None = None
    config: dict | None = None

    @property
    def rounds(self) -> int:
        return len(self.rows)

    def summary_dict(self) -> dict:
        column = dict(zip(ROW_FIELDS, self.rows.columns))
        return {
            "method": self.method,
            "problem_id": self.problem_id,
            "schedule": {"gamma1": self.gamma1, "a": self.a,
                         "lambda1": self.lambda1, "b": self.b, "feasible": self.feasible},
            "n_clients": self.n_clients,
            "n_inner": self.n_inner,
            "dimension": self.dimension,
            "seed": self.seed,
            "prng": PRNG_ID,
            "rounds": self.rounds,
            "stop_reason": self.stop_reason,
            "final_inner_value": self.final_inner_value,
            "final_outer_value": self.final_outer_value,
            "total_time_units": column["total_time_units"][-1] if self.rows else 0.0,
            "inner_subgrad_evals": column["inner_subgrad_evals"][-1] if self.rows else 0,
            "outer_subgrad_evals": column["outer_subgrad_evals"][-1] if self.rows else 0,
            "test_accuracy": self.test_accuracy,
            "final_x": [float(v) for v in self.final_x],
            "final_avg_x": [float(v) for v in self.final_avg_x],
            "config": self.config,
        }


def write_run_json(record: RunRecord, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record.summary_dict(), f, indent=2)
        f.write("\n")


# A JSONL line is ``json.dumps(row._asdict())`` byte for byte. The keys never
# change, so they live in one template, whose ``%r`` writes an int or a finite
# float as json does. Rows are zipped from the columns ``_CHUNK`` at a time; a
# chunk with a ``'d'`` column slice whose sum is not finite (a NaN, an infinity
# or an overflow) is written by json.dumps itself. Lines are formatted one at
# a time, so peak memory does not grow with the record.
_LINE = "{" + ", ".join(f"{json.dumps(name)}: %r" for name in ROW_FIELDS) + "}\n"
_CHUNK = 128


def write_rows_jsonl(record: RunRecord, path) -> None:
    columns = record.rows.columns
    with open(path, "w", encoding="utf-8") as f:
        for start in range(0, len(record.rows), _CHUNK):
            parts = [column[start:start + _CHUNK] for column in columns]
            if all(math.isfinite(sum(part)) for part in parts if part.typecode == "d"):
                f.writelines(map(_LINE.__mod__, zip(*parts)))
            else:
                f.writelines(json.dumps(dict(zip(ROW_FIELDS, row))) + "\n"
                             for row in zip(*parts))


def write_rows_csv(record: RunRecord, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(ROW_FIELDS)
        writer.writerows(zip(*record.rows.columns))


def accuracy(x: np.ndarray, ds: "LabeledDataset") -> float:
    """Fraction of samples whose sign(<a, x>) matches the label.

    A zero score predicts +1 (fixed tie rule; matters only on measure-zero
    inputs for real data).
    """
    if len(ds) == 0:
        raise ValueError("accuracy of an empty dataset is undefined")
    if ds.features.shape[1] != x.shape[0]:
        raise ValueError("classifier dimension does not match the dataset")
    pred = np.where(ds.features @ x >= 0.0, 1, -1)
    return float(np.mean(pred == ds.labels))
