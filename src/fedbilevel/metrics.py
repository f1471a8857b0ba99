"""Per-round run records and classification accuracy.

Records serialize to a JSON summary plus a JSONL stream of per-round rows
(optionally a CSV of the same rows); the row field names are part of the
documented output schema, see README.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

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


@dataclass
class RunRecord:
    """Everything a single solver run produces."""

    method: str
    problem_id: str
    gamma1: float
    a: float
    lambda1: float
    b: float
    n_clients: int
    n_inner: int
    dimension: int
    seed: int
    rows: list[RoundRow]
    final_x: np.ndarray
    final_avg_x: np.ndarray
    final_inner_value: float
    final_outer_value: float
    stop_reason: str
    prng: str = PRNG_ID
    test_accuracy: float | None = None
    config: dict | None = None

    @property
    def rounds(self) -> int:
        return len(self.rows)

    def summary_dict(self) -> dict:
        last = self.rows[-1] if self.rows else None
        return {
            "method": self.method,
            "problem_id": self.problem_id,
            "schedule": {"gamma1": self.gamma1, "a": self.a,
                         "lambda1": self.lambda1, "b": self.b},
            "n_clients": self.n_clients,
            "n_inner": self.n_inner,
            "dimension": self.dimension,
            "seed": self.seed,
            "prng": self.prng,
            "rounds": self.rounds,
            "stop_reason": self.stop_reason,
            "final_inner_value": self.final_inner_value,
            "final_outer_value": self.final_outer_value,
            "total_time_units": last.total_time_units if last else 0.0,
            "inner_subgrad_evals": last.inner_subgrad_evals if last else 0,
            "outer_subgrad_evals": last.outer_subgrad_evals if last else 0,
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
# change, so they live in one template, whose ``%r`` writes an exact int or a
# finite exact float as json does (int.__repr__, float.__repr__). Rows go
# ``_CHUNK`` at a time: a chunk holding anything else (NaN, inf, bool, a numpy
# scalar) is written by json.dumps itself. Lines are formatted one at a time,
# so peak memory does not grow with the record.
_LINE = "{" + ", ".join(f"{json.dumps(name)}: %r" for name in ROW_FIELDS) + "}\n"
_CHUNK = 128


def _plain(values: list) -> bool:
    """True when every value is an exact int or a finite exact float."""
    if not {*map(type, values)} <= {int, float}:
        return False
    try:
        return math.isfinite(sum(values))  # a NaN or an infinity propagates
    except OverflowError:  # an int beyond the float range
        return False


def write_rows_jsonl(record: RunRecord, path) -> None:
    rows = record.rows
    with open(path, "w", encoding="utf-8") as f:
        for start in range(0, len(rows), _CHUNK):
            chunk = rows[start:start + _CHUNK]
            if _plain(list(chain.from_iterable(chunk))):
                f.writelines(map(_LINE.__mod__, chunk))
            else:
                f.writelines(json.dumps(row._asdict()) + "\n" for row in chunk)


def write_rows_csv(record: RunRecord, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(ROW_FIELDS)
        writer.writerows(record.rows)


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
