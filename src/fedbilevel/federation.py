"""Client partitioning and the simulated per-round timing model.

The timing model is pure accounting attached to run records. A cost model
holds one array of update costs per client plus one link cost per client;
client sizes are the array lengths. The federated method pays the slowest
client's summed local update costs plus the slowest communication link, the
incremental baseline pays the full sequential sweep.
Wall-clock time is measured separately and never enters acceptance checks.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .problem import consecutive_groups
from .rng import STREAM_PARTITION, make_rng

CONTIGUOUS = "contiguous-balanced"
SHUFFLED = "seeded-shuffle-balanced"
STRATEGIES = (CONTIGUOUS, SHUFFLED)

FISM = "fism"
IRIG = "irig"
METHODS = (FISM, IRIG)


def partition_data(m: int, n_clients: int, strategy: str = CONTIGUOUS,
                   seed: int = 0) -> tuple[tuple[int, ...], ...]:
    """Split the m global indices into n_clients balanced ordered groups,
    one tuple of indices per client.

    Group sizes differ by at most one, larger groups first. The shuffled
    strategy permutes the index pool with the seeded generator before
    splitting; ordering is fixed from then on.
    """
    if n_clients < 1 or n_clients > m:
        raise ValueError(f"need 1 <= n_clients <= m, got n_clients={n_clients}, m={m}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown partition strategy {strategy!r}")
    pool = range(m)
    if strategy == SHUFFLED:
        pool = make_rng(seed, STREAM_PARTITION).permutation(m).tolist()
    base, extra = divmod(m, n_clients)
    return consecutive_groups(pool, [base + 1] * extra + [base] * (n_clients - extra))


@dataclass(frozen=True)
class CostModel:
    """Per-update compute costs and per-client communication costs, in
    abstract time units, each finite and nonnegative: ``per_update[i]`` holds
    one cost per inner function of client i in local order, ``comm[i]`` is
    client i's link cost."""

    per_update: tuple[np.ndarray, ...]
    comm: np.ndarray

    def __post_init__(self):
        per = tuple(np.asarray(c, dtype=float) for c in self.per_update)
        comm = np.asarray(self.comm, dtype=float)
        if any(c.ndim != 1 for c in per) or comm.ndim != 1:
            raise ValueError("costs must be 1-d arrays")
        for kind, c in [("per-update", p) for p in per] + [("communication", comm)]:
            bad = c[~(np.isfinite(c) & (c >= 0))]
            if bad.size:
                raise ValueError(f"{kind} costs must be finite and nonnegative, got {bad[0]}")
        if comm.shape[0] != len(per):
            raise ValueError(f"need one communication cost per client, "
                             f"got {comm.shape[0]} for {len(per)} clients")
        object.__setattr__(self, "per_update", per)
        object.__setattr__(self, "comm", comm)

    @property
    def sizes(self) -> tuple[int, ...]:
        """Number of priced updates per client."""
        return tuple(len(c) for c in self.per_update)


def uniform_costs(sizes: Sequence[int], per_update: float = 1.0,
                  comm: float = 0.0) -> CostModel:
    return CostModel(tuple(np.full(size, float(per_update)) for size in sizes),
                     np.full(len(sizes), float(comm)))


def round_time(costs: CostModel, method: str) -> float:
    """Simulated time of one round under ``costs``.

    Each client's update costs are summed left to right in local order, and
    the baseline adds the client sums left to right in client order; neither
    numpy's pairwise summation nor the compensated builtin ``sum`` of Python
    3.12+ is used, so simulated times do not depend on either.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    sums = [reduce(operator.add, c.tolist(), 0.0) for c in costs.per_update]
    if method == IRIG:
        return float(reduce(operator.add, sums, 0.0))
    return float(max(sums) + max(costs.comm.tolist()))
