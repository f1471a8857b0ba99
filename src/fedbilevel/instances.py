"""Ready-made problem builders for the shipped experiment families."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import LabeledDataset, LocationInstance
from .federation import ClientPartition
from .oracles import ball_oracle, l1_quad_oracle, logistic_oracle, quad_anchor_oracle
from .problem import BoxConstraint, ProblemSpec


def selection_1d_problem(sizes: Sequence[int] = (1,)) -> ProblemSpec:
    """Tiny selection instance with a closed-form solution.

    Inner objective: distance to the interval [0, 1] (a 1-d ball of center
    0.5 and radius 0.5), replicated so that client i holds ``sizes[i]``
    copies; outer objective: 0.5 (y - 2)^2 on the box [-10, 10]. The bilevel
    optimum is the interval endpoint nearest the anchor, y = 1.
    """
    if len(sizes) < 1 or min(sizes) < 1:
        raise ValueError("need at least one client and at least one ball per client")
    ball = ball_oracle(np.array([0.5]), 0.5)
    return ProblemSpec(
        dimension=1,
        clients=tuple((ball,) * size for size in sizes),
        outer=quad_anchor_oracle(np.array([2.0])),
        constraint=BoxConstraint.symmetric(1, 10.0),
        mu_H=1.0,
        name="selection-1d",
    )


def _check_partition(partition: ClientPartition, pool_size: int) -> None:
    used = [g for group in partition.assignments for g in group]
    if used and (min(used) < 0 or max(used) >= pool_size):
        raise ValueError("partition indexes outside the data pool")


def location_problem(instance: LocationInstance, partition: ClientPartition) -> ProblemSpec:
    """Sum-of-ball-distances inner objective with an anchored quadratic
    selector, grouped by the given partition."""
    _check_partition(partition, instance.centers.shape[0])
    clients = tuple(
        tuple(ball_oracle(instance.centers[g], float(instance.radii[g])) for g in group)
        for group in partition.assignments
    )
    return ProblemSpec(
        dimension=instance.centers.shape[1],
        clients=clients,
        outer=quad_anchor_oracle(instance.anchor),
        constraint=instance.box,
        mu_H=1.0,
        name="location",
    )


def logistic_problem(ds: LabeledDataset, partition: ClientPartition,
                     half_width: float = 100.0) -> ProblemSpec:
    """Per-sample logistic losses with the sparsity-plus-norm selector on
    the box [-half_width, half_width]^n."""
    _check_partition(partition, len(ds))
    clients = tuple(
        tuple(logistic_oracle(ds.features[g], int(ds.labels[g])) for g in group)
        for group in partition.assignments
    )
    n = ds.features.shape[1]
    return ProblemSpec(
        dimension=n,
        clients=clients,
        outer=l1_quad_oracle(),
        constraint=BoxConstraint.symmetric(n, half_width),
        mu_H=1.0,
        name=ds.name or "logistic",
    )
