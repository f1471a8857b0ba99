"""Ready-made problem builders for the shipped experiment families.

Each builder wraps the instance's arrays in one inner family (no per-sample
objects) and takes the clients' index tuples, as ``partition_data`` gives them.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import LabeledDataset, LocationInstance
from .oracles import BallDistances, L1Quad, LogisticLosses, QuadAnchor
from .problem import BoxConstraint, ProblemSpec, contiguous_clients


def selection_1d_problem(sizes: Sequence[int] = (1,)) -> ProblemSpec:
    """Tiny selection instance with a closed-form solution.

    Inner objective: distance to the interval [0, 1] (a 1-d ball of center
    0.5 and radius 0.5), replicated so that client i holds ``sizes[i]``
    copies; outer objective: 0.5 (y - 2)^2 on the box [-10, 10]. The bilevel
    optimum is the interval endpoint nearest the anchor, y = 1.
    """
    if len(sizes) < 1 or min(sizes) < 1:
        raise ValueError("need at least one client and at least one ball per client")
    m = sum(sizes)
    return ProblemSpec(
        dimension=1,
        inner=BallDistances(np.full((m, 1), 0.5), np.full(m, 0.5)),
        outer=QuadAnchor(np.array([2.0])),
        clients=contiguous_clients(sizes),
        constraint=BoxConstraint.symmetric(1, 10.0),
        mu_H=1.0,
        name="selection-1d",
    )


def location_problem(instance: LocationInstance,
                     clients: Sequence[Sequence[int]]) -> ProblemSpec:
    """Sum-of-ball-distances inner objective with an anchored quadratic
    selector; client c holds the balls ``clients[c]``."""
    return ProblemSpec(
        dimension=instance.centers.shape[1],
        inner=BallDistances(instance.centers, instance.radii),
        outer=QuadAnchor(instance.anchor),
        clients=clients,
        constraint=instance.box,
        mu_H=1.0,
        name="location",
    )


def logistic_problem(ds: LabeledDataset, clients: Sequence[Sequence[int]],
                     half_width: float = 100.0) -> ProblemSpec:
    """Per-sample logistic losses with the sparsity-plus-norm selector on
    the box [-half_width, half_width]^n; client c holds the samples
    ``clients[c]``."""
    n = ds.features.shape[1]
    return ProblemSpec(
        dimension=n,
        inner=LogisticLosses(ds.features, ds.labels),
        outer=L1Quad(),
        clients=clients,
        constraint=BoxConstraint.symmetric(n, half_width),
        mu_H=1.0,
        name=ds.name or "logistic",
    )
