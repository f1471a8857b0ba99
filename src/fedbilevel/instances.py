"""Ready-made problem builders for the shipped experiment families.

Each builder wraps its data's arrays in one inner family (no per-sample
objects) and takes the clients' index tuples, as ``partition_data`` gives them.
``location_problem`` draws its own data from the seed it is given.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .data import LabeledDataset
from .oracles import BallDistances, L1Quad, LogisticLosses, QuadAnchor
from .problem import BoxConstraint, ProblemSpec, contiguous_clients
from .rng import STREAM_DATA, make_rng, open_uniform


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
        inner=BallDistances(np.full((m, 1), 0.5), np.full(m, 0.5)),
        outer=QuadAnchor(np.array([2.0])),
        clients=contiguous_clients(sizes),
        constraint=BoxConstraint.symmetric(1, 10.0),
        mu_H=1.0,
        name="selection-1d",
    )


def location_problem(n: int, m: int, seed: int,
                     clients: Sequence[Sequence[int]]) -> ProblemSpec:
    """Seeded location instance on the box [-10, 10]^n: m ball centers uniform
    in (-10, 10)^n, their radii in (0, 1), then an anchor in (-10, 10)^n, drawn
    in that order. Sum-of-ball-distances inner objective with an anchored
    quadratic selector; client c holds the balls ``clients[c]``."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    rng = make_rng(seed, STREAM_DATA)
    centers = open_uniform(rng, -10.0, 10.0, (m, n))
    radii = open_uniform(rng, 0.0, 1.0, m)
    anchor = open_uniform(rng, -10.0, 10.0, n)
    return ProblemSpec(
        inner=BallDistances(centers, radii),
        outer=QuadAnchor(anchor),
        clients=clients,
        constraint=BoxConstraint.symmetric(n, 10.0),
        mu_H=1.0,
        name="location",
    )


def logistic_problem(ds: LabeledDataset, clients: Sequence[Sequence[int]]) -> ProblemSpec:
    """Per-sample logistic losses with the sparsity-plus-norm selector on
    the box [-100, 100]^n; client c holds the samples ``clients[c]``."""
    return ProblemSpec(
        inner=LogisticLosses(ds.features, ds.labels),
        outer=L1Quad(),
        clients=clients,
        constraint=BoxConstraint.symmetric(ds.features.shape[1], 100.0),
        mu_H=1.0,
        name=ds.name or "logistic",
    )
