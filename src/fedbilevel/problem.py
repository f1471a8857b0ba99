"""Bilevel problem structure shared by every solver.

A problem is an inner family of m convex per-sample functions (see
``oracles``), the clients' shares of it as ordered index tuples, an outer
strongly convex selection objective, and a box constraint, whose length is
the dimension. The solvers lay the clients out as lanes themselves; the
metrics read ``inner.values`` and ``outer.values`` on stacked points, the
only way either objective gives a value. Stepsize schedules live here too.
All types are immutable after construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .oracles import InnerFamily, Oracle, OracleFamily, OracleObjective, OuterObjective


@dataclass(frozen=True)
class BoxConstraint:
    """Per-coordinate bounds [lo, hi] defining the feasible box."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("box lower bounds must not exceed upper bounds")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]

    @classmethod
    def symmetric(cls, dimension: int, half_width: float) -> "BoxConstraint":
        """The box [-half_width, half_width]^dimension."""
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        hw = float(half_width)
        return cls(np.full(dimension, -hw), np.full(dimension, hw))

    def contains(self, x: np.ndarray) -> bool:
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))


def consecutive_groups(pool: Sequence[int], sizes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Group i holds the next ``sizes[i]`` entries of ``pool``, in order."""
    bounds = list(accumulate(sizes, initial=0))
    return tuple(tuple(pool[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def contiguous_clients(sizes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Index tuples giving client i the next ``sizes[i]`` indices in order."""
    return consecutive_groups(range(sum(sizes)), sizes)


@dataclass(frozen=True)
class ProblemSpec:
    """One bilevel instance: an inner family, its split across clients,
    outer selector, box constraint, and the outer strong-convexity modulus
    (known analytically for the shipped objectives, never estimated).

    ``clients[c]`` lists the family indices client c holds, in local order;
    together the clients hold every index exactly once.
    """

    inner: InnerFamily
    outer: OuterObjective
    clients: tuple[tuple[int, ...], ...]
    constraint: BoxConstraint
    mu_H: float
    name: str = ""

    def __post_init__(self):
        clients = tuple(tuple(group) for group in self.clients)
        object.__setattr__(self, "clients", clients)
        if len(clients) < 1:
            raise ValueError("need at least one client")
        if any(len(group) == 0 for group in clients):
            raise ValueError("every client needs at least one inner function")
        if sorted(i for group in clients for i in group) != list(range(len(self.inner))):
            raise ValueError("clients must hold every inner index exactly once")
        if self.mu_H <= 0:
            raise ValueError("outer strong-convexity modulus must be positive")

    @classmethod
    def from_oracles(cls, clients: Sequence[Sequence[Oracle]], outer: Oracle,
                     constraint: BoxConstraint, mu_H: float, name: str = "") -> "ProblemSpec":
        """A problem over custom ``x -> EvalResult`` closures: client c holds
        the closures ``clients[c]`` in the given order."""
        return cls(inner=OracleFamily([fn for group in clients for fn in group]),
                   outer=OracleObjective(outer),
                   clients=contiguous_clients([len(group) for group in clients]),
                   constraint=constraint, mu_H=mu_H, name=name)

    @property
    def dimension(self) -> int:
        return self.constraint.dimension

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    @property
    def n_inner(self) -> int:
        """Total number of inner functions across all clients."""
        return len(self.inner)

    @property
    def client_sizes(self) -> tuple[int, ...]:
        return tuple(len(group) for group in self.clients)


@dataclass(frozen=True)
class StepSchedule:
    """Power-law stepsizes gamma1/k^a and regularization weights lambda1/k^b.

    The four parameters are stored as floats: gamma1 and lambda1 positive,
    a and b nonnegative, all four finite, or ``ValueError`` is raised.
    ``run_solver`` records whether gamma1 * lambda1 * mu_H <= 2m for each
    run, as that depends on the problem; an infeasible schedule still runs.
    """

    gamma1: float
    a: float
    lambda1: float
    b: float

    def __post_init__(self):
        # Every range check below is False for NaN, so finiteness comes first.
        for name in ("gamma1", "a", "lambda1", "b"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.gamma1 <= 0:
            raise ValueError(f"gamma1 must be positive, got {self.gamma1}")
        if self.lambda1 <= 0:
            raise ValueError(f"lambda1 must be positive, got {self.lambda1}")
        if self.a < 0 or self.b < 0:
            raise ValueError("exponents must be nonnegative so the sequences are nonincreasing")

    def at(self, k: int) -> tuple[float, float]:
        """Stepsize and regularization weight for round k >= 1."""
        if k < 1:
            raise ValueError(f"round index must be >= 1, got {k}")
        kf = float(k)
        return _decay(self.gamma1, kf, self.a), _decay(self.lambda1, kf, self.b)


def _decay(c: float, k: float, p: float) -> float:
    """c / k**p, also where k**p overflows a float: then exp(log c - p log k)."""
    try:
        return c / k**p
    except OverflowError:  # exp underflows to 0.0 where ** would raise
        return math.exp(math.log(c) - p * math.log(k))
