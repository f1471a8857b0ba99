"""Bilevel problem structure shared by every solver.

A problem is an inner family of m convex per-sample functions (see
``oracles``), the clients' shares of it as ordered index tuples, an outer
strongly convex selection objective, and a box constraint. The solvers step
through each client's local order (several at once, along ``lanes``); the
metrics read ``inner.values`` on stacked points. Stepsize schedules live
here too. All types are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    dimension: int
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
        if self.constraint.dimension != self.dimension:
            raise ValueError("constraint dimension does not match problem dimension")

    @classmethod
    def from_oracles(cls, dimension: int, clients: Sequence[Sequence[Oracle]],
                     outer: Oracle, constraint: BoxConstraint, mu_H: float,
                     name: str = "") -> "ProblemSpec":
        """A problem over custom ``x -> EvalResult`` closures: client c holds
        the closures ``clients[c]`` in the given order."""
        return cls(dimension=dimension,
                   inner=OracleFamily([fn for group in clients for fn in group]),
                   outer=OracleObjective(outer),
                   clients=contiguous_clients([len(group) for group in clients]),
                   constraint=constraint, mu_H=mu_H, name=name)

    @cached_property
    def lanes(self) -> tuple[tuple[int, ...], tuple[tuple[int, np.ndarray], ...]]:
        """The clients as lanes by descending size (ties by index), and blocks
        (k, rows) of local steps, k = S..1, each row the indices k lanes step on."""
        order = tuple(sorted(range(self.n_clients), key=lambda c: -len(self.clients[c])))
        sizes = [len(self.clients[c]) for c in order] + [0]
        table = np.zeros((sizes[0], len(order)), dtype=np.intp)
        for j, c in enumerate(order):
            table[:sizes[j], j] = self.clients[c]
        return order, tuple((k, table[sizes[k]:sizes[k - 1], :k]) for k in range(len(order), 0, -1))

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

    def inner_objective(self, x: np.ndarray) -> float:
        return float(self.inner.values(np.reshape(x, (1, -1)))[0])

    def outer_objective(self, x: np.ndarray) -> float:
        return float(self.outer.value(x))


@dataclass(frozen=True)
class StepSchedule:
    """Power-law stepsizes gamma1/k^a and regularization weights lambda1/k^b.

    ``feasible`` records whether gamma1 * lambda1 * mu_H <= 2m held at
    construction; infeasible combinations are flagged, never rejected, so
    small unit-test instances can still run arbitrary schedules.
    """

    gamma1: float
    a: float
    lambda1: float
    b: float
    feasible: bool = True

    def at(self, k: int) -> tuple[float, float]:
        """Stepsize and regularization weight for round k >= 1."""
        if k < 1:
            raise ValueError(f"round index must be >= 1, got {k}")
        kf = float(k)
        return self.gamma1 / kf**self.a, self.lambda1 / kf**self.b


def make_schedule(gamma1: float, a: float, lambda1: float, b: float,
                  mu_H: float, m: int) -> StepSchedule:
    """Validated schedule constructor; sets the feasibility flag."""
    if gamma1 <= 0:
        raise ValueError(f"gamma1 must be positive, got {gamma1}")
    if lambda1 <= 0:
        raise ValueError(f"lambda1 must be positive, got {lambda1}")
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative so the sequences are nonincreasing")
    feasible = gamma1 * lambda1 * mu_H <= 2 * m
    return StepSchedule(float(gamma1), float(a), float(lambda1), float(b), feasible)
