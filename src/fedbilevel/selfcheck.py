"""Seeded self-checks of the objects the solvers call.

Four probes are checked, each a ``(values, subgrad, smooth)`` case: the
inner families through one-row ``LogisticLosses`` and ``BallDistances``
families (``values`` against ``subgrad(0, x)``) and the outer objectives
``L1Quad`` and ``QuadAnchor``. A probe's one-point value is
``values(x[None])[0]``. Each is checked for finite-difference agreement at
smooth points and the subgradient inequality on random pairs, and its
``values`` on a stack must give every row the bits a one-row call gives,
which the block-wise run metrics rely on. Every family's ``subgrads`` must
give each row the bits of ``subgrad`` (``np.vecdot`` against ``np.dot``
rows), which the client lanes of a round rely on. Projection is checked for
idempotence, nonexpansiveness, identity on interior points and feasibility.
Used by both the test suite (at full sample counts) and the CLI ``selftest``
subcommand (at lighter counts).
"""
from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .oracles import (BallDistances, EvalResult, L1Quad, LogisticLosses, OracleFamily,
                      QuadAnchor, project_box)
from .problem import BoxConstraint
from .rng import STREAM_CHECKS, make_rng

_DIM = 7
_STACK = 5


# A case is (values, subgrad, smooth): a probe's stacked values and one-point
# subgradient, and a predicate that guards the finite-difference stencil
# away from kinks. A family is probed as its one sample.
_Case = tuple[Callable, Callable, Callable]


def _logistic_case(rng) -> _Case:
    a = rng.standard_normal(_DIM)
    b = 1.0 if rng.random() < 0.5 else -1.0
    family = LogisticLosses(a[None, :], [b])
    return family.values, partial(family.subgrad, 0), (lambda x: True)


def _ball_case(rng) -> _Case:
    c = rng.uniform(-2.0, 2.0, _DIM)
    r = float(rng.uniform(0.5, 1.5))

    def smooth(x, margin=1e-3):
        dist = float(np.linalg.norm(x - c))
        return dist > margin and abs(dist - r) > margin

    family = BallDistances(c[None, :], [r])
    return family.values, partial(family.subgrad, 0), smooth


def _l1_quad_case(rng) -> _Case:
    outer = L1Quad()
    return outer.values, outer.subgrad, (lambda x: float(np.min(np.abs(x))) > 1e-3)


def _quad_anchor_case(rng) -> _Case:
    outer = QuadAnchor(rng.uniform(-2.0, 2.0, _DIM))
    return outer.values, outer.subgrad, (lambda x: True)


_CASES: dict[str, Callable] = {
    "logistic": _logistic_case,
    "ball-distance": _ball_case,
    "l1-quad": _l1_quad_case,
    "quad-anchor": _quad_anchor_case,
}


def _count(draws: int, seed: int, failures: Callable) -> dict[str, int]:
    """Per case, the summed ``failures(case, rng)`` over ``draws`` draws from
    a fresh checks stream; each draw takes the case, then its own points."""
    out: dict[str, int] = {}
    for name, case in _CASES.items():
        rng = make_rng(seed, STREAM_CHECKS)
        out[name] = sum(int(failures(case(rng), rng)) for _ in range(draws))
    return out


def finite_difference_failures(points: int = 500, seed: int = 2024, step: float = 1e-6,
                               tol: float = 1e-5) -> dict[str, int]:
    """Count per-case coordinates where central differences disagree with
    the reported subgradient beyond tol * (1 + |g|), at smooth points."""
    def failures(case: _Case, rng) -> int:
        values, subgrad, smooth = case
        x = rng.uniform(-4.0, 4.0, _DIM)
        while not smooth(x):
            x = rng.uniform(-4.0, 4.0, _DIM)
        g = subgrad(x)
        count = 0
        for d in range(_DIM):
            e = np.zeros(_DIM)
            e[d] = step
            fd = (values((x + e)[None])[0] - values((x - e)[None])[0]) / (2.0 * step)
            if abs(fd - g[d]) > tol * (1.0 + abs(g[d])):
                count += 1
        return count
    return _count(points, seed, failures)


def subgradient_inequality_failures(pairs: int = 100, seed: int = 2024,
                                    slack: float = 1e-9) -> dict[str, int]:
    """Count per-case pairs violating f(y) >= f(x) + <g(x), y - x> - slack."""
    def fails(case: _Case, rng) -> bool:
        values, subgrad, _ = case
        x = rng.uniform(-4.0, 4.0, _DIM)
        y = rng.uniform(-4.0, 4.0, _DIM)
        return values(y[None])[0] < values(x[None])[0] + float(np.dot(subgrad(x), y - x)) - slack
    return _count(pairs, seed, fails)


def stacked_value_failures(stacks: int = 100, seed: int = 2024) -> dict[str, int]:
    """Count per-case stacks of points whose ``values`` differ in any bit
    from the one-row call on some row."""
    def fails(case: _Case, rng) -> bool:
        values = case[0]
        points = rng.uniform(-4.0, 4.0, (_STACK, _DIM))
        single = np.concatenate([values(x[None]) for x in points])
        return values(points).tobytes() != single.tobytes()
    return _count(stacks, seed, fails)


def lane_subgrad_failures(stacks: int = 100, seed: int = 2024) -> dict[str, int]:
    """Count per-family stacks (dimension 1 to 784, one lane at its ball's
    center) where row c of ``subgrads(idx, X)`` is not ``subgrad(idx[c], X[c])``."""
    rng = make_rng(seed, STREAM_CHECKS)
    out = {"logistic": 0, "ball-distance": 0, "closures": 0}
    for _ in range(stacks):
        n = int(rng.choice((1, 2, 3, 10, 20, 100, 784)))
        rows = rng.uniform(-2.0, 2.0, (_STACK, n))
        balls = BallDistances(rows, rng.uniform(0.5, 1.5, _STACK))
        closures = [lambda x, i=i: EvalResult(0.0, balls.subgrad(i, x)) for i in range(_STACK)]
        idx, X = rng.permutation(_STACK), rng.uniform(-4.0, 4.0, (_STACK, n))
        X[0] = rows[idx[0]]
        for name, family in (("logistic", LogisticLosses(rows, rng.choice([-1.0, 1.0], _STACK))),
                             ("ball-distance", balls), ("closures", OracleFamily(closures))):
            single = np.array([family.subgrad(i, x) for i, x in zip(idx.tolist(), X)])
            out[name] += family.subgrads(idx, X).tobytes() != single.tobytes()
    return out


def projection_failures(pairs: int = 100, seed: int = 2024) -> dict[str, int]:
    """Count failures of projection idempotence (exact), nonexpansiveness
    (1e-12 slack), identity on interior points (exact), and feasibility
    (a pair fails unless both projected points lie in the box)."""
    rng = make_rng(seed, STREAM_CHECKS)
    out = {"idempotence": 0, "nonexpansiveness": 0, "interior-identity": 0, "feasibility": 0}
    for _ in range(pairs):
        lo = rng.uniform(-3.0, -0.5, _DIM)
        hi = rng.uniform(0.5, 3.0, _DIM)
        box = BoxConstraint(lo, hi)
        x = rng.uniform(-5.0, 5.0, _DIM)
        y = rng.uniform(-5.0, 5.0, _DIM)
        px = project_box(x, box)
        py = project_box(y, box)
        if not np.array_equal(project_box(px, box), px):
            out["idempotence"] += 1
        if np.linalg.norm(px - py) > np.linalg.norm(x - y) + 1e-12:
            out["nonexpansiveness"] += 1
        mid = (box.lo + box.hi) / 2.0
        if not np.array_equal(project_box(mid, box), mid):
            out["interior-identity"] += 1
        if not (box.contains(px) and box.contains(py)):
            out["feasibility"] += 1
    return out


def run_selftest(points: int = 100, pairs: int = 100, seed: int = 2024) -> list[tuple[str, bool, str]]:
    """All checks as (name, passed, detail) tuples."""
    checks = (
        ("finite-difference", finite_difference_failures(points=points, seed=seed), "coordinates"),
        ("subgradient-inequality", subgradient_inequality_failures(pairs=pairs, seed=seed), "pairs"),
        ("stacked-values", stacked_value_failures(stacks=pairs, seed=seed), "stacks"),
        ("lane-subgrads", lane_subgrad_failures(stacks=pairs, seed=seed), "stacks"),
        ("projection", projection_failures(pairs=pairs, seed=seed), "pairs"),
    )
    return [(f"{check} {name}", fails == 0, f"{fails} failing {unit}")
            for check, counts, unit in checks for name, fails in counts.items()]
