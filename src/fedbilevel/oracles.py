"""Inner families, outer objectives and box projection.

The inner objective is a *family* of m convex per-sample functions. A family
answers ``subgrad(i, x)`` (one subgradient of sample i), ``subgrads(idx, X)``
(row c bitwise ``subgrad(idx[c], X[c])``, for a stack of client lanes) and
``values(X)``, the inner totals at every row of a (k, n) stack of points in
one call (all the per-round metrics need), for a stack of any height. The
built-in families hold the problem arrays: :class:`LogisticLosses` (features
and labels) and :class:`BallDistances` (centers and radii). Their ``values``
bound its working memory: it takes the stack in row slices, and the samples
in slices within them, under one fixed byte budget, and gives the bits of a
one-slice call. :class:`OracleFamily` adapts custom ``x -> EvalResult``
closures.

Outer objectives expose ``value(x)``, ``subgrad(x)`` and ``values(X)``, the
values at the rows of a stack, each bitwise equal to ``value`` on that row:
:class:`L1Quad`, :class:`QuadAnchor`, and the :class:`OracleObjective`
adapter.

At nondifferentiable points the minimum-norm subgradient is returned
(sign(0) = 0 for the L1 term, the zero vector inside closed balls), which
keeps norm bounds small and updates stable. Every method is a pure function
of its inputs.
"""
from __future__ import annotations

import math
import operator
from functools import reduce
from typing import TYPE_CHECKING, Callable, NamedTuple, Protocol, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .problem import BoxConstraint


class EvalResult(NamedTuple):
    value: float
    subgrad: np.ndarray


Oracle = Callable[[np.ndarray], EvalResult]


class InnerFamily(Protocol):
    """m per-sample inner functions, indexed 0..m-1."""

    def __len__(self) -> int: ...

    def subgrad(self, i: int, x: np.ndarray) -> np.ndarray:
        """One subgradient of sample i at x."""

    def subgrads(self, idx: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Row c: ``subgrad(idx[c], X[c])``, bitwise. Must not write to X."""

    def values(self, X: np.ndarray) -> np.ndarray:
        """The k inner totals (sums over all m samples) at the rows of X,
        for a stack of any height k; a row's total must not depend on the
        other rows. The built-in families work through X in slices, so
        their working memory does not grow with k."""


class OuterObjective(Protocol):
    def value(self, x: np.ndarray) -> float: ...

    def subgrad(self, x: np.ndarray) -> np.ndarray: ...

    def values(self, X: np.ndarray) -> np.ndarray:
        """``value`` at every row of X, bitwise."""


def project_box(x: np.ndarray, box: "BoxConstraint") -> np.ndarray:
    """Componentwise clamp of ``x`` onto ``[box.lo, box.hi]``; NaN propagates."""
    if x.shape != box.lo.shape:
        raise ValueError(f"point has shape {x.shape}, box has shape {box.lo.shape}")
    return np.minimum(np.maximum(x, box.lo), box.hi)


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


# Inner families. ``subgrads`` takes its row dots with ``np.vecdot``, whose
# rows carry the bits of the 1-d ``np.dot`` that ``subgrad`` uses, so a
# client's iterates do not depend on how many lanes ran beside it; ``values``
# sums in numpy's order and may differ from per-sample sums at ulp level.

# The built-in ``values`` work through a stack in row slices, and through the
# samples in slices within a row slice, so that one call holds about this many
# bytes of temporaries at any stack height.
_VALUES_BYTES = 1 << 20
_SAMPLE_SLICE = 1024


def _slice_shape(k: int, m: int, width: int) -> tuple[int, int]:
    """Rows and samples per slice for a k-row stack over m samples, where a
    (point, sample) pair holds one float64 in the (rows, m) buffer that is
    summed and ``width`` more in a sample slice's temporaries. Both fit in
    ``_VALUES_BYTES`` while m <= _VALUES_BYTES / 8 - 2 * width; past that a
    slice is one row and one sample."""
    floats = _VALUES_BYTES // 8
    samples = max(1, min(m, _SAMPLE_SLICE, (floats - m) // (2 * width)))
    return max(1, min(k, floats // (m + width * samples))), samples


def _sliced_sums(X: np.ndarray, m: int, width: int,
                 terms: Callable[[np.ndarray, np.ndarray, int], None]) -> np.ndarray:
    """The k totals of the per-sample terms at the rows of X, one row slice at
    a time: ``terms(rows, z, samples)`` fills the C-order (rows, m) buffer z
    with the rows' terms, ``samples`` samples at a time. Each row is summed
    pairwise over its own contiguous m terms, so a total has the bits of a
    one-slice call and does not depend on the other rows."""
    rows, samples = _slice_shape(len(X), m, width)
    buf = np.empty((min(rows, len(X)), m))
    totals = np.empty(len(X))
    for r in range(0, len(X), rows):
        part = X[r:r + rows]
        z = buf[:len(part)]
        terms(part, z, samples)
        z.sum(axis=1, out=totals[r:r + len(part)])
    return totals


class LogisticLosses:
    """Per-sample logistic losses log(1 + exp(-b_i <a_i, x>)) over the rows
    a_i of ``features`` with labels b_i in {-1, +1}. Holds the arrays
    without copying float64 features."""

    def __init__(self, features: np.ndarray, labels: Sequence[float] | np.ndarray):
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if features.ndim != 2 or labels.shape != features.shape[:1]:
            raise ValueError("need an (m, n) feature array and m labels")
        if not np.all((labels == 1.0) | (labels == -1.0)):
            raise ValueError("labels must be -1 or +1")
        self.features = features
        self.labels = labels
        self._signs = labels.tolist()  # Python floats: cheaper per-step lookups

    def __len__(self) -> int:
        return len(self._signs)

    def subgrad(self, i: int, x: np.ndarray) -> np.ndarray:
        a = self.features[i]
        bf = self._signs[i]
        z = -bf * float(np.dot(a, x))
        return (-bf * _sigmoid(z)) * a

    def subgrads(self, idx: np.ndarray, X: np.ndarray) -> np.ndarray:
        A = self.features.take(idx, axis=0)
        coef = [-b * _sigmoid(-b * z)
                for b, z in zip(self.labels.take(idx).tolist(), np.vecdot(A, X).tolist())]
        return np.multiply(A, np.array(coef)[:, None], out=A)

    def values(self, X: np.ndarray) -> np.ndarray:
        # width 2: a sample slice's margins beside the previous slice's
        return _sliced_sums(X, len(self), 2, self._terms)

    def _terms(self, X: np.ndarray, z: np.ndarray, samples: int) -> None:
        # One dot per (sample, point) margin, sample-major so a slice of the
        # features is read once per row slice: a margin does not depend on
        # the other rows of X, as it can with X @ features.T, whose BLAS
        # kernels vary with the stack height.
        for j in range(0, z.shape[1], samples):
            margins = np.vecdot(self.features[j:j + samples, None, :], X)
            np.multiply(margins, -self.labels[j:j + samples, None], out=margins)
            z[:, j:j + samples] = margins.T
        np.logaddexp(0.0, z, out=z)


class BallDistances:
    """Per-sample Euclidean distances to closed balls with the rows of
    ``centers`` as centers and positive ``radii``."""

    def __init__(self, centers: np.ndarray, radii: Sequence[float] | np.ndarray):
        centers = np.asarray(centers, dtype=float)
        radii = np.asarray(radii, dtype=float)
        if centers.ndim != 2 or radii.shape != centers.shape[:1]:
            raise ValueError("need an (m, n) center array and m radii")
        if not np.all(radii > 0):
            raise ValueError("ball radii must be positive")
        self.centers = centers
        self.radii = radii
        self._radii = radii.tolist()  # Python floats: cheaper per-step lookups

    def __len__(self) -> int:
        return len(self._radii)

    def subgrad(self, i: int, x: np.ndarray) -> np.ndarray:
        d = x - self.centers[i]
        # sqrt(d . d) is what np.linalg.norm computes for a 1-d float array
        dist = math.sqrt(float(np.dot(d, d)))
        if dist > self._radii[i]:
            return d / dist
        return np.zeros(d.shape)  # same bytes as zeros_like(d), a fifth of the cost

    def subgrads(self, idx: np.ndarray, X: np.ndarray) -> np.ndarray:
        D = X - self.centers.take(idx, axis=0)
        dist = np.sqrt(np.vecdot(D, D))[:, None]
        return np.divide(D, dist, out=np.zeros(D.shape),
                         where=dist > self.radii.take(idx)[:, None])

    def values(self, X: np.ndarray) -> np.ndarray:
        return _sliced_sums(X, len(self), X.shape[-1], self._terms)

    def _terms(self, X: np.ndarray, z: np.ndarray, samples: int) -> None:
        for j in range(0, z.shape[1], samples):
            d = X[:, None, :] - self.centers[j:j + samples]
            np.einsum("kmn,kmn->km", d, d, out=z[:, j:j + samples])
            del d  # or the next slice's differences are made beside these
        np.sqrt(z, out=z)
        np.subtract(z, self.radii, out=z)
        np.maximum(z, 0.0, out=z)


def _shape_checked(g, x: np.ndarray):
    # A closure's subgradient enters the solvers here: one of another shape
    # would broadcast against the iterate, or fail only on some paths.
    if np.shape(g) != x.shape:
        raise ValueError(f"subgradient has shape {np.shape(g)}, point has shape {x.shape}")
    return g


class OracleFamily:
    """Adapter for custom inner functions given as ``x -> EvalResult``
    closures. ``values`` sums the closures' values left to right. A
    subgradient must have the shape of its point, or ``ValueError`` is
    raised."""

    def __init__(self, oracles: Sequence[Oracle]):
        self.oracles = tuple(oracles)

    def __len__(self) -> int:
        return len(self.oracles)

    def subgrad(self, i: int, x: np.ndarray) -> np.ndarray:
        return _shape_checked(self.oracles[i](x).subgrad, x)

    def subgrads(self, idx: np.ndarray, X: np.ndarray) -> np.ndarray:
        return _shape_checked(
            np.array([self.oracles[i](x).subgrad for i, x in zip(idx.tolist(), X)]), X)

    def values(self, X: np.ndarray) -> np.ndarray:
        # reduce, not builtin sum: sum is compensated from Python 3.12 on
        return np.array([float(reduce(operator.add, (fn(x).value for fn in self.oracles), 0.0))
                         for x in X])


# Outer objectives.

class L1Quad:
    """Sparsity-plus-norm selection objective: sum |x_d| + 0.5 sum x_d^2."""

    def value(self, x: np.ndarray) -> float:
        return float(np.sum(np.abs(x)) + 0.5 * np.dot(x, x))

    def values(self, X: np.ndarray) -> np.ndarray:
        # vecdot rows carry np.dot's bits (a row sum carries np.sum's)
        return np.abs(X).sum(axis=1) + 0.5 * np.vecdot(X, X)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        return np.sign(x) + x


class QuadAnchor:
    """Anchored squared-distance selection objective: 0.5 ||x - anchor||^2."""

    def __init__(self, anchor: Sequence[float] | np.ndarray):
        self.anchor = np.asarray(anchor, dtype=float)

    def value(self, x: np.ndarray) -> float:
        d = self.subgrad(x)
        return 0.5 * float(np.dot(d, d))

    def values(self, X: np.ndarray) -> np.ndarray:
        if X.shape[1:] != self.anchor.shape:
            raise ValueError(f"points have shape {X.shape[1:]}, anchor has shape "
                             f"{self.anchor.shape}")
        D = X - self.anchor
        return 0.5 * np.vecdot(D, D)

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self.anchor.shape:
            raise ValueError(f"point has shape {x.shape}, anchor has shape "
                             f"{self.anchor.shape}")
        return x - self.anchor


class OracleObjective:
    """Adapter for a custom outer objective given as an ``x -> EvalResult``
    closure. A subgradient must have the shape of its point, or
    ``ValueError`` is raised."""

    def __init__(self, fn: Oracle):
        self.fn = fn

    def value(self, x: np.ndarray) -> float:
        return float(self.fn(x).value)

    def values(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.value(x) for x in X])

    def subgrad(self, x: np.ndarray) -> np.ndarray:
        return _shape_checked(self.fn(x).subgrad, x)
