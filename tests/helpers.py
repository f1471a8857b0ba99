"""Independent test oracles: closed forms, brute-force grid searches,
per-sample reference oracles, and the test-only tools built on them.

The closed forms, grid searches, per-sample oracles and the one-round
stopping test are written directly from their definitions (no calls into the
package's oracle or solver code) so they can serve as an independent check
of the library path. The rest reach into the package only through these
calls:

- ``chained_client_passes`` builds a federated round from the scalar client
  pass, one client after another, to check the lane path against it: it
  calls ``client_local_pass``, ``StepSchedule.at`` and the problem's
  ``outer.subgrad``.
- ``reference_solve`` and ``estimate_bounds`` read a ``ProblemSpec`` through
  ``inner.subgrad`` and ``outer.subgrad`` (``estimate_bounds`` also
  ``outer.value``) and project with ``project_box``. ``reference_solve``
  draws its start with ``make_rng(seed, STREAM_INIT)`` and ``open_uniform``,
  as the CLI does; ``estimate_bounds`` draws from ``make_rng(seed,
  STREAM_BOUNDS)``.
- ``rate_diagnostic`` reads only the rows of a ``RunRecord``.
- ``record_of_rows`` builds a ``RunRecord`` by hand: it fills a
  ``metrics._ColumnRows`` with ``extend``, the one way rows enter a record.
- ``write_idx`` writes the IDX layout that ``read_idx`` reads, from the
  format's own constants.
"""
from __future__ import annotations

import math
import struct
from itertools import chain

import numpy as np

from fedbilevel.metrics import ROW_FIELDS, RunRecord, _ColumnRows
from fedbilevel.oracles import EvalResult, project_box
from fedbilevel.rng import STREAM_BOUNDS, STREAM_DATA, STREAM_INIT, make_rng, open_uniform

# Closed-form solution of the 1-d selection instance: the inner solution set
# is the interval [0, 1]; the anchored outer objective 0.5 (y - 2)^2 picks
# the endpoint nearest 2.
SELECTION_1D_OPTIMUM = 1.0


def selection_inner_1d(y):
    """dist(y, [0, 1]) elementwise."""
    return np.maximum(np.abs(np.asarray(y) - 0.5) - 0.5, 0.0)


def selection_outer_1d(y):
    return 0.5 * (np.asarray(y) - 2.0) ** 2


def grid_min_selection_composite(lam: float, lo: float = -10.0, hi: float = 10.0,
                                 resolution: float = 1e-4) -> float:
    """Brute-force minimizer of inner + lam * outer on a uniform 1-d grid."""
    ys = np.arange(lo, hi + resolution / 2, resolution)
    values = selection_inner_1d(ys) + lam * selection_outer_1d(ys)
    return float(ys[int(np.argmin(values))])


def grid_min_selection_inner(lo: float = -10.0, hi: float = 10.0,
                             resolution: float = 1e-4) -> float:
    """Brute-force minimum value of the 1-d inner objective."""
    ys = np.arange(lo, hi + resolution / 2, resolution)
    return float(np.min(selection_inner_1d(ys)))


def left_to_right_sum(values) -> float:
    """((v0 + v1) + v2) + ...: builtin sum is compensated from Python 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def dot_norm(v: np.ndarray) -> float:
    """Bitwise what np.linalg.norm computes for a 1-d float array. Like it,
    copy a strided view first: a strided dot sums in another order."""
    v = np.ascontiguousarray(v)
    return math.sqrt(float(np.dot(v, v)))


def stopping_criterion(x_prev: np.ndarray, x_next: np.ndarray, f_prev: float, f_next: float,
                       h_prev: float, h_next: float, tol: float) -> bool:
    """The composite relative-change test of one round, denominators
    |previous| + 1: fires when each of ||dx|| / (||x_prev|| + 1), |dh| /
    (|h_prev| + 1) and |df| / (|f_prev| + 1) is <= tol, so a NaN ratio never
    fires. The reference the solver's row-wise test is checked against."""
    rx = dot_norm(x_next - x_prev) / (dot_norm(x_prev) + 1.0)
    rh = abs(h_next - h_prev) / (abs(h_prev) + 1.0)
    rf = abs(f_next - f_prev) / (abs(f_prev) + 1.0)
    return rx <= tol and rh <= tol and rf <= tol


def balls_inner(x, centers, radii) -> float:
    """Sum over the balls of the distance from x to each, left to right."""
    total = 0.0
    for c, r in zip(centers, radii):
        total += max(float(np.sqrt(np.sum((np.asarray(x) - c) ** 2))) - r, 0.0)
    return total


def _balls_inner_2d(xs, ys, centers, radii):
    total = np.zeros_like(xs)
    for c, r in zip(centers, radii):
        total += np.maximum(np.hypot(xs - c[0], ys - c[1]) - r, 0.0)
    return total


def grid_bilevel_2d(centers, radii, anchor, lo: float = -10.0, hi: float = 10.0,
                    coarse: float = 1e-2, fine: float = 1e-3) -> np.ndarray:
    """Two-stage grid search for the 2-d bilevel optimum.

    Stage 1 scans the whole box at the coarse resolution and brackets the
    inner-optimal region; stage 2 rescans that bracket (padded) at the fine
    resolution and returns the outer-objective argmin over the near-optimal
    set. Tolerances follow the inner objective's Lipschitz constant (one per
    ball) times the grid diagonal.
    """
    centers = [np.asarray(c, dtype=float) for c in centers]
    lip = len(centers)

    def scan(x_lo, x_hi, y_lo, y_hi, res):
        gx = np.arange(x_lo, x_hi + res / 2, res)
        gy = np.arange(y_lo, y_hi + res / 2, res)
        xs, ys = np.meshgrid(gx, gy, indexing="ij")
        inner = _balls_inner_2d(xs, ys, centers, radii)
        outer = 0.5 * ((xs - anchor[0]) ** 2 + (ys - anchor[1]) ** 2)
        return xs, ys, inner, outer

    xs, ys, inner, outer = scan(lo, hi, lo, hi, coarse)
    f_tol = 2.0 * lip * coarse
    feasible = inner <= inner.min() + f_tol
    pad = 5 * coarse
    x_lo, x_hi = xs[feasible].min() - pad, xs[feasible].max() + pad
    y_lo, y_hi = ys[feasible].min() - pad, ys[feasible].max() + pad

    xs, ys, inner, outer = scan(max(lo, x_lo), min(hi, x_hi),
                                max(lo, y_lo), min(hi, y_hi), fine)
    f_tol = 2.0 * lip * fine
    feasible = inner <= inner.min() + f_tol
    masked = np.where(feasible, outer, np.inf)
    idx = np.unravel_index(int(np.argmin(masked)), masked.shape)
    return np.array([xs[idx], ys[idx]])


# Per-sample reference oracles: the families' subgrad must match them
# bitwise, so they repeat the families' arithmetic operation for operation.

def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _softplus(z: float) -> float:
    # log(1 + exp(z)) without overflow for large positive z
    if z > 0.0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


def logistic_eval(a: np.ndarray, b: float, x: np.ndarray) -> EvalResult:
    """Logistic loss log(1 + exp(-b<a, x>)) for a label b in {-1, +1}."""
    if b != 1 and b != -1:
        raise ValueError(f"label must be -1 or +1, got {b!r}")
    bf = float(b)
    z = -bf * float(np.dot(a, x))
    return EvalResult(_softplus(z), (-bf * _sigmoid(z)) * a)


def ball_dist_eval(x: np.ndarray, center: np.ndarray, radius: float) -> EvalResult:
    """Euclidean distance to the closed ball with the given center/radius."""
    if radius <= 0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    d = x - center
    dist = float(np.linalg.norm(d))
    if dist > radius:
        return EvalResult(dist - radius, d / dist)
    return EvalResult(0.0, np.zeros_like(d))


def outer_l1_quad_eval(x: np.ndarray) -> EvalResult:
    """Sparsity-plus-norm selection objective: sum |x_d| + 0.5 sum x_d^2."""
    value = float(np.sum(np.abs(x)) + 0.5 * np.dot(x, x))
    return EvalResult(value, np.sign(x) + x)


def outer_quad_anchor_eval(x: np.ndarray, anchor: np.ndarray) -> EvalResult:
    """Anchored squared-distance selection objective: 0.5 ||x - anchor||^2."""
    if x.shape != anchor.shape:
        raise ValueError(f"point has shape {x.shape}, anchor has shape {anchor.shape}")
    d = x - anchor
    return EvalResult(0.5 * float(np.dot(d, d)), d)


def chained_client_passes(state, sched, problem) -> np.ndarray:
    """The next FISM iterate from one ``client_local_pass`` per client, in
    ascending client index, summed left to right and divided by S."""
    from fedbilevel.solvers import client_local_pass

    gamma, lam = sched.at(state.k)
    outer_subgrad = problem.outer.subgrad(state.x)
    acc = None
    for group in problem.clients:
        x_out = client_local_pass(state.x, outer_subgrad, gamma, lam,
                                  problem.inner, group, problem.constraint)
        acc = x_out if acc is None else acc + x_out
    return acc / problem.n_clients


def reference_solve(problem, lam: float, iters: int, seed: int = 0) -> np.ndarray:
    """High-accuracy approximation of the regularized minimizer over the box.

    Projected subgradient on (inner + lam * outer) with the strongly convex
    stepsize c/k, c = 2 / (lam * mu_H), averaging the tail half of the
    iterates.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    box = problem.constraint
    rng = make_rng(seed, STREAM_INIT)
    x = open_uniform(rng, box.lo, box.hi, box.dimension)
    c = 2.0 / (lam * problem.mu_H)
    order = tuple(chain.from_iterable(problem.clients))
    subgrad = problem.inner.subgrad
    acc = np.zeros_like(x)
    count = 0
    half = iters // 2
    for k in range(1, iters + 1):
        g = lam * problem.outer.subgrad(x)
        for i in order:
            g = g + subgrad(i, x)
        x = project_box(x - (c / k) * g, box)
        if k > half:
            acc += x
            count += 1
    return acc / count


def estimate_bounds(problem, samples: int = 1000, seed: int = 0) -> tuple[float, float]:
    """Sampled upper estimates (cf, ch) of the inner subgradient-norm bound
    Cf and the outer norm/value bound CH over the feasible box.

    Points are drawn uniformly from a 1.5x inflation of the box and projected
    back, which puts mass on faces and corners where norms peak. ch covers
    both the outer subgradient norm and the outer value magnitude.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = make_rng(seed, STREAM_BOUNDS)
    box = problem.constraint
    center = (box.lo + box.hi) / 2.0
    half = (box.hi - box.lo) / 2.0
    cf = 0.0
    ch = 0.0
    inner, outer = problem.inner, problem.outer
    for _ in range(samples):
        raw = center + rng.uniform(-1.5, 1.5, box.dimension) * half
        x = project_box(raw, box)
        for i in range(len(inner)):
            g = float(np.linalg.norm(inner.subgrad(i, x)))
            if g > cf:
                cf = g
        ch = max(ch, float(np.linalg.norm(outer.subgrad(x))), abs(float(outer.values(x[None])[0])))
    return cf, ch


class RateDiagnosticUnavailable(RuntimeError):
    """Every objective gap in the fit window sits below the clip threshold."""


GAP_CLIP = 1e-12


def rate_diagnostic(record, f_star: float, window: float = 0.8,
                    clip: float = GAP_CLIP) -> float:
    """Fitted log-log slope of the averaged-iterate objective gap.

    Least-squares slope of log(F(avg iterate) - f_star) against log k over
    the trailing ``window`` fraction of rounds; gaps are clipped below
    ``clip`` before the log. ``f_star`` must come from an independent oracle,
    never from the run itself.
    """
    rows = record.rows
    if len(rows) < 100:
        raise ValueError("rate diagnostic needs at least 100 recorded rounds")
    start = len(rows) - int(window * len(rows))
    tail = rows[start:]
    gaps = np.array([r.inner_value_avg_iterate for r in tail]) - f_star
    if np.all(gaps < clip):
        raise RateDiagnosticUnavailable("all objective gaps sit below the clip threshold")
    ks = np.array([r.k for r in tail], dtype=float)
    logs = np.log(np.clip(gaps, clip, None))
    return float(np.polyfit(np.log(ks), logs, 1)[0])


def record_of_rows(rows, **fields) -> RunRecord:
    """A ``RunRecord`` holding ``rows`` (tuples in ``RoundRow`` field
    order) as typed columns; ``fields`` override the placeholder metadata."""
    columns = _ColumnRows()
    columns.extend(*([row[i] for row in rows] for i in range(len(ROW_FIELDS))))
    x = np.zeros(1)
    meta = dict(method="fism", problem_id="fake", gamma1=1, a=0.5, lambda1=1, b=0.4,
                feasible=True, n_clients=1, n_inner=1, dimension=1, seed=0, final_x=x,
                final_avg_x=x, final_inner_value=0.0, final_outer_value=0.0,
                stop_reason="max_rounds")
    return RunRecord(rows=columns, **(meta | fields))


def write_idx(tensor: np.ndarray, path) -> None:
    """Write a uint8 tensor of rank 1 or 3 as a big-endian IDX file: the
    magic 0x00000801 (rank 1) or 0x00000803 (rank 3), one u32 per
    dimension, then the row-major payload."""
    arr = np.ascontiguousarray(tensor, dtype=np.uint8)
    if arr.ndim == 3:
        magic = 0x00000803
    elif arr.ndim == 1:
        magic = 0x00000801
    else:
        raise ValueError(f"only rank-1 and rank-3 tensors are supported, got rank {arr.ndim}")
    with open(path, "wb") as f:
        f.write(struct.pack(">I", magic))
        f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes())


def reference_synthetic_logistic(n, m, margin, rng):
    """Balanced separable Gaussian data drawn from ``rng``, kept in a list
    of separate draws and stacked at the end: (features, labels, w)."""
    w = rng.standard_normal(n)
    wn = float(np.linalg.norm(w))
    feats, labels = [], []
    remaining = {1: m // 2, -1: m // 2}
    while remaining[1] or remaining[-1]:
        a = rng.standard_normal(n)
        score = float(np.dot(w, a))
        if abs(score) / wn < margin:
            continue
        lab = 1 if score > 0 else -1
        if remaining[lab]:
            remaining[lab] -= 1
            feats.append(a)
            labels.append(lab)
    return np.array(feats), np.array(labels), w


def synthetic_separator(n, m, margin, seed):
    """The direction w that labels ``make_synthetic_logistic(n, m, margin,
    seed)``, taken from the reference generator."""
    return reference_synthetic_logistic(n, m, margin, make_rng(seed, STREAM_DATA))[2]


def reference_split(features, labels, train_size):
    """The first train_size/2 samples of each class in order train, the rest
    are held out; both parts are fancy-indexed copies:
    (train_features, train_labels, test_features, test_labels)."""
    train_idx, test_idx = [], []
    seen = {1: 0, -1: 0}
    for i, lab in enumerate(labels):
        lab = int(lab)
        (train_idx if seen[lab] < train_size // 2 else test_idx).append(i)
        seen[lab] += 1
    return (features[train_idx], labels[train_idx],
            features[test_idx], labels[test_idx])


# Minimal hand-rolled oracles for solver unit tests.

def abs_oracle():
    def oracle(x):
        return EvalResult(float(np.sum(np.abs(x))), np.sign(x))

    return oracle


def zero_oracle():
    def oracle(x):
        return EvalResult(0.0, np.zeros_like(x))

    return oracle


def counting(oracle):
    """Wrap an oracle with an invocation counter (counts in calls['n'])."""
    calls = {"n": 0}

    def wrapped(x):
        calls["n"] += 1
        return oracle(x)

    return wrapped, calls
