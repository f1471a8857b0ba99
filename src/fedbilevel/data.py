"""Dataset ingestion (IDX) and seeded synthetic instance generators."""
from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .problem import BoxConstraint
from .rng import STREAM_DATA, make_rng, open_uniform


class FormatError(ValueError):
    """Raised for malformed or unusable dataset files."""


_IDX_MAGIC_IMAGES = 0x00000803
_IDX_MAGIC_LABELS = 0x00000801


def read_idx(path) -> np.ndarray:
    """Read a big-endian IDX file of unsigned bytes.

    Layout: a 4-byte magic (0x00000803 for rank-3 u8 image tensors,
    0x00000801 for rank-1 u8 label vectors), one big-endian u32 per
    dimension, then the row-major payload. Values are returned raw (uint8)
    with the header dimensions as the array shape.
    """
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise FormatError(f"{path}: too short for an IDX header")
    (magic,) = struct.unpack(">I", data[:4])
    if magic == _IDX_MAGIC_IMAGES:
        rank = 3
    elif magic == _IDX_MAGIC_LABELS:
        rank = 1
    else:
        raise FormatError(f"{path}: unsupported IDX magic 0x{magic:08x}")
    header = 4 + 4 * rank
    if len(data) < header:
        raise FormatError(f"{path}: truncated IDX dimension header")
    dims = struct.unpack(f">{rank}I", data[4:header])
    count = int(np.prod(dims))
    payload = data[header:]
    if len(payload) != count:
        raise FormatError(f"{path}: expected {count} payload bytes, found {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def write_idx(tensor: np.ndarray, path) -> None:
    """Inverse of :func:`read_idx` for uint8 tensors of rank 1 or 3."""
    arr = np.ascontiguousarray(tensor, dtype=np.uint8)
    if arr.ndim == 3:
        magic = _IDX_MAGIC_IMAGES
    elif arr.ndim == 1:
        magic = _IDX_MAGIC_LABELS
    else:
        raise ValueError(f"only rank-1 and rank-3 tensors are supported, got rank {arr.ndim}")
    with open(path, "wb") as f:
        f.write(struct.pack(">I", magic))
        f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes())


@dataclass(frozen=True)
class DigitDataset:
    """Flattened unit-scaled images with their original digit labels."""

    features: np.ndarray  # (N, n) floats in [0, 1]
    digits: np.ndarray    # (N,) ints
    name: str = ""

    def __post_init__(self):
        if self.features.shape[0] != self.digits.shape[0]:
            raise ValueError("features and digits must have equal length")

    def __len__(self) -> int:
        return int(self.digits.shape[0])


@dataclass(frozen=True)
class LabeledDataset:
    """Binary-labeled feature vectors; labels are strictly -1 or +1.

    ``separator`` carries the generating direction for synthetic data (used
    by tests; absent for file-loaded datasets).
    """

    features: np.ndarray
    labels: np.ndarray
    name: str = ""
    separator: np.ndarray | None = None

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels must have equal length")
        if self.labels.size and not np.all(np.isin(self.labels, (-1, 1))):
            raise ValueError("labels must be -1 or +1")

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def load_digit_images(images_path, labels_path, name: str = "") -> DigitDataset:
    """Load an IDX image/label file pair as flattened [0, 1] features."""
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim != 3:
        raise FormatError(f"{images_path}: expected a rank-3 image tensor")
    if labels.ndim != 1:
        raise FormatError(f"{labels_path}: expected a rank-1 label vector")
    if images.shape[0] != labels.shape[0]:
        raise FormatError("image and label counts differ")
    n = images.shape[1] * images.shape[2]
    feats = images.reshape(images.shape[0], n).astype(float) / 255.0
    return DigitDataset(feats, labels.astype(int), name=name)


def filter_binary(ds: DigitDataset, pos_digit: int, neg_digit: int) -> LabeledDataset:
    """Keep only the two requested digits, mapped to +1/-1, order preserved."""
    if pos_digit == neg_digit:
        raise ValueError("positive and negative digits must differ")
    keep = (ds.digits == pos_digit) | (ds.digits == neg_digit)
    if not np.any(keep):
        raise FormatError(f"no samples with digit {pos_digit} or {neg_digit}")
    digits = ds.digits[keep]
    labels = np.where(digits == pos_digit, 1, -1)
    if np.all(labels == labels[0]):
        warnings.warn("binary filter produced a single-class dataset", stacklevel=2)
    return LabeledDataset(ds.features[keep], labels, name=ds.name)


# Largest expected draw count of make_synthetic_logistic: a draw is kept
# with probability erfc(margin / sqrt(2)), so m samples take m / that.
MAX_SYNTHETIC_DRAWS = 10**8


def check_synthetic_margin(m: int, margin: float) -> None:
    """Raise ValueError unless ``margin`` is finite, nonnegative and expected
    to need at most MAX_SYNTHETIC_DRAWS draws for m samples."""
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and nonnegative, got {margin}")
    if m > MAX_SYNTHETIC_DRAWS * math.erfc(margin / math.sqrt(2)):
        raise ValueError(f"margin {margin} is expected to need more than "
                         f"{MAX_SYNTHETIC_DRAWS:.0e} draws for {m} samples")


def make_synthetic_logistic(n: int, m: int, margin: float, seed: int) -> LabeledDataset:
    """Separable Gaussian data labeled by a hidden direction.

    Features are standard normal, labels are the sign of the projection onto
    a seeded direction w, and draws with |<w, a>| / ||w|| below the margin
    are resampled. Classes are balanced to exactly m/2 samples each, emitted
    in draw order. Each draw is written into the next free row of one
    (m, n) array, which keeps it if it is accepted.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if m % 2:
        raise ValueError("m must be even so each class can hold m/2 samples")
    check_synthetic_margin(m, margin)
    rng = make_rng(seed, STREAM_DATA)
    w = rng.standard_normal(n)
    wn = float(np.linalg.norm(w))
    feats = np.empty((m, n))
    labels = np.empty(m, dtype=int)
    remaining = {1: m // 2, -1: m // 2}
    j = 0
    while j < m:
        a = rng.standard_normal(out=feats[j])
        score = float(np.dot(w, a))
        if abs(score) / wn < margin:
            continue
        lab = 1 if score > 0 else -1
        if remaining[lab]:
            remaining[lab] -= 1
            labels[j] = lab
            j += 1
    return LabeledDataset(feats, labels, name=f"synthetic-logistic-{n}d", separator=w)


@dataclass(frozen=True)
class LocationInstance:
    """Target balls plus anchor for the location experiment family."""

    centers: np.ndarray  # (m, n)
    radii: np.ndarray    # (m,)
    anchor: np.ndarray   # (n,)
    box: BoxConstraint

    def __post_init__(self):
        if np.any(self.radii <= 0):
            raise ValueError("radii must be positive")
        if self.centers.shape[0] != self.radii.shape[0]:
            raise ValueError("centers and radii must have equal length")
        for name, points in (("centers", self.centers), ("anchor", self.anchor)):
            if np.any(points < self.box.lo) or np.any(points > self.box.hi):
                raise ValueError(f"{name} must lie inside the box")


def make_location_instance(n: int, m: int, seed: int) -> LocationInstance:
    """Seeded instance: centers and anchor uniform in (-10, 10)^n, radii
    uniform in (0, 1), box [-10, 10]^n."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    rng = make_rng(seed, STREAM_DATA)
    centers = open_uniform(rng, -10.0, 10.0, (m, n))
    radii = open_uniform(rng, 0.0, 1.0, m)
    anchor = open_uniform(rng, -10.0, 10.0, n)
    return LocationInstance(centers, radii, anchor, BoxConstraint.symmetric(n, 10.0))
