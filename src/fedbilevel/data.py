"""Datasets: IDX ingestion and the seeded synthetic logistic generator."""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import STREAM_DATA, make_rng


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
    count = math.prod(dims)  # np.prod wraps around in int64
    payload = data[header:]
    if len(payload) != count:
        raise FormatError(f"{path}: expected {count} payload bytes, found {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


@dataclass(frozen=True)
class LabeledDataset:
    """Binary-labeled feature vectors; labels are strictly -1 or +1."""

    features: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels must have equal length")
        if self.labels.size and not np.all(np.isin(self.labels, (-1, 1))):
            raise ValueError("labels must be -1 or +1")

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def load_binary_digits(images_path, labels_path, pos_digit: int, neg_digit: int,
                       name: str = "") -> LabeledDataset:
    """Load the two requested digits of an IDX image/label file pair.

    Kept samples stay in file order, labeled +1 (``pos_digit``) or -1
    (``neg_digit``); only their pixels are flattened and scaled to [0, 1].
    A digit with no sample in the file is a ``FormatError``.
    """
    if pos_digit == neg_digit:
        raise ValueError("positive and negative digits must differ")
    images = read_idx(images_path)
    digits = read_idx(labels_path).astype(int)
    if images.ndim != 3:
        raise FormatError(f"{images_path}: expected a rank-3 image tensor")
    if digits.ndim != 1:
        raise FormatError(f"{labels_path}: expected a rank-1 label vector")
    if images.shape[0] != digits.shape[0]:
        raise FormatError("image and label counts differ")
    is_pos, is_neg = digits == pos_digit, digits == neg_digit
    for digit, found in ((pos_digit, is_pos), (neg_digit, is_neg)):
        if not found.any():  # one class, or none, is nothing to classify
            raise FormatError(f"{labels_path}: no samples with digit {digit}")
    keep = is_pos | is_neg
    labels = np.where(is_pos[keep], 1, -1)
    feats = images[keep].reshape(labels.size, images.shape[1] * images.shape[2]).astype(float)
    feats /= 255.0
    return LabeledDataset(feats, labels, name=name)


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


def make_synthetic_logistic(n: int, m: int, margin: float, seed: int,
                            test_size: int = 0) -> tuple[LabeledDataset, LabeledDataset]:
    """Separable Gaussian data labeled by a hidden direction, as (train, heldout).

    Features are standard normal, labels are the sign of the projection onto
    a seeded direction w, and draws with |<w, a>| / ||w|| below the margin
    are resampled. A class's first m/2 accepted draws are training samples
    and its next test_size/2 are held out; each part keeps draw order. Each
    draw is written into the next free training row (into the next free
    held-out row once the training set is full) and is copied to the
    held-out set if it turns out to belong there.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if m % 2 or test_size % 2 or test_size < 0:
        raise ValueError("m and test_size must be even and nonnegative so each class "
                         "can hold half of each")
    check_synthetic_margin(m + test_size, margin)
    rng = make_rng(seed, STREAM_DATA)
    w = rng.standard_normal(n)
    wn = float(np.linalg.norm(w))
    feats, labels = np.empty((m, n)), np.empty(m, dtype=int)
    held_feats, held_labels = np.empty((test_size, n)), np.empty(test_size, dtype=int)
    train_left = {1: m // 2, -1: m // 2}
    held_left = {1: test_size // 2, -1: test_size // 2}
    j = h = 0
    while j < m or h < test_size:
        a = rng.standard_normal(out=feats[j] if j < m else held_feats[h])
        score = float(np.dot(w, a))
        if abs(score) / wn < margin:
            continue
        lab = 1 if score > 0 else -1
        if train_left[lab]:
            train_left[lab] -= 1
            labels[j] = lab
            j += 1
        elif held_left[lab]:
            held_left[lab] -= 1
            if j < m:
                held_feats[h] = a
            held_labels[h] = lab
            h += 1
    name = f"synthetic-logistic-{n}d"
    return (LabeledDataset(feats, labels, name=name),
            LabeledDataset(held_feats, held_labels, name=name + "-heldout"))
