import struct
import tracemalloc

import numpy as np
import pytest
from helpers import reference_synthetic_logistic, synthetic_separator, write_idx
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbilevel.data import (MAX_SYNTHETIC_DRAWS, FormatError, LabeledDataset,
                             check_synthetic_margin, load_binary_digits, make_synthetic_logistic,
                             read_idx)
from fedbilevel.instances import location_problem
from fedbilevel.rng import STREAM_DATA, make_rng


def _idx_bytes(magic, dims, payload):
    return struct.pack(">I", magic) + struct.pack(f">{len(dims)}I", *dims) + bytes(payload)


class TestReadIdx:
    def test_images(self, tmp_path):
        path = tmp_path / "images.idx"
        payload = list(range(256)) * 6 + [0] * (2 * 28 * 28 - 1536)
        path.write_bytes(_idx_bytes(0x00000803, (2, 28, 28), payload))
        arr = read_idx(path)
        assert arr.shape == (2, 28, 28)
        assert arr.dtype == np.uint8

    def test_labels(self, tmp_path):
        path = tmp_path / "labels.idx"
        path.write_bytes(_idx_bytes(0x00000801, (5,), [0, 1, 1, 0, 1]))
        arr = read_idx(path)
        assert arr.shape == (5,)
        assert list(arr) == [0, 1, 1, 0, 1]

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(_idx_bytes(0x00000802, (3, 3), [0] * 9))
        with pytest.raises(FormatError):
            read_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(_idx_bytes(0x00000801, (5,), [0, 1]))
        with pytest.raises(FormatError):
            read_idx(path)

    def test_header_whose_size_overflows_int64(self, tmp_path):
        # 2^31 * 2^31 * 4 = 2^64 bytes, which wraps to 0 in an int64 product
        path = tmp_path / "huge.idx"
        path.write_bytes(_idx_bytes(0x00000803, (2**31, 2**31, 4), []))
        with pytest.raises(FormatError, match="18446744073709551616 payload bytes"):
            read_idx(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        for arr in (rng.integers(0, 256, (3, 4, 5), dtype=np.uint8),
                    rng.integers(0, 256, 17, dtype=np.uint8)):
            path = tmp_path / "rt.idx"
            write_idx(arr, path)
            back = read_idx(path)
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)

    def test_feature_scaling(self, tmp_path):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        write_idx(np.full((2, 28, 28), 255, dtype=np.uint8), images)
        write_idx(np.array([0, 1], dtype=np.uint8), labels)
        ds = load_binary_digits(images, labels, pos_digit=1, neg_digit=0)
        assert ds.features.shape == (2, 784)
        assert np.all(ds.features >= 0.0) and np.all(ds.features <= 1.0)
        assert np.all(ds.features == 1.0)


class TestFilterBinary:
    def _load(self, tmp_path, digits, pos_digit, neg_digit):
        """One-pixel images whose pixel value is the sample's position."""
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(np.arange(len(digits)).reshape(-1, 1, 1), images)
        write_idx(np.asarray(digits), labels)
        return load_binary_digits(images, labels, pos_digit=pos_digit, neg_digit=neg_digit)

    def test_relabeling_preserves_order(self, tmp_path):
        out = self._load(tmp_path, [0, 1, 7, 0], pos_digit=1, neg_digit=0)
        assert list(out.labels) == [-1, 1, -1]
        assert out.features.tobytes() == (np.array([[0.0], [1.0], [3.0]]) / 255.0).tobytes()

    @pytest.mark.parametrize("pos_digit, neg_digit", [(1, 3), (3, 1)])
    def test_single_class_rejected(self, tmp_path, pos_digit, neg_digit):
        with pytest.raises(FormatError, match="no samples with digit 1"):
            self._load(tmp_path, [3, 3, 3], pos_digit=pos_digit, neg_digit=neg_digit)

    def test_equal_digits_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            self._load(tmp_path, [0, 1], pos_digit=1, neg_digit=1)

    def test_empty_result_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            self._load(tmp_path, [5, 6], pos_digit=1, neg_digit=0)

    def test_converts_only_the_kept_images(self, tmp_path):
        count, side = 5000, 16
        rng = np.random.default_rng(0)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(rng.integers(0, 256, (count, side, side), dtype=np.uint8), images)
        digits = np.full(count, 5, dtype=np.uint8)
        digits[::10] = np.tile([0, 1], count // 20)
        write_idx(digits, labels)
        tracemalloc.start()
        try:
            out = load_binary_digits(images, labels, pos_digit=1, neg_digit=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.features.shape == (count // 10, side * side)
        assert peak < count * side * side * 8  # the float bytes of every image


class TestLabeledDataset:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 1)), np.array([1, 2]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 1)), np.array([1]))


class TestSyntheticLogistic:
    def test_deterministic(self):
        a, _ = make_synthetic_logistic(2, 4, margin=0.5, seed=5)
        b, _ = make_synthetic_logistic(2, 4, margin=0.5, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_margin_enforced(self):
        ds, _ = make_synthetic_logistic(3, 40, margin=1.0, seed=2)
        w = synthetic_separator(3, 40, 1.0, seed=2)
        w /= np.linalg.norm(w)
        assert np.all(np.abs(ds.features @ w) >= 1.0)

    def test_balanced(self):
        ds, _ = make_synthetic_logistic(2, 4, margin=0.1, seed=9)
        assert int(np.sum(ds.labels == 1)) == 2
        assert int(np.sum(ds.labels == -1)) == 2

    def test_labels_match_separator(self):
        ds, _ = make_synthetic_logistic(4, 30, margin=0.2, seed=3)
        w = synthetic_separator(4, 30, 0.2, seed=3)
        assert np.array_equal(np.sign(ds.features @ w), ds.labels)

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_logistic(2, 5, margin=0.5, seed=0)
        for test_size in (3, -2):
            with pytest.raises(ValueError):
                make_synthetic_logistic(2, 4, margin=0.5, seed=0, test_size=test_size)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 20), st.floats(0.0, 2.0), st.integers(0, 1000))
    def test_bitwise_equal_to_list_reference(self, n, half, margin, seed):
        ds, heldout = make_synthetic_logistic(n, 2 * half, margin, seed=seed)
        want = reference_synthetic_logistic(n, 2 * half, margin, make_rng(seed, STREAM_DATA))
        for got, ref in zip((ds.features, ds.labels), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        assert heldout.features.shape == (0, n) and len(heldout) == 0

    def test_margin_draw_budget(self):
        # margin 0 keeps every draw, so m draws are expected
        check_synthetic_margin(MAX_SYNTHETIC_DRAWS, 0.0)
        with pytest.raises(ValueError, match="draws"):
            check_synthetic_margin(MAX_SYNTHETIC_DRAWS + 2, 0.0)
        # margin 4 keeps a draw with probability 6.3e-5: 500 samples take
        # about 7.9e6 draws, 10 000 samples about 1.6e8
        check_synthetic_margin(500, 4.0)
        with pytest.raises(ValueError, match="draws"):
            check_synthetic_margin(10_000, 4.0)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), -0.1, 9.0])
    def test_bad_margin_rejected(self, margin):
        with pytest.raises(ValueError, match="margin"):
            make_synthetic_logistic(2, 4, margin=margin, seed=0)


class TestLocationInstance:
    def test_sampling_ranges_strict(self):
        prob = location_problem(4, 50, 0, (range(50),))
        centers, radii, anchor = prob.inner.centers, prob.inner.radii, prob.outer.anchor
        assert np.all(centers > -10.0) and np.all(centers < 10.0)
        assert np.all(anchor > -10.0) and np.all(anchor < 10.0)
        assert np.all(radii > 0.0) and np.all(radii < 1.0)
        assert prob.constraint.dimension == 4
        assert np.all(prob.constraint.lo == -10.0) and np.all(prob.constraint.hi == 10.0)

    def test_deterministic(self):
        a = location_problem(3, 7, 11, (range(7),))
        b = location_problem(3, 7, 11, (range(7),))
        assert np.array_equal(a.inner.centers, b.inner.centers)
        assert np.array_equal(a.inner.radii, b.inner.radii)
        assert np.array_equal(a.outer.anchor, b.outer.anchor)

    def test_minimal_instance(self):
        prob = location_problem(1, 1, 0, (range(1),))
        assert prob.inner.centers.shape == (1, 1)
        assert prob.inner.radii.shape == (1,)
        with pytest.raises(ValueError, match="positive"):
            location_problem(1, 0, 0, ())
