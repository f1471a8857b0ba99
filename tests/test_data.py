import struct

import numpy as np
import pytest
from helpers import reference_synthetic_logistic, write_idx
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbilevel.data import (MAX_SYNTHETIC_DRAWS, DigitDataset, FormatError, LabeledDataset,
                             check_synthetic_margin, filter_binary, load_digit_images,
                             make_location_instance, make_synthetic_logistic, read_idx)
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
        ds = load_digit_images(images, labels)
        assert ds.features.shape == (2, 784)
        assert np.all(ds.features >= 0.0) and np.all(ds.features <= 1.0)
        assert np.all(ds.features == 1.0)


class TestFilterBinary:
    def _digits(self, digits):
        digits = np.asarray(digits)
        feats = np.arange(len(digits), dtype=float).reshape(-1, 1)
        return DigitDataset(feats, digits)

    def test_relabeling_preserves_order(self):
        out = filter_binary(self._digits([0, 1, 7, 0]), pos_digit=1, neg_digit=0)
        assert list(out.labels) == [-1, 1, -1]
        assert list(out.features.ravel()) == [0.0, 1.0, 3.0]

    def test_single_class_warns(self):
        with pytest.warns(UserWarning):
            out = filter_binary(self._digits([3, 3, 3]), pos_digit=1, neg_digit=3)
        assert list(out.labels) == [-1, -1, -1]

    def test_equal_digits_rejected(self):
        with pytest.raises(ValueError):
            filter_binary(self._digits([0, 1]), pos_digit=1, neg_digit=1)

    def test_empty_result_rejected(self):
        with pytest.raises(FormatError):
            filter_binary(self._digits([5, 6]), pos_digit=1, neg_digit=0)


class TestLabeledDataset:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 1)), np.array([1, 2]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 1)), np.array([1]))


class TestSyntheticLogistic:
    def test_deterministic(self):
        a = make_synthetic_logistic(2, 4, margin=0.5, seed=5)
        b = make_synthetic_logistic(2, 4, margin=0.5, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.separator, b.separator)

    def test_margin_enforced(self):
        ds = make_synthetic_logistic(3, 40, margin=1.0, seed=2)
        w = ds.separator / np.linalg.norm(ds.separator)
        assert np.all(np.abs(ds.features @ w) >= 1.0)

    def test_balanced(self):
        ds = make_synthetic_logistic(2, 4, margin=0.1, seed=9)
        assert int(np.sum(ds.labels == 1)) == 2
        assert int(np.sum(ds.labels == -1)) == 2

    def test_labels_match_separator(self):
        ds = make_synthetic_logistic(4, 30, margin=0.2, seed=3)
        assert np.array_equal(np.sign(ds.features @ ds.separator), ds.labels)

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_logistic(2, 5, margin=0.5, seed=0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 20), st.floats(0.0, 2.0), st.integers(0, 1000))
    def test_bitwise_equal_to_list_reference(self, n, half, margin, seed):
        ds = make_synthetic_logistic(n, 2 * half, margin, seed=seed)
        want = reference_synthetic_logistic(n, 2 * half, margin, make_rng(seed, STREAM_DATA))
        for got, ref in zip((ds.features, ds.labels, ds.separator), want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

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
        inst = make_location_instance(4, 50, seed=0)
        assert np.all(inst.centers > -10.0) and np.all(inst.centers < 10.0)
        assert np.all(inst.anchor > -10.0) and np.all(inst.anchor < 10.0)
        assert np.all(inst.radii > 0.0) and np.all(inst.radii < 1.0)
        assert inst.box.dimension == 4

    def test_deterministic(self):
        a = make_location_instance(3, 7, seed=11)
        b = make_location_instance(3, 7, seed=11)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.radii, b.radii)
        assert np.array_equal(a.anchor, b.anchor)

    def test_minimal_instance(self):
        inst = make_location_instance(1, 1, seed=0)
        assert inst.centers.shape == (1, 1)
        assert inst.radii.shape == (1,)

