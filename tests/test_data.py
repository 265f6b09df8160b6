"""Tests for corpus IO, splits, normalization, batching, synthetic data."""

import re

import numpy as np
import pytest

from cogent.data import (
    Corpus,
    DatasetMeta,
    Samples,
    SplitPlan,
    apply_normalization,
    gen_synthetic,
    load_corpus,
    make_batches,
    normalize,
    sample_finetune_subset,
    save_corpus,
    split_pretrain,
)
from cogent.errors import ConfigError, ContractError, ParseError
from cogent.selfcheck import nearest_centroid_accuracy


def _samples(labels, T=4, D=1, fill=None, rng=None):
    """Samples with the given labels; sample i holds `fill`, i, or noise."""
    n = len(labels)
    if rng is not None:
        values = rng.normal(size=(n, T, D)).astype(np.float32)
    elif fill is not None:
        values = np.full((n, T, D), fill, np.float32)
    else:
        values = np.repeat(np.arange(n, dtype=np.float32), T * D).reshape(n, T, D)
    return Samples(values, np.array(labels, dtype=np.int64))


class TestLoadCorpus:
    def test_synthetic_round_trip(self, tmp_path):
        meta = DatasetMeta(T=96, D=1, num_classes=3, name="synth")
        # per class: 10 train rows, half as many val and test rows
        gen_synthetic(tmp_path, meta, per_class=10, seed=1)
        corpus = load_corpus(tmp_path)
        assert len(corpus.train) == 30
        assert len(corpus.val) == 15
        assert len(corpus.test) == 15
        assert corpus.meta.T == 96 and corpus.meta.D == 1
        assert corpus.train.values.shape == (30, 96, 1)

    def test_splits_are_contiguous_arrays(self, tmp_path):
        meta = DatasetMeta(T=8, D=2, num_classes=2, name="arrays")
        gen_synthetic(tmp_path, meta, per_class=3, seed=1)
        (tmp_path / "val.csv").write_text("")
        corpus = load_corpus(tmp_path)
        for split, n in ((corpus.train, 6), (corpus.val, 0), (corpus.test, 4)):
            assert split.values.shape == (n, 8, 2)
            assert split.values.dtype == np.float32
            assert split.values.flags.c_contiguous
            assert split.labels.shape == (n,)
            assert split.labels.dtype == np.int64
        np.testing.assert_array_equal(corpus.train.labels, [0, 0, 0, 1, 1, 1])

    def test_values_survive_round_trip_exactly(self, tmp_path):
        meta = DatasetMeta(T=8, D=2, num_classes=2, name="rt")
        rng = np.random.default_rng(3)
        corpus = Corpus(
            meta=meta,
            train=_samples([0, 1], T=8, D=2, rng=rng),
            val=_samples([0, 1], T=8, D=2, rng=rng),
            test=_samples([0, 1], T=8, D=2, rng=rng),
        )
        save_corpus(tmp_path, corpus)
        loaded = load_corpus(tmp_path)
        for a, b in zip((corpus.train, corpus.val, corpus.test),
                        (loaded.train, loaded.val, loaded.test)):
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.values, b.values)

    def test_row_missing_label_column(self, tmp_path):
        meta = DatasetMeta(T=4, D=1, num_classes=2, name="bad")
        save_corpus(tmp_path, Corpus(meta, _samples([0]), _samples([0]), _samples([0])))
        # overwrite train.csv: second row has T*D values but no label column
        with open(tmp_path / "train.csv", "w") as fh:
            fh.write("0,1.0,2.0,3.0,4.0\n")
            fh.write("1.0,2.0,3.0,4.0\n")
        with pytest.raises(ParseError, match=r"train\.csv:2"):
            load_corpus(tmp_path)

    def test_label_out_of_range(self, tmp_path):
        meta = DatasetMeta(T=2, D=1, num_classes=2, name="bad")
        save_corpus(tmp_path, Corpus(meta, _samples([0], T=2), _samples([0], T=2), _samples([0], T=2)))
        with open(tmp_path / "val.csv", "w") as fh:
            fh.write("5,1.0,2.0\n")
        with pytest.raises(ParseError, match="label 5 out of range"):
            load_corpus(tmp_path)

    def test_missing_file(self, tmp_path):
        meta = DatasetMeta(T=2, D=1, num_classes=2, name="bad")
        save_corpus(tmp_path, Corpus(meta, _samples([0], T=2), _samples([0], T=2), _samples([0], T=2)))
        (tmp_path / "test.csv").unlink()
        with pytest.raises(ParseError, match="test.csv"):
            load_corpus(tmp_path)

    def test_non_ascii_byte_names_file_and_line(self, tmp_path):
        meta = DatasetMeta(T=2, D=1, num_classes=2, name="bad")
        save_corpus(tmp_path, Corpus(meta, _samples([0], T=2), _samples([0], T=2), _samples([0], T=2)))
        (tmp_path / "train.csv").write_bytes(b"0,1.0,2.0\n1,1.0,2\xc3\xa9\n")
        with pytest.raises(ParseError, match=r"train\.csv:2: non-ASCII byte 0xc3"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize(
        "manifest, message",
        [
            (b'{"T": 2, "D": 1,', "not a valid JSON manifest"),
            (b'{"T": 2, "D": 1, "num_classes": 2, "name": "\xff"}', "not a valid JSON manifest"),
            (b"[2, 1, 2]", "must be a JSON object"),
            (b'{"T": "two", "D": 1, "num_classes": 2}', "'T' must be an integer"),
            (b'{"T": 2.5, "D": 1, "num_classes": 2}', "'T' must be an integer"),
            (b'{"T": 2, "num_classes": 2}', "missing manifest key 'D'"),
        ],
    )
    def test_bad_manifest_names_file(self, tmp_path, manifest, message):
        meta = DatasetMeta(T=2, D=1, num_classes=2, name="bad")
        save_corpus(tmp_path, Corpus(meta, _samples([0], T=2), _samples([0], T=2), _samples([0], T=2)))
        (tmp_path / "meta.json").write_bytes(manifest)
        with pytest.raises(ParseError, match=r"meta\.json: .*" + message):
            load_corpus(tmp_path)

    def test_long_series_layout(self, tmp_path):
        meta = DatasetMeta(T=1280, D=1, num_classes=3, name="bench1280")
        corpus = Corpus(
            meta,
            _samples([0, 1, 2], T=1280),
            _samples([0], T=1280),
            _samples([0], T=1280),
        )
        save_corpus(tmp_path, corpus)
        loaded = load_corpus(tmp_path)
        assert loaded.train.values.shape == (3, 1280, 1)


class TestSplitPretrain:
    def test_benchmark_sized_split(self):
        train = _samples([i % 3 for i in range(2232)])
        pre, sanity = split_pretrain(train, SplitPlan(seed=0))
        assert len(pre) == 2008
        assert len(sanity) == 224

    def test_ten_samples(self):
        pre, sanity = split_pretrain(_samples(range(10)), SplitPlan(seed=0))
        assert len(pre) == 9 and len(sanity) == 1

    def test_same_seed_same_split(self):
        train = _samples([i % 2 for i in range(40)])
        a = split_pretrain(train, SplitPlan(seed=7))
        b = split_pretrain(train, SplitPlan(seed=7))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.labels, y.labels)
            np.testing.assert_array_equal(x.values, y.values)

    def test_disjoint_and_exhaustive(self):
        train = _samples(range(17))  # sample i holds the value i
        pre, sanity = split_pretrain(train, SplitPlan(seed=3))
        ids_pre = set(pre.values[:, 0, 0].tolist())
        ids_san = set(sanity.values[:, 0, 0].tolist())
        assert len(ids_pre) + len(ids_san) == 17
        assert not ids_pre & ids_san
        assert ids_pre | ids_san == set(range(17))

    def test_too_small(self):
        with pytest.raises(ConfigError, match="train split"):
            split_pretrain(_samples([0]), SplitPlan())


class TestFinetuneSubset:
    def test_benchmark_sized_subset(self):
        train = _samples([i % 3 for i in range(2232)])  # 744 per class
        subset = sample_finetune_subset(train, SplitPlan(seed=0))
        assert len(subset) == 669  # round(0.3 * 744) = 223 per class

    def test_exact_ratio(self):
        train = _samples([i % 3 for i in range(30)])  # 10 per class
        subset = sample_finetune_subset(train, SplitPlan(seed=0))
        assert np.bincount(subset.labels).tolist() == [3, 3, 3]

    def test_seed_changes_subset_not_counts(self):
        train = _samples([i % 2 for i in range(40)], rng=np.random.default_rng(0))
        a = sample_finetune_subset(train, SplitPlan(seed=1))
        b = sample_finetune_subset(train, SplitPlan(seed=2))
        assert np.bincount(a.labels).tolist() == np.bincount(b.labels).tolist()
        assert not np.array_equal(a.values, b.values)

    def test_min_one_per_class(self):
        train = _samples([0, 0, 0, 0, 0, 1])  # tiny class 1
        subset = sample_finetune_subset(
            train, SplitPlan(finetune_label_ratio=0.3, seed=0)
        )
        assert 1 in subset.labels


class TestNormalize:
    def test_constant_channel_becomes_zero(self):
        samples = _samples([0, 1], fill=5.0)
        normed, mean, std = normalize(samples)
        np.testing.assert_array_equal(normed.values, np.zeros_like(samples.values))

    def test_channel_mean_near_zero(self):
        rng = np.random.default_rng(5)
        samples = _samples([0] * 50, T=20, D=3, rng=rng)
        normed, _, _ = normalize(samples)
        stacked = normed.values.reshape(-1, 3).astype(np.float64)
        assert np.all(np.abs(stacked.mean(axis=0)) < 1e-5)
        assert np.all(np.abs(stacked.std(axis=0) - 1.0) < 1e-4)

    def test_two_point_channel(self):
        samples = Samples(np.array([[[1.0]], [[3.0]]], np.float32), np.array([0, 1]))
        normed, mean, std = normalize(samples)
        assert mean[0] == 2.0 and std[0] == 1.0  # population std
        assert normed.values[0, 0, 0] == -1.0
        assert normed.values[1, 0, 0] == 1.0

    def test_stats_ignore_other_splits(self):
        rng = np.random.default_rng(8)
        train = _samples([0] * 10, rng=rng)
        test = _samples([0] * 10, rng=rng)
        _, mean1, std1 = normalize(train)
        test.values[...] += 100.0  # mutating test rows must not affect stats
        _, mean2, std2 = normalize(train)
        np.testing.assert_array_equal(mean1, mean2)
        np.testing.assert_array_equal(std1, std2)
        # and application re-uses the given stats verbatim
        applied = apply_normalization(test, mean1, std1)
        expect = (test.values - mean1) / std1
        np.testing.assert_allclose(applied.values, expect, rtol=1e-6)


class TestMakeBatches:
    def test_drop_remainder(self):
        batches = list(make_batches(_samples(range(10)), 4, seed=1, epoch=0))
        assert len(batches) == 2
        assert all(v.shape[0] == 4 for v, _ in batches)

    def test_keep_remainder_in_eval(self):
        batches = list(
            make_batches(
                _samples(range(10)), 4, seed=1, epoch=0, drop_last=False, shuffle=False
            )
        )
        assert [v.shape[0] for v, _ in batches] == [4, 4, 2]

    def test_deterministic_order(self):
        samples = _samples(range(10))
        a = [l.tolist() for _, l in make_batches(samples, 4, seed=1, epoch=0)]
        b = [l.tolist() for _, l in make_batches(samples, 4, seed=1, epoch=0)]
        c = [l.tolist() for _, l in make_batches(samples, 4, seed=1, epoch=1)]
        assert a == b
        assert a != c

    def test_small_batch_rejected_in_pretrain_mode(self):
        with pytest.raises(ConfigError):
            list(make_batches(_samples(range(4)), 1, drop_last=True))

    # (shuffle, drop_last) of pretraining, fine-tuning, the sanity split and
    # inference
    @pytest.mark.parametrize(
        "shuffle, drop_last", [(True, True), (True, False), (False, True), (False, False)]
    )
    def test_batches_equal_stacked_rows(self, shuffle, drop_last):
        samples = _samples([i % 3 for i in range(11)], T=5, D=2,
                           rng=np.random.default_rng(4))
        rows = list(zip(samples.values, samples.labels.tolist()))
        n = len(rows)
        if shuffle:
            order = np.random.default_rng([9, 2]).permutation(n)
        else:
            order = np.arange(n)
        stop = n // 4 * 4 if drop_last else n
        got = list(make_batches(samples, 4, seed=9, epoch=2,
                                drop_last=drop_last, shuffle=shuffle))
        assert len(got) == -(-stop // 4)
        for (values, labels), lo in zip(got, range(0, stop, 4)):
            sel = order[lo : lo + 4]
            expect = np.stack([rows[i][0] for i in sel])
            assert values.dtype == np.float32 and values.flags.c_contiguous
            assert values.tobytes() == expect.tobytes()
            assert values.shape == expect.shape
            assert labels.dtype == np.int64
            assert labels.tolist() == [rows[i][1] for i in sel]


class TestSamples:
    def test_index_array_and_slice_select_rows(self):
        samples = _samples([0, 1, 2, 1])
        picked = samples[np.array([3, 0])]
        assert isinstance(picked, Samples) and len(picked) == 2
        assert picked.labels.tolist() == [1, 0]
        assert picked.values[:, 0, 0].tolist() == [3.0, 0.0]
        assert samples[1:3].labels.tolist() == [1, 2]
        assert len(samples[:0]) == 0

    @pytest.mark.parametrize(
        "values, labels",
        [
            (np.zeros((3, 4), np.float32), np.zeros(3, np.int64)),
            (np.zeros((3, 4, 1, 1), np.float32), np.zeros(3, np.int64)),
            (np.zeros((3, 4, 1), np.float64), np.zeros(3, np.int64)),
            (np.zeros((3, 4, 1), np.float32).tolist(), np.zeros(3, np.int64)),
            (np.zeros((3, 4, 1), np.float32), np.zeros((3, 1), np.int64)),
            (np.zeros((3, 4, 1), np.float32), np.zeros(3, np.float32)),
            (np.zeros((3, 4, 1), np.float32), np.zeros(3, bool)),
            (np.zeros((3, 4, 1), np.float32), np.zeros(2, np.int64)),
        ],
        ids=["2-d", "4-d", "float64", "list", "2-d-labels", "float-labels",
             "bool-labels", "length-mismatch"],
    )
    def test_refused(self, values, labels):
        shapes = (f"values {re.escape(str(np.shape(values)))} .* "
                  f"labels {re.escape(str(np.shape(labels)))}")
        with pytest.raises(ContractError, match=shapes):
            Samples(values, labels)


class TestGenSynthetic:
    def test_row_counts(self, tmp_path):
        meta = DatasetMeta(T=96, D=1, num_classes=3, name="synth")
        gen_synthetic(tmp_path, meta, per_class=50, seed=0)
        with open(tmp_path / "train.csv") as fh:
            assert sum(1 for _ in fh) == 150

    def test_zero_noise_only_phase_differs(self, tmp_path):
        meta = DatasetMeta(T=32, D=1, num_classes=2, name="synth")
        corpus = gen_synthetic(tmp_path, meta, per_class=3, seed=0, sigma=0.0)
        class0 = corpus.train.values[corpus.train.labels == 0]
        # same class, different phase draw -> different but same amplitude range
        assert not np.array_equal(class0[0], class0[1])
        assert np.max(np.abs(class0)) <= 1.0 + 1e-6

    def test_nearest_centroid_oracle(self, tmp_path):
        meta = DatasetMeta(T=96, D=1, num_classes=3, name="synth")
        corpus = gen_synthetic(tmp_path, meta, per_class=50, seed=7, sigma=0.1)
        assert nearest_centroid_accuracy(corpus.train, corpus.test) >= 0.95

    def test_too_many_classes(self, tmp_path):
        meta = DatasetMeta(T=16, D=1, num_classes=9, name="synth")
        with pytest.raises(ConfigError):
            gen_synthetic(tmp_path, meta, per_class=2)


class TestMetaValidation:
    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            DatasetMeta(T=0, D=1, num_classes=2)
        with pytest.raises(ConfigError):
            DatasetMeta(T=4, D=1, num_classes=1)
