import numpy as np
import pytest

from cogent.augment import AugmentConfig, jitter, make_views_batch, time_mask
from cogent.errors import ConfigError

# The half-normal jitter mean and the time-mask count at T=1280 live in
# cogent.selfcheck (run by tests/test_selfcheck.py).


class TestJitter:
    def test_zero_amplitude_is_identity(self):
        rng = np.random.default_rng(0)
        x = np.arange(12, dtype=np.float32).reshape(4, 3)
        out = jitter(x, 0.0, rng)
        np.testing.assert_array_equal(out, x)

    def test_deterministic_under_seed(self):
        x = np.ones((8, 2), dtype=np.float32)
        a = jitter(x, 0.3, np.random.default_rng(42))
        b = jitter(x, 0.3, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_does_not_mutate_input(self):
        x = np.ones((8, 2), dtype=np.float32)
        before = x.copy()
        jitter(x, 0.5, np.random.default_rng(0))
        np.testing.assert_array_equal(x, before)


class TestTimeMask:
    def test_exact_count_long_series(self):
        x = np.ones((1280, 1), dtype=np.float32)
        out = time_mask(x, 0.5, np.random.default_rng(0))
        zero_rows = int(np.sum(np.all(out == 0.0, axis=1)))
        assert zero_rows == 640

    def test_zero_fraction_is_identity(self):
        x = np.random.default_rng(0).normal(size=(16, 2)).astype(np.float32)
        out = time_mask(x, 0.0, np.random.default_rng(1))
        np.testing.assert_array_equal(out, x)

    def test_quarter_mask_counting(self):
        x = np.ones((8, 3), dtype=np.float32)
        out = time_mask(x, 0.25, np.random.default_rng(2))
        ones_rows = int(np.sum(np.all(out == 1.0, axis=1)))
        assert ones_rows == 6

    def test_exact_count_for_many_lengths(self):
        rng = np.random.default_rng(3)
        for T in (1, 2, 3, 7, 10, 33, 100):
            x = np.ones((T, 2), dtype=np.float32)
            out = time_mask(x, 0.4, rng)
            zero_rows = int(np.sum(np.all(out == 0.0, axis=1)))
            assert zero_rows == round(0.4 * T)

    def test_whole_rows_zeroed_across_channels(self):
        x = np.ones((10, 4), dtype=np.float32)
        out = time_mask(x, 0.5, np.random.default_rng(4))
        # each row is either fully zero or untouched
        for row in out:
            assert np.all(row == 0.0) or np.all(row == 1.0)

    def test_does_not_mutate_input(self):
        x = np.ones((10, 2), dtype=np.float32)
        before = x.copy()
        time_mask(x, 0.5, np.random.default_rng(5))
        np.testing.assert_array_equal(x, before)


class TestMakeView:
    def test_jitter_zero_eps_equals_original(self):
        values = np.ones((1, 6, 1), np.float32)
        cfg = AugmentConfig(kind="jitter", epsilon=0.0)
        view = make_views_batch(values, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(view, values)

    def test_time_mask_dispatch(self):
        values = np.ones((1, 8, 2), np.float32)
        cfg = AugmentConfig(kind="time_mask", mask_fraction=0.5)
        view = make_views_batch(values, cfg, np.random.default_rng(0))[0]
        zero_rows = int(np.sum(np.all(view == 0.0, axis=1)))
        assert zero_rows == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            AugmentConfig(kind="warp")

    def test_independent_rng_states_differ(self):
        values = np.zeros((1, 20, 1), np.float32)
        cfg = AugmentConfig(kind="jitter", epsilon=0.1)
        a = make_views_batch(values, cfg, np.random.default_rng(1))
        b = make_views_batch(values, cfg, np.random.default_rng(2))
        assert np.any(a != b)

    @pytest.mark.parametrize("kind", ["jitter", "time_mask"])
    def test_batch_equals_per_sample_views(self, kind):
        # same bits, and the stream is left where per-sample draws leave it
        values = np.random.default_rng(5).normal(size=(4, 12, 3)).astype(np.float32)
        cfg = AugmentConfig(kind=kind, epsilon=0.1, mask_fraction=0.25)
        rng_batch, rng_each = np.random.default_rng(6), np.random.default_rng(6)
        out = make_views_batch(values, cfg, rng_batch)
        if kind == "jitter":
            expect = np.stack([jitter(v, 0.1, rng_each) for v in values])
        else:
            expect = np.stack([time_mask(v, 0.25, rng_each) for v in values])
        assert out.dtype == expect.dtype
        np.testing.assert_array_equal(out, expect)
        assert rng_batch.standard_normal() == rng_each.standard_normal()

    def test_batch_helper_shape(self):
        values = np.zeros((3, 8, 2), dtype=np.float32)
        cfg = AugmentConfig(kind="jitter", epsilon=0.1)
        out = make_views_batch(values, cfg, np.random.default_rng(0))
        assert out.shape == values.shape
