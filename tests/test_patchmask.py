import numpy as np
import pytest

from cogent.errors import ConfigError
from cogent.patchmask import PatchConfig, batch_patchify_mask, patchify, sample_mask


def patchify_mask(values, cfg, seed=0):
    return batch_patchify_mask(values, cfg, np.random.default_rng(seed))


class TestPatchify:
    def test_reference_patch_count(self):
        cfg = PatchConfig(L=64, theta=0.75)
        tokens, idx, masks, _ = patchify_mask(np.zeros((1, 1280, 1), np.float32), cfg)
        assert masks.shape == (1, 20)
        assert tokens.shape == (1, 5, 64) and idx.shape == (1, 5)

    def test_floor_division_drops_tail(self):
        cfg = PatchConfig(L=64, theta=0.0)
        x = np.arange(100, dtype=np.float32).reshape(1, 100, 1)
        tokens, *_ = patchify_mask(x, cfg)
        assert tokens.shape == (1, 1, 64)
        assert tokens[0, 0, -1] == 63.0  # rows 64..99 dropped

    def test_round_trip_when_divisible(self):
        cfg = PatchConfig(L=4, theta=0.0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 16, 3)).astype(np.float32)
        tokens, *_ = patchify_mask(x, cfg)
        np.testing.assert_array_equal(tokens.reshape(16, 3), x[0])

    def test_patch_longer_than_series(self):
        cfg = PatchConfig(L=32, theta=0.0)
        with pytest.raises(ConfigError):
            patchify_mask(np.zeros((1, 16, 1), dtype=np.float32), cfg)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestTokenLayout:
    """`patchify` is the theta = 0 layout; a masked view is built from it."""

    CFG = PatchConfig(L=4, theta=0.5)

    @staticmethod
    def values(dtype):
        # T = 14: N = 3 patches, the last 2 rows dropped
        return np.random.default_rng(5).normal(size=(3, 14, 2)).astype(dtype)

    def test_patchify_is_time_major_and_drops_the_tail(self, dtype):
        values = self.values(dtype)
        patches, idx = patchify(values, self.CFG)
        assert patches.shape == (3, 3, 8) and patches.dtype == dtype
        for b in range(3):
            for n in range(3):
                # L consecutive time steps, each over all D channels
                expect = values[b, 4 * n : 4 * n + 4].reshape(-1)
                np.testing.assert_array_equal(patches[b, n], expect)
        np.testing.assert_array_equal(idx, np.tile(np.arange(3), (3, 1)))
        assert idx.dtype == np.int64

    @pytest.mark.parametrize("keep_zeroed", [False, True])
    def test_view_carries_patchify_patches(self, dtype, keep_zeroed):
        values = self.values(dtype)
        *_, patches = batch_patchify_mask(
            values, self.CFG, np.random.default_rng(9), keep_zeroed
        )
        assert patches.dtype == dtype
        np.testing.assert_array_equal(patches, patchify(values, self.CFG)[0])

    def test_visible_tokens_are_the_patches_at_token_idx(self, dtype):
        tokens, idx, masks, patches = batch_patchify_mask(
            self.values(dtype), self.CFG, np.random.default_rng(9)
        )
        assert tokens.dtype == dtype and idx.shape == (3, 1)  # round(1.5) = 2 hidden
        np.testing.assert_array_equal(
            tokens, np.take_along_axis(patches, idx[:, :, None], axis=1)
        )
        assert np.all(np.take_along_axis(masks, idx, axis=1) == 1)

    def test_keep_zeroed_tokens_are_the_masked_patches(self, dtype):
        tokens, idx, masks, patches = batch_patchify_mask(
            self.values(dtype), self.CFG, np.random.default_rng(9), keep_zeroed=True
        )
        assert tokens.dtype == dtype
        np.testing.assert_array_equal(tokens, patches * masks[:, :, None])
        np.testing.assert_array_equal(idx, np.tile(np.arange(3), (3, 1)))


class TestSampleMask:
    def test_reference_visible_count(self):
        m = sample_mask(20, 0.75, np.random.default_rng(0))
        assert int(m.sum()) == 5

    def test_zero_theta_all_visible(self):
        m = sample_mask(6, 0.0, np.random.default_rng(0))
        assert int(m.sum()) == 6

    def test_small_n(self):
        m = sample_mask(4, 0.75, np.random.default_rng(0))
        assert int(m.sum()) == 1

    def test_count_identity(self):
        rng = np.random.default_rng(2)
        for n in (1, 3, 7, 20, 33):
            for theta in (0.0, 0.25, 0.5, 0.75):
                if n - round(theta * n) < 1:
                    continue
                m = sample_mask(n, theta, rng)
                assert int(m.sum()) + round(theta * n) == n

    def test_no_visible_patch_rejected(self):
        with pytest.raises(ConfigError):
            sample_mask(1, 0.75, np.random.default_rng(0))  # round(0.75)=1 -> 0 left


class TestApplyMask:
    def test_all_ones_mask(self):
        values = np.zeros((2, 8, 1), dtype=np.float32)
        _, idx, masks, _ = patchify_mask(values, PatchConfig(L=2, theta=0.0))
        np.testing.assert_array_equal(masks, np.ones((2, 4)))
        np.testing.assert_array_equal(idx, [[0, 1, 2, 3], [0, 1, 2, 3]])

    def test_gather_order(self):
        values = np.zeros((8, 8, 1), dtype=np.float32)
        _, idx, masks, _ = patchify_mask(values, PatchConfig(L=2, theta=0.5))
        for b in range(8):
            np.testing.assert_array_equal(idx[b], np.flatnonzero(masks[b]))

    def test_masked_patches_excluded_from_encoder_input(self):
        # patch n holds the values 2n and 2n+1
        values = np.arange(8, dtype=np.float32).reshape(1, 8, 1)
        tokens, idx, masks, _ = patchify_mask(values, PatchConfig(L=2, theta=0.5))
        hidden = np.flatnonzero(masks[0] == 0)
        assert len(hidden) == 2
        hidden_values = np.concatenate([2 * hidden, 2 * hidden + 1])
        assert not np.isin(tokens, hidden_values).any()
        visible_values = np.stack([2 * idx[0], 2 * idx[0] + 1], axis=1)
        np.testing.assert_array_equal(tokens[0], visible_values)

    def test_visible_idx_strictly_increasing(self):
        values = np.zeros((50, 24, 1), dtype=np.float32)
        _, idx, *_ = patchify_mask(values, PatchConfig(L=2, theta=0.5), seed=3)
        assert np.all(np.diff(idx, axis=1) > 0)


class TestBatchHelpers:
    def test_batch_shapes(self):
        cfg = PatchConfig(L=4, theta=0.5)
        values = np.random.default_rng(0).normal(size=(3, 16, 2)).astype(np.float32)
        tokens, idx, masks, _ = batch_patchify_mask(
            values, cfg, np.random.default_rng(1)
        )
        assert tokens.shape == (3, 2, 8)  # N=4, V=2, L*D=8
        assert idx.shape == (3, 2)
        assert masks.shape == (3, 4)

    def test_keep_zeroed_form(self):
        cfg = PatchConfig(L=4, theta=0.5)
        values = np.ones((2, 16, 1), dtype=np.float32)
        tokens, idx, masks, _ = batch_patchify_mask(
            values, cfg, np.random.default_rng(1), keep_zeroed=True
        )
        assert tokens.shape == (2, 4, 4)
        for b in range(2):
            for n in range(4):
                if masks[b, n]:
                    assert np.all(tokens[b, n] == 1.0)
                else:
                    assert np.all(tokens[b, n] == 0.0)

    def test_tokens_match_per_sample_path(self):
        cfg = PatchConfig(L=4, theta=0.5)
        rng_values = np.random.default_rng(5)
        values = rng_values.normal(size=(2, 14, 2)).astype(np.float32)
        tokens, idx, masks, _ = batch_patchify_mask(
            values, cfg, np.random.default_rng(9)
        )
        for b in range(2):
            patches = values[b, :12].reshape(3, 8)  # rows 12..13 dropped
            np.testing.assert_array_equal(tokens[b], patches[masks[b] == 1])
            np.testing.assert_array_equal(idx[b], np.flatnonzero(masks[b]))
