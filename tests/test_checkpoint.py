import hashlib
import json
import os
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cogent.checkpoint import (
    MAGIC,
    Checkpoint,
    arch_digest,
    load_checkpoint,
    save_checkpoint,
)
from cogent.errors import ConfigError


def sample_checkpoint():
    rng = np.random.default_rng(0)
    params = {
        "patch_proj.w": rng.normal(size=(4, 8)).astype(np.float32),
        "patch_proj.b": np.zeros(8, dtype=np.float32),
        "cls_token": rng.normal(size=(1, 8)).astype(np.float32),
    }
    config = {
        "data.T": 16,
        "data.D": 1,
        "data.num_classes": 2,
        "patch.L": 4,
        "patch.theta": 0.75,
        "model.d_model": 8,
        "model.n_blocks": 2,
        "model.n_heads": 2,
        "model.mlp_ratio": 4,
        "model.classifier_hidden_ratio": 0.1,
        "seed": 7,
    }
    return Checkpoint(
        config=config,
        params=params,
        epoch=12,
        norm_mean=[0.25],
        norm_std=[1.5],
    )


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt = sample_checkpoint()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fields_survive(self, tmp_path):
        ckpt = sample_checkpoint()
        save_checkpoint(ckpt, tmp_path / "c.ckpt")
        loaded = load_checkpoint(tmp_path / "c.ckpt")
        assert loaded.epoch == 12
        assert loaded.norm_mean == [0.25]
        assert list(loaded.params) == list(ckpt.params)  # order preserved
        for k in ckpt.params:
            np.testing.assert_array_equal(loaded.params[k], ckpt.params[k])

    def test_file_is_header_manifest_and_parameters_only(self, tmp_path):
        # no optimizer state: the payload is exactly the parameter bytes
        ckpt = sample_checkpoint()
        save_checkpoint(ckpt, tmp_path / "d.ckpt")
        raw = (tmp_path / "d.ckpt").read_bytes()
        (mlen,) = struct.unpack("<Q", raw[8:16])
        manifest = json.loads(raw[16 : 16 + mlen])
        assert sorted(manifest) == [
            "config", "config_digest", "epoch", "norm_mean", "norm_std", "params",
            "payload_crc32",
        ]
        payload = sum(arr.size * 4 for arr in ckpt.params.values())
        assert len(raw) == 16 + mlen + payload

    def test_stage_read_off_tensor_set(self):
        ckpt = sample_checkpoint()
        assert not ckpt.finetuned
        ckpt.params["clf.fc2.b"] = np.zeros(2, np.float32)
        assert ckpt.finetuned

    def test_magic_bytes_lead_the_file(self, tmp_path):
        save_checkpoint(sample_checkpoint(), tmp_path / "e.ckpt")
        assert (tmp_path / "e.ckpt").read_bytes()[:8] == MAGIC

    def test_payload_is_little_endian_float32_of_any_input_layout(self, tmp_path):
        # a transposed float64 array is converted, not written as it lies
        ckpt = sample_checkpoint()
        w = np.random.default_rng(1).normal(size=(8, 4)).T
        ckpt.params["patch_proj.w"] = w
        save_checkpoint(ckpt, tmp_path / "f.ckpt")
        raw = (tmp_path / "f.ckpt").read_bytes()
        payload = b"".join(
            np.asarray(a, dtype="<f4").tobytes() for a in ckpt.params.values()
        )
        assert raw.endswith(payload)

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "g.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        before = path.read_bytes()
        broken = sample_checkpoint()
        # converting the last array fails, before the checksum is known
        broken.params["cls_token"] = np.array([["not a number"] * 8])
        with pytest.raises(ValueError):
            save_checkpoint(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["g.ckpt"]

    def test_failed_rename_removes_the_written_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "g.ckpt"
        save_checkpoint(sample_checkpoint(), path)
        before = path.read_bytes()

        def replace(src, dst):
            assert Path(src).stat().st_size == len(before)  # written in full
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="rename refused"):
            save_checkpoint(sample_checkpoint(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["g.ckpt"]

    def test_overwrite_leaves_only_the_checkpoint(self, tmp_path):
        path = tmp_path / "h.ckpt"
        first, second = sample_checkpoint(), sample_checkpoint()
        second.epoch = 13
        save_checkpoint(first, path)
        save_checkpoint(second, path)
        assert load_checkpoint(path).epoch == 13
        assert [p.name for p in tmp_path.iterdir()] == ["h.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ConfigError, match="magic"):
            load_checkpoint(bad)


def _saved(tmp_path):
    path = tmp_path / "good.ckpt"
    save_checkpoint(sample_checkpoint(), path)
    return path, path.read_bytes()


def _rewritten(tmp_path, edit):
    """The saved sample checkpoint with its manifest edited by `edit`."""
    path, raw = _saved(tmp_path)
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16 : 16 + mlen])
    edit(manifest)
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + raw[16 + mlen :])
    return path


class TestBadInput:
    def test_truncated_payload(self, tmp_path):
        path, raw = _saved(tmp_path)
        path.write_bytes(raw[:-5])
        with pytest.raises(ConfigError, match=r"good\.ckpt: payload is"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path, raw = _saved(tmp_path)
        path.write_bytes(raw + b"\x00" * 4)
        with pytest.raises(ConfigError, match="payload is"):
            load_checkpoint(path)

    def test_truncated_manifest(self, tmp_path):
        path, raw = _saved(tmp_path)
        path.write_bytes(raw[:40])
        with pytest.raises(ConfigError, match=r"good\.ckpt: truncated"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path, raw = _saved(tmp_path)
        path.write_bytes(raw[:12])
        with pytest.raises(ConfigError, match="truncated"):
            load_checkpoint(path)

    def test_undecodable_manifest_byte(self, tmp_path):
        path, raw = _saved(tmp_path)
        corrupt = bytearray(raw)
        corrupt[20] = 0xFF  # not valid UTF-8
        path.write_bytes(bytes(corrupt))
        with pytest.raises(ConfigError, match=r"good\.ckpt: invalid checkpoint"):
            load_checkpoint(path)

    def test_invalid_json_manifest(self, tmp_path):
        path, raw = _saved(tmp_path)
        corrupt = bytearray(raw)
        corrupt[16] = ord("[")  # the manifest no longer parses
        path.write_bytes(bytes(corrupt))
        with pytest.raises(ConfigError, match="invalid checkpoint manifest"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.pop("params"),
            lambda m: m["params"][0].update(shape="4x8"),
            lambda m: m["params"][1].update(offset=0),
            lambda m: m.update(config=[]),
            lambda m: m.pop("config_digest"),
        ],
        ids=[
            "missing-key", "bad-shape", "bad-offset", "config-not-object",
            "missing-digest",
        ],
    )
    def test_invalid_manifest_fields(self, tmp_path, edit):
        path = _rewritten(tmp_path, edit)
        with pytest.raises(ConfigError, match="invalid checkpoint manifest"):
            load_checkpoint(path)

    def test_payload_cut_while_read(self, tmp_path, monkeypatch):
        # the file loses 4 payload bytes after its size was taken, so the
        # length check passes and the read comes up short
        path, raw = _saved(tmp_path)
        path.write_bytes(raw[:-4])
        real_fstat, inode = os.fstat, path.stat().st_ino

        def fstat(fd):
            st = real_fstat(fd)
            return SimpleNamespace(st_size=len(raw)) if st.st_ino == inode else st

        monkeypatch.setattr(os, "fstat", fstat)
        with pytest.raises(
            ConfigError, match=r"good\.ckpt: payload changed while it was read"
        ):
            load_checkpoint(path)

    @pytest.mark.parametrize("index", [-1, -13])
    def test_flipped_payload_byte(self, tmp_path, index):
        # one bit of a parameter changes; the lengths and manifest still fit
        path, raw = _saved(tmp_path)
        corrupt = bytearray(raw)
        corrupt[index] ^= 0x01
        path.write_bytes(bytes(corrupt))
        with pytest.raises(
            ConfigError, match=r"good\.ckpt: payload does not match its crc32"
        ):
            load_checkpoint(path)

    def test_older_format_named(self, tmp_path):
        path, raw = _saved(tmp_path)
        path.write_bytes(b"COGENT01" + raw[8:])
        with pytest.raises(ConfigError, match="older COGENT01 format; re-create"):
            load_checkpoint(path)


class TestDigest:
    def test_digest_ignores_non_arch_keys(self):
        ckpt = sample_checkpoint()
        other = dict(ckpt.config)
        other["seed"] = 999
        other["patch.theta"] = 0.0  # masking ratio is stage-specific
        assert arch_digest(other) == ckpt.digest

    def test_digest_tracks_arch_keys(self):
        ckpt = sample_checkpoint()
        other = dict(ckpt.config)
        other["model.d_model"] = 16
        assert arch_digest(other) != ckpt.digest


class TestStoredDigest:
    """`load_checkpoint` checks the stored `config_digest` against the
    stored config."""

    # sha256 of the file the sample checkpoint was saved as when the format
    # stored the digest without reading it, and still stored the loss weights
    SAMPLE_FILE_SHA256 = (
        "24341c60ae8f33e61a10c86e13d18c597080f4311b43726282fc45e284f4aac3"
    )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["config"].update({"model.d_model": 16}),
            lambda m: m.update(config_digest="0" * 64),
        ],
        ids=["arch-key-with-the-old-digest", "digest"],
    )
    def test_edited_manifest_rejected(self, tmp_path, edit):
        path = _rewritten(tmp_path, edit)
        with pytest.raises(ConfigError, match=r"good\.ckpt: .*config_digest"):
            load_checkpoint(path)

    def test_non_arch_edit_keeps_the_digest(self, tmp_path):
        path = _rewritten(tmp_path, lambda m: m["config"].update(seed=99))
        assert load_checkpoint(path).config["seed"] == 99

    def test_earlier_files_still_load(self, tmp_path):
        # the bytes are those the format wrote before the digest had a reader,
        # with the loss weights that manifests no longer store and without
        # the payload checksum; loading ignores the weights and checks no
        # checksum, and saving again writes today's bytes
        def earlier(manifest):
            manifest.update(lambda_c=1.0, lambda_r=0.0171875)
            del manifest["payload_crc32"]

        path = _rewritten(tmp_path, earlier)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SAMPLE_FILE_SHA256
        loaded = load_checkpoint(path)
        assert loaded.config == sample_checkpoint().config
        save_checkpoint(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == _saved(tmp_path)[1]
