"""Checkpoint container tests: bitwise roundtrip, corruption detection,
and the checksum helper used for freeze verification."""

import struct

import numpy as np
import pytest

from trimodal.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    state_checksums,
)


@pytest.fixture
def sample_state(rng):
    return {
        "enc.weight": rng.standard_normal((4, 3)).astype(np.float32),
        "enc.bias": rng.standard_normal(3).astype(np.float32),
        "scalar": np.float32(2.5),
        "deep": rng.standard_normal((2, 3, 2, 2)).astype(np.float32),
    }


def test_roundtrip_is_bitwise(tmp_path, sample_state):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, sample_state, meta={"seed": 7, "stage": "gen"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"seed": 7, "stage": "gen"}
    assert set(loaded) == set(sample_state)
    for name, arr in sample_state.items():
        got = loaded[name]
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, np.asarray(arr, dtype=np.float32))
        assert got.tobytes() == np.ascontiguousarray(arr, dtype="<f4").tobytes()


def test_roundtrip_without_meta(tmp_path, sample_state):
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, sample_state)
    loaded, meta = load_checkpoint(path)
    assert meta is None
    assert set(loaded) == set(sample_state)


def test_save_is_deterministic(tmp_path, sample_state):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, sample_state, meta={"k": 1})
    save_checkpoint(p2, sample_state, meta={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path, sample_state):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, sample_state)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path, sample_state):
    path = tmp_path / "v.ckpt"
    save_checkpoint(path, sample_state)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncation_rejected(tmp_path, sample_state):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, sample_state)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_every_proper_prefix_is_rejected(tmp_path, rng):
    """A file cut anywhere, inside a header included, is a CheckpointError."""
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, {"wé": rng.standard_normal((2, 3)).astype(np.float32)},
                    meta={"seed": 7})
    blob = path.read_bytes()
    for n in range(len(blob)):
        path.write_bytes(blob[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path, sample_state):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, sample_state)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_state_checksums_detect_single_element_change(sample_state):
    before = state_checksums(sample_state)
    assert before == state_checksums({k: v.copy() for k, v in sample_state.items()})
    mutated = {k: np.array(v, copy=True) for k, v in sample_state.items()}
    mutated["enc.weight"].flat[0] += 1.0
    after = state_checksums(mutated)
    assert after != before
    assert after["enc.bias"] == before["enc.bias"]
    assert after["enc.weight"] != before["enc.weight"]


def test_state_checksums_detect_permutation(sample_state):
    # a permutation keeps every order-free statistic (sum, norm) unchanged
    before = state_checksums(sample_state)
    permuted = dict(sample_state, deep=sample_state["deep"][::-1].copy())
    after = state_checksums(permuted)
    assert after["deep"] != before["deep"]
    assert {k: v for k, v in after.items() if k != "deep"} == {
        k: v for k, v in before.items() if k != "deep"}


def test_corrupt_metadata_json_rejected(tmp_path, sample_state):
    path = tmp_path / "j.ckpt"
    save_checkpoint(path, sample_state, meta={"seed": 7})
    blob = path.read_bytes()
    assert blob.count(b'{"seed":7}') == 1
    path.write_bytes(blob.replace(b'{"seed":7}', b'{"seed":7]'))  # same length, not JSON
    with pytest.raises(CheckpointError, match="metadata"):
        load_checkpoint(path)


@pytest.mark.parametrize("tensors,meta,name", [
    ({"enc.weight": np.ones((2, 3), dtype=np.float32)}, None, "enc.weight"),
    ({}, {"seed": 7}, "__meta__"),
], ids=["tensor", "meta"])
def test_duplicate_entry_rejected(tmp_path, tensors, meta, name):
    """A file that names one entry twice would load its last copy silently."""
    path = tmp_path / "d.ckpt"
    save_checkpoint(path, tensors, meta=meta)
    blob = path.read_bytes()
    assert int.from_bytes(blob[8:12], "little") == 1
    entry = blob[12:]
    path.write_bytes(blob[:8] + (2).to_bytes(4, "little") + entry + entry)
    with pytest.raises(CheckpointError, match=f"duplicate entry '{name}'"):
        load_checkpoint(path)


def test_element_count_overflowing_int64_rejected(tmp_path):
    """Dims whose product is 2**64 wrapped to 0 elements in int64 arithmetic,
    and the loader then failed inside a reshape instead of naming the entry."""
    path = tmp_path / "o.ckpt"
    save_checkpoint(path, {"w": np.ones(1, dtype=np.float32)})
    blob = path.read_bytes()
    header = blob[:12] + blob[12:17]  # magic, version, count, then name "w"
    dims = struct.pack("<4I", 3, 2 ** 21, 2 ** 21, 2 ** 22)
    path.write_bytes(header + dims)
    with pytest.raises(CheckpointError, match="truncated payload for tensor 'w'"):
        load_checkpoint(path)
