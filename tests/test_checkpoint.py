"""MCAF checkpoint container: bitwise round-trip and strict parsing."""

import os
import struct
from collections import OrderedDict

import numpy as np
import pytest

from mca.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from mca.errors import DataParseError


def _tensors(rng):
    return OrderedDict(
        [
            ("alpha.w", rng.normal(size=(3, 4)).astype(np.float32)),
            ("alpha.b", rng.normal(size=(4,)).astype(np.float32)),
            ("beta", rng.normal(size=(2, 2, 2)).astype(np.float32)),
            ("scalar", np.float32(3.25).reshape(())),
        ]
    )


def test_round_trip_bitwise_and_ordered(tmp_path, rng):
    path = str(tmp_path / "x.mcaf")
    tensors = _tensors(rng)
    save_checkpoint(path, tensors, "epochs = 3\n", 17)
    back, cfg, step = load_checkpoint(path)
    assert cfg == "epochs = 3\n"
    assert step == 17
    assert list(back) == list(tensors)  # insertion order preserved
    for name in tensors:
        assert back[name].dtype == np.float32
        np.testing.assert_array_equal(back[name], tensors[name])


def test_save_load_save_is_byte_identical(tmp_path, rng):
    p1, p2 = str(tmp_path / "a.mcaf"), str(tmp_path / "b.mcaf")
    save_checkpoint(p1, _tensors(rng), "seed = 0\n", 5)
    tensors, cfg, step = load_checkpoint(p1)
    save_checkpoint(p2, tensors, cfg, step)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_on_disk_layout_parses_by_hand(tmp_path):
    path = str(tmp_path / "x.mcaf")
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    save_checkpoint(path, OrderedDict([("t", arr)]), "c", 9)
    buf = open(path, "rb").read()
    pos = 0
    assert buf[:4] == b"MCAF" and MAGIC == b"MCAF"
    pos += 4
    version, count = struct.unpack_from("<II", buf, pos)
    assert (version, count) == (VERSION, 1) and VERSION == 1
    pos += 8
    (name_len,) = struct.unpack_from("<H", buf, pos)
    pos += 2
    assert buf[pos:pos + name_len] == b"t"
    pos += name_len
    (rank,) = struct.unpack_from("<B", buf, pos)
    pos += 1
    dims = struct.unpack_from(f"<{rank}Q", buf, pos)
    assert dims == (2, 3)
    pos += 8 * rank
    payload = np.frombuffer(buf[pos:pos + 24], dtype="<f4")
    np.testing.assert_array_equal(payload, np.arange(6, dtype=np.float32))
    pos += 24
    (cfg_len,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    assert buf[pos:pos + cfg_len] == b"c"
    pos += cfg_len
    (step,) = struct.unpack_from("<Q", buf, pos)
    assert step == 9
    assert pos + 8 == len(buf)


def test_rank_zero_tensor(tmp_path):
    path = str(tmp_path / "s.mcaf")
    save_checkpoint(path, OrderedDict([("s", np.float32(2.5))]), "", 0)
    back, _, _ = load_checkpoint(path)
    assert back["s"].shape == ()
    assert back["s"] == np.float32(2.5)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.mcaf"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(DataParseError, match="magic"):
        load_checkpoint(str(path))


def test_unsupported_version(tmp_path):
    path = tmp_path / "v.mcaf"
    path.write_bytes(MAGIC + struct.pack("<II", 99, 0) + struct.pack("<I", 0) + struct.pack("<Q", 0))
    with pytest.raises(DataParseError, match="version"):
        load_checkpoint(str(path))


def test_truncation_detected(tmp_path, rng):
    path = str(tmp_path / "t.mcaf")
    save_checkpoint(path, _tensors(rng), "cfg", 1)
    buf = open(path, "rb").read()
    clipped = tmp_path / "clipped.mcaf"
    clipped.write_bytes(buf[:-3])
    with pytest.raises(DataParseError, match="truncated"):
        load_checkpoint(str(clipped))


def test_trailing_bytes_detected(tmp_path, rng):
    path = str(tmp_path / "t.mcaf")
    save_checkpoint(path, _tensors(rng), "cfg", 1)
    buf = open(path, "rb").read()
    padded = tmp_path / "padded.mcaf"
    padded.write_bytes(buf + b"xx")
    with pytest.raises(DataParseError, match="trailing"):
        load_checkpoint(str(padded))


def test_duplicate_names_detected(tmp_path):
    path = tmp_path / "d.mcaf"
    arr = np.zeros(1, dtype="<f4")
    entry = struct.pack("<H", 1) + b"t" + struct.pack("<B", 1) + struct.pack("<Q", 1) + arr.tobytes()
    path.write_bytes(
        MAGIC + struct.pack("<II", VERSION, 2) + entry + entry
        + struct.pack("<I", 0) + struct.pack("<Q", 0)
    )
    with pytest.raises(DataParseError, match="duplicate"):
        load_checkpoint(str(path))


def test_unicode_names_and_config(tmp_path):
    path = str(tmp_path / "u.mcaf")
    save_checkpoint(path, OrderedDict([("poids.é", np.zeros(2, np.float32))]),
                    "note = café\n", 2)
    back, cfg, _ = load_checkpoint(path)
    assert "poids.é" in back
    assert cfg == "note = café\n"


@pytest.mark.parametrize("part", ["name", "config"])
def test_invalid_utf8_is_a_parse_error_with_offset(tmp_path, part):
    path = tmp_path / "bad.mcaf"
    save_checkpoint(str(path), OrderedDict([("w", np.zeros(1, np.float32))]), "seed = 0", 0)
    buf = bytearray(path.read_bytes())
    offset = buf.index(b"w" if part == "name" else b"seed")
    buf[offset] = 0xFF
    path.write_bytes(bytes(buf))
    with pytest.raises(DataParseError, match=f"invalid UTF-8 at byte offset {offset}$"):
        load_checkpoint(str(path))


def test_failed_save_keeps_existing_checkpoint(tmp_path, rng, monkeypatch):
    path = str(tmp_path / "keep.mcaf")
    save_checkpoint(path, _tensors(rng), "epochs = 1\n", 4)
    before = open(path, "rb").read()

    def full_disk(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", full_disk)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, _tensors(rng), "epochs = 2\n", 8)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["keep.mcaf"]
