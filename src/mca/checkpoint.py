"""Binary checkpoint format.

Layout (all integers little-endian):
  magic 'MCAF', u32 version = 1, u32 tensor count,
  per tensor: u16 name length, name bytes (utf-8), u8 rank, u64 dims...,
              payload as little-endian float32, row-major,
  u32 config text length, config text bytes (utf-8),
  u64 step counter.

load(save(x)) reproduces every tensor bitwise and the config text exactly.
A save replaces the file atomically: a reader sees the old checkpoint or
the new one, never a partial write.
"""

from __future__ import annotations

import os
import struct
from collections import OrderedDict
from typing import Tuple

import numpy as np

from .errors import ContractError, DataParseError

MAGIC = b"MCAF"
VERSION = 1


def save_checkpoint(path: str, tensors: "OrderedDict[str, np.ndarray]",
                    config_text: str, step: int) -> None:
    chunks = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, arr in tensors.items():
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise ContractError(f"tensor name too long: {name!r}")
        arr = np.asarray(arr)
        if arr.ndim > 0xFF:
            raise ContractError(f"tensor rank too large: {arr.ndim}")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    cfg_bytes = config_text.encode("utf-8")
    chunks.append(struct.pack("<I", len(cfg_bytes)))
    chunks.append(cfg_bytes)
    chunks.append(struct.pack("<Q", int(step)))
    _write_atomic(path, b"".join(chunks))


def _write_atomic(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` whole or not at all.

    The bytes go to a temporary file in the same directory, are flushed and
    fsynced, and only then renamed over the target, so a failed or
    interrupted write leaves any existing file untouched.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


class _Reader:
    def __init__(self, buf: bytes, path: str):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise DataParseError(
                f"{self.path}: truncated checkpoint at byte offset {self.pos} "
                f"(wanted {n} more bytes)"
            )
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        start = self.pos
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataParseError(
                f"{self.path}: invalid UTF-8 at byte offset {start + exc.start}"
            ) from exc


def load_checkpoint(path: str) -> Tuple["OrderedDict[str, np.ndarray]", str, int]:
    with open(path, "rb") as f:
        buf = f.read()
    r = _Reader(buf, path)
    if r.take(len(MAGIC)) != MAGIC:
        raise DataParseError(f"{path}: bad magic (not an MCAF checkpoint)")
    version, count = r.unpack("<II")
    if version != VERSION:
        raise DataParseError(f"{path}: unsupported checkpoint version {version}")
    tensors: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.text(name_len)
        (rank,) = r.unpack("<B")
        dims = r.unpack(f"<{rank}Q") if rank else ()
        n_elems = 1
        for d in dims:
            n_elems *= d
        payload = r.take(4 * n_elems)
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        if name in tensors:
            raise DataParseError(f"{path}: duplicate tensor name {name!r}")
        tensors[name] = arr
    (cfg_len,) = r.unpack("<I")
    config_text = r.text(cfg_len)
    (step,) = r.unpack("<Q")
    if r.pos != len(buf):
        raise DataParseError(
            f"{path}: {len(buf) - r.pos} trailing bytes at offset {r.pos}"
        )
    return tensors, config_text, step
