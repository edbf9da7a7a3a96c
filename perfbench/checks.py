"""Correctness checks on what `mca train`, `mca eval` and `mca dump-masks` wrote.

Every check reads the program's files with its own readers and recomputes
what it compares in plain numpy, or tests a property the method must have.
None compares against a stored copy of an earlier output.  Each function
returns a list of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

# Six-decimal CSV cells are within half a unit in the last place of the
# value they print.
CSV_HALF_ULP = 5e-7
# Slack for comparing two independently rounded decimal values.
ROUNDING_SLACK = 1e-9


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def read_pgm(path: str) -> np.ndarray:
    """Binary P5 with maxval 255, as written by the program: [H, W] uint8."""
    with open(path, "rb") as f:
        buf = f.read()
    parts = buf.split(maxsplit=4)
    if len(parts) < 5 or parts[0] != b"P5" or parts[3] != b"255":
        raise ValueError(f"{path}: not a P5 file with maxval 255")
    w, h = int(parts[1]), int(parts[2])
    payload = buf[len(buf) - w * h:]
    header = buf[:len(buf) - w * h]
    if header.split() != parts[:4] or len(payload) != w * h:
        raise ValueError(f"{path}: payload is not {w}x{h} bytes")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def read_mask(path: str) -> np.ndarray:
    """A {0, 255} PGM mask as a boolean array; other levels are rejected."""
    raw = read_pgm(path)
    if not np.all((raw == 0) | (raw == 255)):
        raise ValueError(f"{path}: mask levels other than 0 and 255")
    return raw == 255


def read_checkpoint(path: str) -> Tuple[Dict[str, np.ndarray], str, int]:
    """Parse an MCAF checkpoint: (tensors, config text, step counter)."""
    with open(path, "rb") as f:
        buf = f.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(buf):
            raise ValueError(f"{path}: truncated at byte {pos}")
        out = buf[pos:pos + n]
        pos += n
        return out

    if take(4) != b"MCAF":
        raise ValueError(f"{path}: bad magic")
    version, count = struct.unpack("<II", take(8))
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    tensors: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("<B", take(1))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank))
        n = int(np.prod(dims, dtype=np.int64)) if rank else 1
        tensors[name] = np.frombuffer(take(4 * n), dtype="<f4").reshape(dims)
    (cfg_len,) = struct.unpack("<I", take(4))
    config_text = take(cfg_len).decode("utf-8")
    (step,) = struct.unpack("<Q", take(8))
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} trailing bytes")
    return tensors, config_text, step


def read_manifest(data_root: str, split: str) -> List[str]:
    with open(os.path.join(data_root, split, "manifest.txt"), encoding="ascii") as f:
        return [line.strip() for line in f if line.strip()]


def read_csv_rows(text: str) -> Tuple[List[str], List[List[str]]]:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# independent metric arithmetic
# ---------------------------------------------------------------------------

def dice_iou_ber(pred: np.ndarray, gt: np.ndarray) -> Tuple[float, float, float]:
    """Dice, IoU and balanced error rate (percent) of two boolean masks."""
    tp = int(np.sum(pred & gt))
    fp = int(np.sum(pred & ~gt))
    fn = int(np.sum(~pred & gt))
    tn = int(np.sum(~pred & ~gt))
    if tp + fp + fn == 0:
        dice = iou = 1.0
    else:
        dice = 2.0 * tp / (2 * tp + fp + fn)
        iou = tp / (tp + fp + fn)
    ber = 100.0 * (1.0 - 0.5 * (tp / (tp + fn) + tn / (tn + fp)))
    return dice, iou, ber


# ---------------------------------------------------------------------------
# `mca eval` output
# ---------------------------------------------------------------------------

EVAL_HEADER = ["image", "mae", "s_measure", "e_measure", "ber", "dice", "iou"]


def check_eval_csv(text: str, manifest: Sequence[str]) -> List[str]:
    """Row-wise properties of a metrics CSV and its MEAN row."""
    header, rows = read_csv_rows(text)
    if header != EVAL_HEADER:
        return [f"eval CSV header {header}"]
    if not rows or rows[-1][0] != "MEAN":
        return ["eval CSV has no final MEAN row"]
    body, mean = rows[:-1], rows[-1]
    errors = []
    ids = [r[0] for r in body]
    if ids != list(manifest):
        errors.append(f"eval CSV has {len(ids)} rows, not one per manifest id in order")
    values = np.array([[float(v) for v in r[1:]] for r in body])
    if not np.all(np.isfinite(values)):
        errors.append("eval CSV holds a non-finite value")
        return errors
    col = {name: values[:, i] for i, name in enumerate(EVAL_HEADER[1:])}
    for name in ("mae", "s_measure", "e_measure", "dice", "iou"):
        if np.any((col[name] < 0) | (col[name] > 1)):
            errors.append(f"eval CSV {name} outside [0, 1]")
    if np.any((col["ber"] < 0) | (col["ber"] > 100)):
        errors.append("eval CSV ber outside [0, 100]")
    # d(2i/(1+i))/di <= 2, so rounding IoU moves the identity by <= 2 half-ulps.
    implied = 2.0 * col["iou"] / (1.0 + col["iou"])
    worst = float(np.max(np.abs(implied - col["dice"])))
    if worst > 3 * CSV_HALF_ULP + ROUNDING_SLACK:
        errors.append(f"Dice != 2 IoU/(1+IoU) by {worst:.2e}")
    means = np.array([float(v) for v in mean[1:]])
    worst = float(np.max(np.abs(values.mean(axis=0) - means)))
    if worst > 2 * CSV_HALF_ULP + ROUNDING_SLACK:
        errors.append(f"MEAN row differs from the mean of the rows by {worst:.2e}")
    return errors


def check_eval_against_masks(text: str, data_root: str, split: str,
                             mask_dir: str) -> List[str]:
    """Dice, IoU and BER per row equal a recount from the dumped masks."""
    _, rows = read_csv_rows(text)
    errors = []
    for row in rows[:-1]:
        sid = row[0]
        pred = read_mask(os.path.join(mask_dir, f"{sid}.pgm"))
        gt = read_mask(os.path.join(data_root, split, "masks", f"{sid}.pgm"))
        dice, iou, ber = dice_iou_ber(pred, gt)
        for name, mine, cell in (("dice", dice, row[5]), ("iou", iou, row[6]),
                                 ("ber", ber, row[4])):
            if abs(mine - float(cell)) > CSV_HALF_ULP + ROUNDING_SLACK:
                errors.append(f"{sid}: {name} {cell} in CSV, {mine:.8f} from masks")
    return errors


# ---------------------------------------------------------------------------
# `mca train` output
# ---------------------------------------------------------------------------

LOG_HEADER = ["epoch", "lr", "bce", "iou_loss", "cl_t", "cl_s", "total", "train_dice"]


def read_train_log(path: str) -> np.ndarray:
    with open(path, encoding="ascii") as f:
        header, rows = read_csv_rows(f.read())
    if header != LOG_HEADER:
        raise ValueError(f"{path}: header {header}")
    return np.array([[float(v) for v in r] for r in rows]).reshape(-1, len(LOG_HEADER))


def check_train_log(log: np.ndarray, epochs: int) -> List[str]:
    errors = []
    if log.shape[0] != epochs or not np.array_equal(log[:, 0], np.arange(epochs)):
        errors.append(f"train log has epochs {log[:, 0].tolist()}, expected 0..{epochs - 1}")
    if not np.all(np.isfinite(log)):
        errors.append("train log holds a non-finite value")
    elif log.shape[0] >= 2:
        first, last = log[0, 2] + log[0, 3], log[-1, 2] + log[-1, 3]
        if not last < first:
            errors.append(f"mask loss bce+iou_loss did not fall: {first:.4f} -> {last:.4f}")
    return errors


def expected_tunable(name: str, variant: str) -> bool:
    """Which tensors a variant trains: the decoder always, token adaptors
    with adaptors on, sample adaptors with the sample-level loss."""
    if name.startswith("decoder."):
        return True
    if ".tc." in name:
        return variant != "decoder_only"
    if ".sc." in name:
        return variant in ("sc_only", "mca")
    return False


def check_checkpoint(tensors: Dict[str, np.ndarray], step: int, expected_step: int,
                     variant: str, fresh: Dict[str, np.ndarray]) -> List[str]:
    """Step counter, optimizer state on exactly the tunable tensors, frozen
    tensors bitwise at their init, and a trained decoder."""
    errors = []
    if step != expected_step:
        errors.append(f"checkpoint step {step}, expected {expected_step}")
    weights = {k: v for k, v in tensors.items() if not k.startswith("opt.")}
    if set(weights) != set(fresh):
        errors.append("checkpoint tensor names differ from a fresh model's")
        return errors
    for name, arr in weights.items():
        tunable = expected_tunable(name, variant)
        if (f"opt.{name}.m" in tensors) != tunable:
            errors.append(f"{name}: optimizer state present={not tunable}, tunable={tunable}")
        frozen_ok = arr.shape == fresh[name].shape and arr.tobytes() == fresh[name].tobytes()
        if not tunable and not frozen_ok:
            errors.append(f"frozen tensor {name} differs from its init")
    if not np.any(weights.get("decoder.w", np.zeros(1))):
        errors.append("decoder.w is still zero")
    return errors


def mean_dice_from_masks(data_root: str, split: str, mask_dir: str) -> float:
    scores = []
    for sid in read_manifest(data_root, split):
        pred = read_mask(os.path.join(mask_dir, f"{sid}.pgm"))
        gt = read_mask(os.path.join(data_root, split, "masks", f"{sid}.pgm"))
        scores.append(dice_iou_ber(pred, gt)[0])
    return float(np.mean(scores))


def check_train_dice(logged: float, recomputed: float) -> List[str]:
    # The log prints 8 significant digits of a value in [0, 1].
    if not math.isfinite(logged) or abs(logged - recomputed) > 1e-8 + ROUNDING_SLACK:
        return [f"last train_dice {logged!r} in log, {recomputed:.8f} from dumped masks"]
    return []


def check_identical(blobs: Sequence[bytes], what: str) -> List[str]:
    if any(b != blobs[0] for b in blobs[1:]):
        return [f"{what} differ between repetitions of one run"]
    return []
