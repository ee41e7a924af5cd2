"""Tensor file format, the one bundle writer and the bundle tensor reader.

Layout: magic ``DCST``, version byte 0x01, rank byte, little-endian uint32
dims, then little-endian float32 data in row-major order. Values live as
float64 in memory and round-trip through 32 bits on disk.
"""
from __future__ import annotations

import struct
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import IoError
from .tensor import Tensor, is_binary
from .util import atomic_write_bytes, atomic_write_text

MAGIC = b"DCST"
VERSION = 1

# Refuse absurd headers before allocating.
_MAX_ELEMENTS = 1 << 28


def tensor_bytes(t: Tensor) -> bytes:
    dims = t.shape
    if len(dims) > 255:
        raise IoError(f"rank {len(dims)} exceeds the format limit of 255")
    if any(d >= 1 << 32 for d in dims):
        raise IoError(f"dimension too large for uint32: {dims}")
    with np.errstate(over="ignore"):
        payload = t.data.astype("<f4")
    if not np.isfinite(payload).all():
        # a value beyond float32's range would be written as inf, and the
        # reader refuses non-finite data: the file could never be loaded
        raise IoError(f"tensor of shape {dims} has values beyond the float32 range")
    header = MAGIC + bytes([VERSION, len(dims)]) + struct.pack(f"<{len(dims)}I", *dims)
    return header + payload.tobytes(order="C")


def write_tensor(path: str | Path, t: Tensor) -> None:
    """Serialize atomically (temp file then rename)."""
    try:
        atomic_write_bytes(path, tensor_bytes(t))
    except OSError as err:
        raise IoError(f"cannot write {path}: {err}") from err


def write_bundle(directory: str | Path, tensors: Mapping[str, Tensor],
                 texts: Mapping[str, str]) -> list[Path]:
    """Write a bundle (an episode, a tube or a checkpoint): each tensor, then
    each text, atomically under its name in ``directory``; a name may include
    a subdirectory. Returns the written paths in that order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, t in tensors.items():
        write_tensor(directory / name, t)
    for name, text in texts.items():
        atomic_write_text(directory / name, text)
    return [directory / name for name in (*tensors, *texts)]


def read_tensor(path: str | Path) -> Tensor:
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise IoError(f"cannot read {path}: {err}") from err
    return tensor_from_bytes(raw, source=str(path))


def read_bundle(directory: Path, images: Sequence[str], masks: Sequence[str]) -> list[Tensor]:
    """Read a bundle's images, then its masks (an episode or a tube): every
    tensor must have the first one's shape and every mask only values 0 and
    1. A fault raises IoError naming its file."""
    names = (*images, *masks)
    tensors = [read_tensor(directory / name) for name in names]
    for name, t in zip(names, tensors):
        if t.shape != tensors[0].shape:
            raise IoError(f"{directory / name}: shape {t.shape} does not match "
                          f"{directory / names[0]} ({tensors[0].shape})")
    for name, t in zip(masks, tensors[len(images):]):
        if not is_binary(t.data):
            raise IoError(f"{directory / name}: mask values must be 0 or 1")
    return tensors


def tensor_from_bytes(raw: bytes, *, source: str = "<bytes>") -> Tensor:
    if len(raw) < 6:
        raise IoError(f"{source}: truncated header")
    if raw[:4] != MAGIC:
        raise IoError(f"{source}: bad magic {raw[:4]!r}")
    if raw[4] != VERSION:
        raise IoError(f"{source}: unsupported version {raw[4]}")
    rank = raw[5]
    dim_end = 6 + 4 * rank
    if len(raw) < dim_end:
        raise IoError(f"{source}: truncated dimension list")
    dims = struct.unpack(f"<{rank}I", raw[6:dim_end]) if rank else ()
    if any(d == 0 for d in dims):
        raise IoError(f"{source}: zero-sized dimension in {dims}")
    count = 1
    for d in dims:
        count *= d
    if count > _MAX_ELEMENTS:
        raise IoError(f"{source}: element count {count} exceeds the reader limit")
    payload = raw[dim_end:]
    if len(payload) != 4 * count:
        raise IoError(f"{source}: payload holds {len(payload)} bytes, dims {dims} need {4 * count}")
    data = np.frombuffer(payload, dtype="<f4")
    # checked before the cast: casting a signalling NaN warns (raises under -W error)
    if not np.isfinite(data).all():
        raise IoError(f"{source}: tensor data must be finite")
    return Tensor(data.astype(np.float64).reshape(dims))
