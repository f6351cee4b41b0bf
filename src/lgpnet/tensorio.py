"""Versioned binary container for named tensors.

Layout (all integers little-endian):

    magic           4 bytes     b"LGPN"
    version         u16         currently 1
    tensor count    u32
    per tensor:
        name length u16
        name        UTF-8 bytes
        rank        u8
        extents     rank * u64
        data        prod(extents) * f32

Values are stored as 32-bit floats; a float32 array round-trips
bit-exactly.  Insertion order of the mapping is preserved.  Values that are
not finite as float32 are refused, as every reader of these files does.
Every file the package writes, text too, goes to disk by :func:`write_file`.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, naming

MAGIC = b"LGPN"
VERSION = 1

_MAX_RANK = 8


def finite_float32(arr, what: str) -> np.ndarray:
    """``arr`` as little-endian float32; ValueError naming ``what`` if not all finite."""
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(arr, dtype="<f4")
    if not np.isfinite(out).all():
        raise ValueError(f"{what} has a value that is not finite as float32")
    return out


def serialize_tensors(tensors: dict[str, np.ndarray]) -> bytes:
    """Encode a name -> array mapping into container bytes."""
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<HI", VERSION, len(tensors)))
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.ndim > _MAX_RANK:
            raise ValueError(f"tensor {name!r} has rank {arr.ndim} > {_MAX_RANK}")
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", arr.ndim))
        for ext in arr.shape:
            buf.write(struct.pack("<Q", ext))
        buf.write(finite_float32(arr, f"tensor {name!r}").tobytes())
    return buf.getvalue()


def deserialize_tensors(data: bytes) -> dict[str, np.ndarray]:
    """Decode container bytes back into an ordered name -> float32 array mapping."""
    return _read_container(io.BytesIO(data), len(data), True)


def _read_container(fh, size: int, with_data: bool) -> dict:
    """The ordered name -> float32 array mapping of the ``size``-byte
    container read from ``fh``; without data, name -> shape, the data
    skipped unread.  Each tensor's data is read straight into its array, and
    only once the bytes it claims are known to be there."""
    pos = 0

    def claim(n: int, what: str) -> None:
        nonlocal pos
        if pos + n > size:
            raise FormatError(f"truncated container while reading {what}", offset=pos)
        pos += n

    def take(n: int, what: str) -> bytes:
        claim(n, what)
        chunk = fh.read(n)
        if len(chunk) != n:           # the file shrank since its size was taken
            raise FormatError(f"truncated container while reading {what}", offset=pos - n)
        return chunk

    if take(4, "magic") != MAGIC:
        raise FormatError("bad magic bytes, not a tensor container", offset=0)
    (version,) = struct.unpack("<H", take(2, "version"))
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}", offset=4)
    (count,) = struct.unpack("<I", take(4, "tensor count"))

    out: dict = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = take(name_len, "name").decode("utf-8")
        (rank,) = struct.unpack("<B", take(1, "rank"))
        if rank > _MAX_RANK:
            raise FormatError(f"tensor {name!r} has invalid rank {rank}", offset=pos - 1)
        shape = tuple(
            struct.unpack("<Q", take(8, f"extent of {name!r}"))[0] for _ in range(rank)
        )
        n_bytes = 4
        for ext in shape:
            n_bytes *= ext
        claim(n_bytes, f"data of {name!r}")
        if with_data:
            arr = np.empty(shape, dtype="<f4")
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != n_bytes:
                raise FormatError(f"truncated container while reading data of {name!r}",
                                  offset=pos - n_bytes)
        else:
            fh.seek(n_bytes, io.SEEK_CUR)
        if name in out:
            raise FormatError(f"duplicate tensor name {name!r}", offset=pos)
        out[name] = arr if with_data else shape
    if pos != size:
        raise FormatError("trailing bytes after last tensor", offset=pos)
    return out


def write_file(path, data: bytes) -> None:
    """Write ``data`` to a hidden ``.<name>.part`` beside ``path`` (making the
    directory) and rename it over ``path``; on any error, remove the part.
    No reader sees part of a file.  No fsync: a crash may still lose one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    part = path.with_name(f".{path.name}.part")
    try:
        part.write_bytes(data)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    write_file(path, serialize_tensors(tensors))


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read a container file; every FormatError it raises names ``path``."""
    return _read_file(path, True)


def tensor_shapes(path) -> dict[str, tuple]:
    """The name -> shape mapping of a container file, from its headers
    alone; it raises what :func:`load_tensors` would, but for the data."""
    return _read_file(path, False)


def _read_file(path, with_data: bool) -> dict:
    with open(path, "rb") as fh:
        with naming(path):
            return _read_container(fh, os.fstat(fh.fileno()).st_size, with_data)


def fingerprint(tensors: dict[str, np.ndarray]) -> bytes:
    """SHA-256 digest of the canonical serialized form (32 bytes).

    A file written by :func:`save_tensors` hashes to the same digest as the
    in-memory mapping it came from, so model checkpoints can reference the
    exact GMM/stats artifacts they were trained with.
    """
    return hashlib.sha256(serialize_tensors(tensors)).digest()


def file_fingerprint(path) -> bytes:
    return hashlib.sha256(Path(path).read_bytes()).digest()
