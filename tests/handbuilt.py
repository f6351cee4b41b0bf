"""Tensor container bytes built field by field, independent of ``tensorio``,
so tests can write what the writers refuse (NaNs, odd tensor sets, repeated
names)."""

import struct

import numpy as np


def container_bytes(tensors) -> bytes:
    """``tensors`` is a dict, or a list of (name, array) pairs that may repeat a name."""
    pairs = list(tensors.items()) if isinstance(tensors, dict) else tensors
    blob = [b"LGPN", struct.pack("<HI", 1, len(pairs))]
    for name, arr in pairs:
        arr = np.asarray(arr, dtype="<f4")
        blob += [struct.pack("<H", len(name)), name.encode(), struct.pack("<B", arr.ndim),
                 *(struct.pack("<Q", ext) for ext in arr.shape), arr.tobytes()]
    return b"".join(blob)
