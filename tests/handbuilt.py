"""Tensor container bytes built field by field, independent of ``tensorio``,
so tests can write what the writers refuse (NaNs, odd tensor sets)."""

import struct

import numpy as np


def container_bytes(tensors) -> bytes:
    blob = [b"LGPN", struct.pack("<HI", 1, len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f4")
        blob += [struct.pack("<H", len(name)), name.encode(), struct.pack("<B", arr.ndim),
                 *(struct.pack("<Q", ext) for ext in arr.shape), arr.tobytes()]
    return b"".join(blob)
