"""KTN1 tensor file format.

Layout: magic bytes ``KTN1``, little-endian u32 dtype code, u32 ndim,
ndim x u64 dims, then the row-major payload.  Dtype codes:

    0 = complex64  (interleaved float32 pairs)
    1 = complex128 (interleaved float64 pairs)
    2 = float32
    3 = float64

Sampling masks are stored as code 2 with values {0.0, 1.0}.
"""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"KTN1"

_CODE_TO_DTYPE = {
    0: np.dtype("<c8"),
    1: np.dtype("<c16"),
    2: np.dtype("<f4"),
    3: np.dtype("<f8"),
}
# the same dtypes in native byte order, as arrays in memory carry them
_DTYPE_TO_CODE = {dtype.newbyteorder("="): code for code, dtype in _CODE_TO_DTYPE.items()}


class KtnError(ValueError):
    """Raised on malformed KTN1 files or unsupported dtypes."""


def write_ktn(path, array):
    """Serialize ``array`` to ``path`` in KTN1 format.

    Only the four supported dtypes are accepted; ints and bools must be
    converted by the caller (masks go out as float32 zeros/ones).
    """
    arr = np.asarray(array)
    if arr.ndim:
        arr = np.ascontiguousarray(arr)  # ascontiguousarray would promote 0-d to 1-d
    if arr.dtype not in _DTYPE_TO_CODE:
        raise KtnError(f"unsupported dtype for KTN1: {arr.dtype}")
    code = _DTYPE_TO_CODE[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", code, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.astype(_CODE_TO_DTYPE[code], copy=False).tobytes(order="C"))


def read_ktn(path):
    """Load a KTN1 file and return the stored numpy array."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise KtnError(f"bad magic bytes {magic!r} in {path}")
        code, ndim = struct.unpack("<II", fh.read(8))
        if code not in _CODE_TO_DTYPE:
            raise KtnError(f"unknown dtype code {code} in {path}")
        dims = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
        dtype = _CODE_TO_DTYPE[code]
        count = math.prod(dims)
        payload = fh.read(count * dtype.itemsize)
        if len(payload) != count * dtype.itemsize:
            raise KtnError(f"truncated payload in {path}")
        arr = np.frombuffer(payload, dtype=dtype).reshape(dims)
    return arr.copy()

