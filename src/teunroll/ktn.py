"""KTN1 tensor file format.

Layout: magic bytes ``KTN1``, little-endian u32 dtype code, u32 ndim,
ndim x u64 dims, then the row-major payload.  Dtype codes:

    0 = complex64  (interleaved float32 pairs)
    1 = complex128 (interleaved float64 pairs)
    2 = float32
    3 = float64

All four codes are read, since a dataset file may come from outside the
program; the program itself writes complex128 images and maps and float64
checkpoint tensors.
"""

from __future__ import annotations

import math
import os
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
    converted by the caller.  A C-contiguous little-endian array is
    written from its own buffer, without a copy.
    """
    arr = np.asarray(array)
    if arr.dtype not in _DTYPE_TO_CODE:
        raise KtnError(f"unsupported dtype for KTN1: {arr.dtype}")
    code = _DTYPE_TO_CODE[arr.dtype]
    arr = np.asarray(arr, dtype=_CODE_TO_DTYPE[code], order="C")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", code, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.reshape(-1).view(np.uint8))


def _read_exactly(fh, size, part, path):
    block = fh.read(size)
    if len(block) != size:
        raise KtnError(f"truncated {part} in {path}")
    return block


def _read_header(fh, path):
    """(dtype, shape) of an open KTN1 file, leaving ``fh`` at the payload.
    Checks the magic bytes and the dtype code, and compares the claimed
    dims and payload sizes with the bytes left in the file before anything
    of either size is allocated."""
    magic = fh.read(4)
    if magic != MAGIC:
        raise KtnError(f"bad magic bytes {magic!r} in {path}")
    code, ndim = struct.unpack("<II", _read_exactly(fh, 8, "header", path))
    if code not in _CODE_TO_DTYPE:
        raise KtnError(f"unknown dtype code {code} in {path}")
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if 8 * ndim > left:
        raise KtnError(
            f"truncated header in {path}: {ndim} dims need {8 * ndim} bytes, {left} follow")
    dims = struct.unpack(f"<{ndim}Q", _read_exactly(fh, 8 * ndim, "header", path))
    dtype = _CODE_TO_DTYPE[code]
    size = math.prod(dims) * dtype.itemsize
    left -= 8 * ndim
    if size > left:
        raise KtnError(
            f"truncated payload in {path}: the header claims {size} bytes, {left} follow")
    return dtype, dims


def read_header(path):
    """The (dtype, shape) a KTN1 file declares, checked as ``read_ktn``
    checks them, without reading the payload."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def read_ktn(path):
    """Load a KTN1 file and return the stored numpy array."""
    with open(path, "rb") as fh:
        dtype, dims = _read_header(fh, path)
        arr = np.empty(dims, dtype=dtype)
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise KtnError(f"truncated payload in {path}")
    return arr
