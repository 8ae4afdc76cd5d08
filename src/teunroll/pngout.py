"""Tiny deterministic 8-bit grayscale PNG writer (stdlib only).

Used solely for human inspection of magnitude images; nothing reads these
back.  Each image is scaled by its own maximum.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np


def _chunk(tag, payload):
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def write_png(path, image):
    """Save the magnitude of a 2-D array as grayscale PNG, scaling
    [0, max] to [0, 255] (an all-zero image stays black)."""
    img = np.abs(np.asarray(image)).astype(np.float64)
    if img.ndim != 2:
        raise ValueError("write_png needs a 2-D image")
    peak = float(img.max()) or 1.0
    scaled = np.clip(img / peak * 255.0, 0.0, 255.0).astype(np.uint8)
    h, w = scaled.shape
    raw = b"".join(b"\x00" + scaled[row].tobytes() for row in range(h))
    header = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        fh.write(_chunk(b"IHDR", header))
        fh.write(_chunk(b"IDAT", zlib.compress(raw, 6)))
        fh.write(_chunk(b"IEND", b""))
