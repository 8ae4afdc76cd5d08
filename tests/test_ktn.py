import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from teunroll import ktn

DTYPES = ["<c8", "<c16", "<f4", "<f8"]


@pytest.mark.parametrize(
    "dtype", [np.complex64, np.complex128, np.float32, np.float64]
)
def test_round_trip(tmp_path, dtype):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5))
    if np.issubdtype(dtype, np.complexfloating):
        arr = arr + 1j * rng.standard_normal((3, 4, 5))
    arr = arr.astype(dtype)
    path = tmp_path / "t.ktn"
    ktn.write_ktn(path, arr)
    back = ktn.read_ktn(path)
    assert back.dtype == np.dtype(dtype).newbyteorder("<")
    np.testing.assert_array_equal(back, arr)


@settings(max_examples=60, deadline=None)
@given(arr=st.sampled_from(DTYPES).flatmap(
    lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                     max_side=5))))
def test_round_trip_property(tmp_path_factory, arr):
    # every bit pattern survives, NaN and infinities included
    path = tmp_path_factory.mktemp("ktn") / "a.ktn"
    ktn.write_ktn(path, arr)
    back = ktn.read_ktn(path)
    assert back.dtype == arr.dtype and back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_scalar_and_header(tmp_path):
    path = tmp_path / "s.ktn"
    ktn.write_ktn(path, np.float64(3.5))
    back = ktn.read_ktn(path)
    assert back.shape == ()
    assert float(back) == 3.5

    ktn.write_ktn(tmp_path / "m.ktn", np.ones((2, 3), dtype=np.float32))
    back = ktn.read_ktn(tmp_path / "m.ktn")
    assert back.dtype == np.dtype("<f4")
    assert back.shape == (2, 3)


def test_magic_and_dtype_errors(tmp_path):
    bad = tmp_path / "bad.ktn"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ktn.KtnError):
        ktn.read_ktn(bad)
    with pytest.raises(ktn.KtnError):
        ktn.write_ktn(tmp_path / "i.ktn", np.arange(3))  # int64 unsupported


@pytest.mark.parametrize("blob, part", [
    (b"KTN1\x01\x00", "header"),  # code/ndim block cut short
    (b"KTN1" + struct.pack("<II", 3, 2) + struct.pack("<Q", 4), "header"),  # one of two dims
    (b"KTN1" + struct.pack("<II", 3, 1) + struct.pack("<Q", 4) + b"\x00" * 24, "payload"),
], ids=["code-ndim", "dims", "payload"])
def test_truncated_file_is_ktn_error(tmp_path, blob, part):
    path = tmp_path / "short.ktn"
    path.write_bytes(blob)
    with pytest.raises(ktn.KtnError, match=f"truncated {part}"):
        ktn.read_ktn(path)


def test_mask_payload_is_zeros_and_ones(tmp_path):
    mask = (np.arange(12).reshape(3, 4) % 2 == 0).astype(np.float32)
    path = tmp_path / "mask.ktn"
    ktn.write_ktn(path, mask)
    back = ktn.read_ktn(path)
    assert set(np.unique(back)) <= {0.0, 1.0}


def test_deterministic_bytes(tmp_path):
    arr = np.linspace(0, 1, 24).reshape(2, 3, 4)
    a, b = tmp_path / "a.ktn", tmp_path / "b.ktn"
    ktn.write_ktn(a, arr)
    ktn.write_ktn(b, arr)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("count", [2**20, 2**40])
def test_claimed_size_is_checked_before_allocating(tmp_path, count):
    # a 28-byte file whose header claims far more float64 values than it holds
    path = tmp_path / "liar.ktn"
    path.write_bytes(b"KTN1" + struct.pack("<II", 3, 1) + struct.pack("<Q", count)
                     + b"\x00" * 8)
    tracemalloc.start()
    try:
        with pytest.raises(ktn.KtnError, match="truncated payload"):
            ktn.read_ktn(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_claimed_ndim_is_checked_before_allocating(tmp_path):
    # a 12-byte file whose header claims 2**22 dims, 32 MiB of u64 dims
    path = tmp_path / "liar.ktn"
    path.write_bytes(b"KTN1" + struct.pack("<II", 3, 2**22))
    tracemalloc.start()
    try:
        with pytest.raises(ktn.KtnError, match="truncated header"):
            ktn.read_header(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def _tobytes_writer_bytes(arr):
    """The file a writer that copies the payload with ``tobytes`` makes."""
    arr = np.asarray(arr)
    code = {"<c8": 0, "<c16": 1, "<f4": 2, "<f8": 3}[arr.dtype.str]
    return (ktn.MAGIC + struct.pack("<II", code, arr.ndim)
            + struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.tobytes(order="C"))


@pytest.mark.parametrize("dtype", [np.complex128, np.float64, np.float32])
def test_buffer_writer_matches_the_tobytes_writer(tmp_path, dtype):
    rng = np.random.default_rng(0)
    base = (rng.standard_normal((6, 5, 4)) + 1j * rng.standard_normal((6, 5, 4)))
    base = base if np.dtype(dtype).kind == "c" else base.real
    base = base.astype(dtype)
    for arr in (base, base.transpose(2, 0, 1), base[::2, :, 1:], base[0, 0, 0], base[:0]):
        path = tmp_path / "a.ktn"
        ktn.write_ktn(path, arr)
        assert path.read_bytes() == _tobytes_writer_bytes(arr), arr.shape


def test_contiguous_array_is_written_without_a_copy(tmp_path):
    arr = np.ones((8, 128, 128), dtype=np.complex128)  # sens.ktn at 128x128x8: 2 MiB
    tracemalloc.start()
    try:
        ktn.write_ktn(tmp_path / "sens.ktn", arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**16
