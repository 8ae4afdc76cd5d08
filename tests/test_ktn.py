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
