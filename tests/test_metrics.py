import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teunroll import metrics

from oracles import ssim_reference


def test_psnr_sentinel_and_direct_value():
    rng = np.random.default_rng(0)
    ref = rng.random((16, 16))
    assert metrics.psnr(ref, ref) == float("inf")
    test = ref + 0.1  # MSE = 0.01 exactly
    assert metrics.psnr(ref, test, data_max=1.0) == pytest.approx(20.0, abs=1e-12)


def test_psnr_scale_invariance():
    rng = np.random.default_rng(1)
    ref = rng.random((12, 12))
    test = ref + 0.05 * rng.standard_normal((12, 12))
    base = metrics.psnr(ref, test, data_max=1.0)
    for c in (0.3, 7.0):
        scaled = metrics.psnr(c * ref, c * test, data_max=c)
        assert scaled == pytest.approx(base, abs=1e-10)


def test_psnr_uses_magnitude_for_complex():
    rng = np.random.default_rng(2)
    ref = rng.random((8, 8)) + 1j * rng.random((8, 8))
    rotated = ref * np.exp(1j * 0.7)  # same magnitudes up to rounding
    assert metrics.psnr(ref, rotated) > 250.0


def test_psnr_monotone_in_noise_level():
    rng = np.random.default_rng(3)
    ref = rng.random((32, 32))
    noise = rng.standard_normal((32, 32))
    values = [metrics.psnr(ref, ref + s * noise, data_max=1.0)
              for s in (0.01, 0.02, 0.05, 0.1, 0.2)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ssim_identical_is_exactly_one():
    rng = np.random.default_rng(4)
    img = rng.random((16, 16))
    assert metrics.ssim(img, img) == 1.0


def test_ssim_negated_image_is_less_than_one():
    rng = np.random.default_rng(5)
    img = rng.random((16, 16)) + 0.5
    val = metrics.ssim(img, -img, data_range=float(2 * np.abs(img).max()))
    assert val < 1.0


def test_ssim_matches_double_loop_oracle():
    rng = np.random.default_rng(6)
    ref = rng.random((32, 32))
    test = ref + 0.1 * rng.standard_normal((32, 32))
    mine = metrics.ssim(ref, test)
    oracle = ssim_reference(ref, test)
    assert mine == pytest.approx(oracle, abs=1e-10)


@settings(max_examples=10, deadline=None)
@given(h=st.integers(11, 30), w=st.integers(11, 30), seed=st.integers(0, 10_000))
def test_ssim_matches_oracle_on_any_shape(h, w, seed):
    rng = np.random.default_rng(seed)
    ref = rng.random((h, w))
    test = ref + 0.1 * rng.standard_normal((h, w))
    assert metrics.ssim(ref, test) == pytest.approx(ssim_reference(ref, test), abs=1e-10)


def test_ssim_symmetric_with_fixed_range():
    rng = np.random.default_rng(7)
    a = rng.random((16, 16))
    b = rng.random((16, 16))
    assert metrics.ssim(a, b, data_range=1.0) == pytest.approx(
        metrics.ssim(b, a, data_range=1.0), abs=1e-12
    )


def test_ssim_too_small_raises():
    with pytest.raises(ValueError):
        metrics.ssim(np.ones((8, 8)), np.ones((8, 8)))


def test_nmse_examples():
    rng = np.random.default_rng(8)
    ref = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    assert metrics.nmse(ref, ref) == 0.0
    assert metrics.nmse(ref, np.zeros_like(ref)) == pytest.approx(1.0)
    assert metrics.nmse(ref, 1.1 * ref) == pytest.approx(0.01, abs=1e-12)
    with pytest.raises(ValueError):
        metrics.nmse(np.zeros(4), np.ones(4))


def test_shape_mismatch_errors():
    with pytest.raises(ValueError):
        metrics.psnr(np.ones((4, 4)), np.ones((3, 3)))
    with pytest.raises(ValueError):
        metrics.nmse(np.ones(4), np.ones(5))
