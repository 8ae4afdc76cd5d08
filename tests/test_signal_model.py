import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teunroll import signal_model as sm

from oracles import (dense_from_probes, encodings, flat_gram, power_iteration_norm,
                     stacked_add_noise, stacked_adjoint, stacked_forward, stacked_gram)


def _random_image(rng, h, w):
    return sm.ComplexImage(rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w)))


def _random_kspace(rng, c, h, w):
    return sm.KSpaceData(rng.standard_normal((c, h, w)) + 1j * rng.standard_normal((c, h, w)))


def _unit_sens(h, w):
    return sm.CoilSensitivities(np.ones((1, h, w), dtype=complex))


# -- forward / adjoint -------------------------------------------------------

def test_parseval_single_coil_full_mask():
    rng = np.random.default_rng(0)
    E = sm.EncodingOperator(sm.make_equispaced_mask(16, 16, 1, 0), _unit_sens(16, 16))
    x = _random_image(rng, 16, 16)
    ratio = np.linalg.norm(E.forward(x).data) / np.linalg.norm(x.data)
    assert abs(ratio - 1.0) <= 1e-12


def test_normal_is_identity_on_full_mask_single_coil():
    rng = np.random.default_rng(1)
    E = sm.EncodingOperator(sm.make_equispaced_mask(12, 12, 1, 0), _unit_sens(12, 12))
    x = _random_image(rng, 12, 12)
    back = E.normal(x)
    assert np.linalg.norm(back.data - x.data) <= 1e-12 * np.linalg.norm(x.data)
    # adjoint of forward also inverts directly (unitary map)
    rt = E.adjoint(E.forward(x))
    assert np.linalg.norm(rt.data - x.data) <= 1e-12 * np.linalg.norm(x.data)


def test_forward_matches_dense_probe_matrix():
    rng = np.random.default_rng(2)
    mask = sm.make_equispaced_mask(8, 8, 2, 0)
    sens = sm.make_smooth_sensitivities(8, 8, 2, seed=3)
    E = sm.EncodingOperator(mask, sens)

    def apply_flat(v):
        return E.forward(sm.ComplexImage(v.reshape(8, 8))).data.ravel()

    dense = dense_from_probes(apply_flat, 64)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    direct = apply_flat(x)
    assert np.linalg.norm(dense @ x - direct) <= 1e-10 * np.linalg.norm(direct)


def test_adjoint_identity_and_zero():
    rng = np.random.default_rng(4)
    mask = sm.make_random_mask(10, 12, 3, 2, seed=5)
    sens = sm.make_smooth_sensitivities(10, 12, 3, seed=6)
    E = sm.EncodingOperator(mask, sens)
    x = _random_image(rng, 10, 12)
    y = _random_kspace(rng, 3, 10, 12)
    lhs = np.vdot(E.forward(x).data, y.data)
    rhs = np.vdot(x.data, E.adjoint(y).data)
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x.data) * np.linalg.norm(y.data)

    zero = sm.KSpaceData(np.zeros((3, 10, 12), dtype=complex))
    assert np.all(E.adjoint(zero).data == 0)


@st.composite
def _operators(draw, heights=st.integers(8, 33), widths=st.integers(8, 33)):
    """Odd, even and non-square shapes, 1-5 coils, equispaced or random
    column masks."""
    h = draw(heights)
    w = draw(widths)
    coils = draw(st.integers(1, 5))
    R = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        mask = sm.make_equispaced_mask(h, w, R, draw(st.integers(0, w)))
    else:
        mask = sm.make_random_mask(h, w, R, draw(st.integers(0, int(round(w / R)))), seed)
    sens = sm.make_smooth_sensitivities(h, w, coils, seed=seed + 1)
    return sm.EncodingOperator(mask, sens), np.random.default_rng(seed + 2)


@settings(max_examples=40, deadline=None)
@given(op=_operators())
def test_adjoint_identity_property(op):
    E, rng = op
    h, w = E.shape
    x = _random_image(rng, h, w)
    y = _random_kspace(rng, E.num_coils, h, w)
    lhs = np.vdot(E.forward(x).data, y.data)
    rhs = np.vdot(x.data, E.adjoint(y).data)
    assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x.data) * np.linalg.norm(y.data)


# 17 or more rows of width 128 exceed GRAM_BLOCK_BYTES: the FFT path.
@settings(max_examples=40, deadline=None)
@given(op=st.one_of(_operators(), _operators(st.integers(17, 24), st.just(128))))
def test_normal_array_matches_adjoint_of_forward(op):
    E, rng = op
    h, w = E.shape
    assert (E._gram_blocks is None) == (h * w * w * 16 > sm.GRAM_BLOCK_BYTES)
    x = _random_image(rng, h, w)
    direct = E.adjoint(E.forward(x)).data
    gram = E.normal_array(x.data)
    assert np.linalg.norm(gram - direct) <= 1e-12 * np.linalg.norm(direct)


@settings(max_examples=40, deadline=None)
@given(op=_operators())
def test_row_block_gram_matches_fft_gram(op):
    E, rng = op
    with mock.patch.object(sm, "GRAM_BLOCK_BYTES", 0):
        E_fft = sm.EncodingOperator(E.mask, E.sens)
    assert E._gram_blocks is not None and E_fft._gram_blocks is None
    x = _random_image(rng, *E.shape).data
    fft = E_fft.normal_array(x)
    assert np.linalg.norm(E.normal_array(x) - fft) <= 1e-12 * np.linalg.norm(fft)


@settings(max_examples=40, deadline=None)
@given(E=encodings(), seed=st.integers(0, 10_000))
def test_coil_at_a_time_ops_equal_the_stacked_ones_bit_for_bit(E, seed):
    """forward, adjoint, add_noise and the FFT-path Gram work one coil at a
    time and give the bits of the same maps on one (C, H, W) stack."""
    rng = np.random.default_rng(seed)
    h, w = E.shape
    x = _random_image(rng, h, w)
    y = _random_kspace(rng, E.num_coils, h, w)
    with mock.patch.object(sm, "GRAM_BLOCK_BYTES", 0):
        E_fft = sm.EncodingOperator(E.mask, E.sens)
    assert E._gram_blocks is not None and E_fft._gram_blocks is None
    for op in (E, E_fft):
        assert np.array_equal(op.forward(x).data, stacked_forward(op, x))
        assert np.array_equal(op.adjoint(y).data, stacked_adjoint(op, y))
    gram = stacked_gram(E, x.data)
    assert np.array_equal(E_fft.normal_array(x.data), gram)
    # the cached row blocks are the same map, to rounding
    assert np.linalg.norm(E.normal_array(x.data) - gram) <= 1e-12 * np.linalg.norm(gram)
    for mask in (sm.SamplingMask(np.ones((h, w), dtype=bool)), E.mask):
        assert np.array_equal(sm.add_noise(y, 0.3, seed, mask=mask).data,
                              stacked_add_noise(y, 0.3, seed, mask=mask))


def test_each_op_holds_its_output_and_at_most_two_coil_images():
    h = w = 128
    coils = 8
    mask = sm.make_equispaced_mask(h, w, 4, 4)
    E = sm.EncodingOperator(mask, sm.make_smooth_sensitivities(h, w, coils, seed=0))
    assert E._gram_blocks is None  # 128 x 128 takes the FFT path
    x = sm.make_phantom(h, w, 6, seed=1)
    y = E.forward(x)
    coil = h * w * 16
    slack = 32 * 2**10  # the index bookkeeping of the shift and FFT calls
    ops = {
        "forward": (lambda: E.forward(x), coils * coil),
        "adjoint": (lambda: E.adjoint(y), coil),
        "normal_array": (lambda: E.normal_array(x.data), coil),
        "add_noise": (lambda: sm.add_noise(y, 0.01, 3, mask=mask), coils * coil),
    }
    for name, (op, out_bytes) in ops.items():
        op()  # FFT plans and the like are cached by the first call
        tracemalloc.start()
        try:
            op()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out_bytes + 2 * coil + slack, (name, peak / 2**20)


@settings(max_examples=40, deadline=None)
@given(op=_operators())
def test_operator_norm_at_most_one(op):
    # Rows do not couple, so putting a unit impulse at column j of every row
    # reads column j of all H row blocks of E^H E at once (W probes).
    E, _ = op
    h, w = E.shape
    blocks = np.empty((h, w, w), dtype=complex)
    for j in range(w):
        probe = np.zeros((h, w), dtype=complex)
        probe[:, j] = 1.0
        blocks[:, :, j] = E.adjoint(E.forward(sm.ComplexImage(probe))).data
    # ||E||^2 is the largest eigenvalue of E^H E
    assert np.linalg.eigvalsh(blocks).max() <= (1.0 + 1e-12) ** 2


def test_row_blocks_cached_only_under_the_cap():
    def operator(n, coils):
        mask = sm.make_equispaced_mask(n, n, 4, 8)
        return sm.EncodingOperator(mask, sm.make_smooth_sensitivities(n, n, coils, seed=0))

    assert operator(64, 4)._gram_blocks.nbytes == sm.GRAM_BLOCK_BYTES
    assert operator(128, 8)._gram_blocks is None


@settings(max_examples=25, deadline=None)
@given(h=st.integers(2, 33), w=st.integers(1, 33), data=st.data())
def test_partly_sampled_column_is_rejected(h, w, data):
    cols = np.array(data.draw(st.lists(st.booleans(), min_size=w, max_size=w)))
    pattern = np.tile(cols, (h, 1))
    i, j = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
    pattern[i, j] = not pattern[i, j]
    with pytest.raises(ValueError, match="whole columns"):
        sm.SamplingMask(pattern)


def test_mask_idempotence_and_zero_fill():
    rng = np.random.default_rng(7)
    mask = sm.make_equispaced_mask(8, 8, 2, 2)
    sens = sm.make_smooth_sensitivities(8, 8, 2, seed=8)
    E = sm.EncodingOperator(mask, sens)
    y = E.forward(_random_image(rng, 8, 8))
    assert np.all(y.data[:, ~mask.pattern] == 0)
    remasked = np.where(mask.pattern[None], y.data, 0.0)
    np.testing.assert_array_equal(remasked, y.data)


def test_normal_operator_is_psd():
    rng = np.random.default_rng(20)
    E = sm.EncodingOperator(sm.make_random_mask(12, 12, 3, 2, seed=21),
                            sm.make_smooth_sensitivities(12, 12, 3, seed=22))
    for _ in range(20):
        x = _random_image(rng, 12, 12)
        quad = np.vdot(x.data, E.normal(x).data)
        assert abs(quad.imag) <= 1e-10 * abs(quad.real + 1e-30)
        assert quad.real >= -1e-12


def test_dimension_mismatch_errors():
    E = sm.EncodingOperator(sm.make_equispaced_mask(8, 8, 2, 2),
                            sm.make_smooth_sensitivities(8, 8, 2, seed=0))
    with pytest.raises(ValueError):
        E.forward(sm.ComplexImage(np.ones((4, 4))))
    with pytest.raises(ValueError):
        E.adjoint(sm.KSpaceData(np.ones((2, 4, 4), dtype=complex)))
    with pytest.raises(ValueError):
        sm.EncodingOperator(sm.make_equispaced_mask(6, 6, 2, 2),
                            sm.make_smooth_sensitivities(8, 8, 2, seed=0))


# (class, attribute holding the array, its number of axes)
CHECKED_ARRAYS = [(sm.ComplexImage, "data", 2), (sm.KSpaceData, "data", 3),
                  (sm.CoilSensitivities, "maps", 3)]
# contiguous, transposed and strided views of a finite complex array
LAYOUTS = {
    "contiguous": lambda a: a,
    "transposed": lambda a: a.T,
    "strided": lambda a: a[..., ::2],
}


def _finite_base(ndim):
    rng = np.random.default_rng(ndim)
    shape = (3, 5, 8)[-ndim:]
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("cls, attr, ndim", CHECKED_ARRAYS,
                         ids=[c.__name__ for c, _, _ in CHECKED_ARRAYS])
def test_finite_arrays_are_accepted_as_complex128(cls, attr, ndim, layout):
    values = LAYOUTS[layout](_finite_base(ndim))
    held = getattr(cls(values), attr)
    assert held.dtype == np.complex128 and np.array_equal(held, values)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("cls, attr, ndim", CHECKED_ARRAYS,
                         ids=[c.__name__ for c, _, _ in CHECKED_ARRAYS])
def test_a_non_finite_sample_is_rejected(cls, attr, ndim, bad, part, layout):
    values = LAYOUTS[layout](_finite_base(ndim))
    getattr(values, part)[(-1,) * ndim] = bad
    with pytest.raises(ValueError, match=f"{cls.__name__} contains non-finite samples"):
        cls(values)


# -- masks --------------------------------------------------------------

def test_equispaced_mask_enumeration():
    mask = sm.make_equispaced_mask(4, 16, 4, 4)
    expected = sorted(set(range(0, 16, 4)) | {6, 7, 8, 9})
    np.testing.assert_array_equal(np.flatnonzero(mask.pattern[0]), expected)
    assert len(expected) == 7

    full = sm.make_equispaced_mask(4, 10, 1, 0)
    assert full.pattern.all()

    mask = sm.make_equispaced_mask(4, 368, 4, 24)
    start = 368 // 2 - 12
    expected = sorted(set(range(0, 368, 4)) | set(range(start, start + 24)))
    np.testing.assert_array_equal(np.flatnonzero(mask.pattern[0]), expected)


def test_equispaced_mask_spacing_invariant():
    mask = sm.make_equispaced_mask(4, 64, 5, 8)
    cols = np.flatnonzero(mask.pattern[0])
    start = 64 // 2 - 4
    acs = set(range(start, start + 8))
    non_acs = sorted(set(cols) - acs)
    # non-ACS sampled columns must sit on the stride-R grid
    assert all(c % 5 == 0 for c in non_acs)


def test_equispaced_mask_errors():
    with pytest.raises(ValueError):
        sm.make_equispaced_mask(4, 8, 0, 0)
    with pytest.raises(ValueError):
        sm.make_equispaced_mask(4, 8, 2, 9)


def test_negative_acs_is_rejected():
    # the CLI maps this ValueError of mask.acs = -1 to exit 2
    with pytest.raises(ValueError, match="acs must be non-negative"):
        sm.make_equispaced_mask(8, 16, 2, -1)
    with pytest.raises(ValueError, match="acs must be non-negative"):
        sm.make_random_mask(8, 16, 2, -1, seed=0)


def test_random_mask_counting_and_determinism():
    m1 = sm.make_random_mask(4, 64, 4, 8, seed=7)
    m2 = sm.make_random_mask(4, 64, 4, 8, seed=7)
    np.testing.assert_array_equal(m1.pattern, m2.pattern)
    cols = np.flatnonzero(m1.pattern[0])
    assert cols.size == 16
    start = 64 // 2 - 4
    assert set(range(start, start + 8)) <= set(cols.tolist())

    assert sm.make_random_mask(4, 12, 1, 0, seed=0).pattern.all()
    with pytest.raises(ValueError):
        sm.make_random_mask(4, 16, 8, 4, seed=0)  # budget 2 < acs 4


# -- generators ---------------------------------------------------------

def test_phantom_properties():
    zero = sm.make_phantom(16, 16, 0, seed=0)
    assert np.all(zero.data == 0)
    a = sm.make_phantom(24, 20, 5, seed=3)
    b = sm.make_phantom(24, 20, 5, seed=3)
    np.testing.assert_array_equal(a.data, b.data)
    # each ellipse contributes at most 1.0, so the magnitude is bounded
    for seed in range(10):
        img = sm.make_phantom(16, 16, 6, seed=seed)
        assert np.abs(img.data).max() <= 6.0
    with pytest.raises(ValueError):
        sm.make_phantom(4, 16, 1, seed=0)


def test_sensitivity_normalization_and_norm_bound():
    single = sm.make_smooth_sensitivities(12, 12, 1, seed=0)
    np.testing.assert_allclose(np.abs(single.maps[0]), 1.0, atol=1e-12)
    sens = sm.make_smooth_sensitivities(16, 16, 4, seed=1)
    ssq = np.sum(np.abs(sens.maps) ** 2, axis=0)
    assert np.max(np.abs(ssq - 1.0)) <= 1e-12

    E = sm.EncodingOperator(sm.make_equispaced_mask(16, 16, 2, 4), sens)
    norm = power_iteration_norm(flat_gram(E), 256, iters=50, seed=2)
    assert norm <= 1.0 + 1e-9


def test_add_noise_moments_and_masking():
    rng = np.random.default_rng(0)
    base = sm.KSpaceData(np.zeros((1, 1000, 1000), dtype=complex))
    noisy = sm.add_noise(base, 0.7, seed=1, mask=sm.make_equispaced_mask(1000, 1000, 1, 0))
    assert abs(np.std(noisy.data.real) - 0.7) <= 0.007
    assert abs(np.std(noisy.data.imag) - 0.7) <= 0.007

    mask = sm.make_equispaced_mask(16, 16, 4, 2)
    sens = sm.make_smooth_sensitivities(16, 16, 2, seed=3)
    E = sm.EncodingOperator(mask, sens)
    y = E.forward(sm.ComplexImage(rng.standard_normal((16, 16)) + 0j))
    noisy = sm.add_noise(y, 0.5, seed=4, mask=mask)
    assert np.all(noisy.data[:, ~mask.pattern] == 0)
    assert np.any(noisy.data[:, mask.pattern] != y.data[:, mask.pattern])

    same = sm.add_noise(y, 0.0, seed=5, mask=mask)
    np.testing.assert_array_equal(same.data, y.data)


def test_add_noise_rejects_a_mask_of_another_shape():
    y = sm.KSpaceData(np.ones((2, 16, 16), dtype=complex))
    for shape in ((16, 12), (12, 16)):
        with pytest.raises(ValueError):
            sm.add_noise(y, 0.5, seed=4, mask=sm.make_equispaced_mask(*shape, 4, 2))


def test_noiseless_add_noise_still_checks_the_mask_shape():
    # sigma = 0 returns a copy of y, but a mask that does not fit y is the
    # same error as with noise
    y = sm.KSpaceData(np.ones((2, 16, 16), dtype=complex))
    with pytest.raises(ValueError, match="mask shape"):
        sm.add_noise(y, 0.0, seed=4, mask=sm.make_equispaced_mask(8, 8, 4, 2))
