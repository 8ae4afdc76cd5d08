import numpy as np
import pytest

from teunroll.nn import engine as en
from teunroll.nn.engine import Tensor
from teunroll.nn.layers import (
    default_groups,
    film_modulate,
    film_residual_modulate,
    sinusoidal_encode,
)
from teunroll.nn.networks import (
    ResNetProx,
    UNetProx,
    complex_to_channels,
    channels_to_complex,
)

from oracles import count_parameters, group_norm_reference, resnet_full, unet_full


# -- sinusoidal encoder ---------------------------------------------------

def test_encode_at_zero():
    np.testing.assert_allclose(sinusoidal_encode(0), [0] * 16 + [1] * 16)


def test_encode_t0_vs_t1_differ_in_every_sin_coordinate():
    a = sinusoidal_encode(0)
    b = sinusoidal_encode(1)
    assert np.all(np.abs(a[:16] - b[:16]) > 0)


def test_encode_injective_over_unroll_range():
    codes = np.stack([sinusoidal_encode(t) for t in range(64)])
    for i in range(64):
        for j in range(i + 1, 64):
            assert np.linalg.norm(codes[i] - codes[j]) > 0


# -- FiLM ----------------------------------------------------------------

def test_film_identity_and_zero_alpha():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((4, 6, 6))
    out = film_modulate(Tensor(f), Tensor(np.ones(4)), Tensor(np.zeros(4)), groups=2)
    np.testing.assert_array_equal(out.data, en.group_norm(Tensor(f), 2).data)

    beta = rng.standard_normal(4)
    out = film_modulate(Tensor(f), Tensor(np.zeros(4)), Tensor(beta), groups=2)
    np.testing.assert_array_equal(out.data, np.broadcast_to(beta[:, None, None], f.shape))


def test_film_group_norm_matches_reference_loops():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((4, 5, 5))
    alpha = rng.standard_normal(4)
    beta = rng.standard_normal(4)
    gn_ref = group_norm_reference(f, 2)
    # normalized features have zero mean / unit variance per group
    for g in range(2):
        chunk = gn_ref[2 * g : 2 * g + 2]
        assert abs(chunk.mean()) <= 1e-6
        assert abs(chunk.std() - 1.0) <= 1e-4
    out = film_modulate(Tensor(f), Tensor(alpha), Tensor(beta), groups=2)
    expected = alpha[:, None, None] * gn_ref + beta[:, None, None]
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


def test_film_residual_tau_zero_and_composition():
    rng = np.random.default_rng(2)
    f = rng.standard_normal((4, 6, 6))
    alpha = rng.standard_normal(4)
    beta = rng.standard_normal(4)
    out = film_residual_modulate(Tensor(f), Tensor(alpha), Tensor(beta), 0.0, 2)
    np.testing.assert_array_equal(out.data, f)

    tau = 1.0
    out = film_residual_modulate(Tensor(f), Tensor(alpha), Tensor(beta), tau, 2)
    composed = f + tau * film_modulate(Tensor(f), Tensor(alpha), Tensor(beta), 2).data
    np.testing.assert_allclose(out.data, composed, atol=1e-12)


def test_film_residual_affine_in_alpha_beta():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((4, 6, 6))
    a1, a2 = rng.standard_normal((2, 4))
    b1, b2 = rng.standard_normal((2, 4))

    def h(a, b):
        return film_residual_modulate(Tensor(f), Tensor(a), Tensor(b), 0.7, 2).data

    gap = h(a1 + a2, b1 + b2) - h(a1, b1) - h(a2, b2) + h(np.zeros(4), np.zeros(4))
    assert np.max(np.abs(gap)) <= 1e-12


def test_film_shape_validation():
    with pytest.raises(ValueError):
        film_modulate(Tensor(np.ones((4, 3, 3))), Tensor(np.ones(3)), Tensor(np.ones(4)), 2)
    with pytest.raises(ValueError):
        en.group_norm(Tensor(np.ones((5, 3, 3))), 2)


# -- proximal networks ------------------------------------------------------

def test_zero_parameter_resnet_is_identity():
    net = ResNetProx(blocks=3, channels=8, seed=0)
    for t in net.parameters().values():
        t.data = np.zeros_like(t.data)
    rng = np.random.default_rng(4)
    img = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    out = net.apply_complex(img)
    np.testing.assert_array_equal(out, img)


def test_te_network_output_depends_on_t():
    net = ResNetProx(blocks=2, channels=8, time_embedded=True, seed=1)
    rng = np.random.default_rng(5)
    for name, tensor in net.parameters().items():
        if ".film." in name and name.endswith(".w"):
            tensor.data = rng.standard_normal(tensor.data.shape) * 0.1
    img = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    out0 = net.apply_complex(img, t=0)
    out5 = net.apply_complex(img, t=5)
    assert np.linalg.norm(out0 - out5) > 0

    with pytest.raises(ValueError):
        net.apply_complex(img)  # TE nets need t


def test_te_unet_output_depends_on_t():
    net = UNetProx(base_channels=8, res_blocks=1, time_embedded=True, seed=2)
    rng = np.random.default_rng(6)
    for name, tensor in net.parameters().items():
        if ".film." in name and name.endswith(".w"):
            tensor.data = rng.standard_normal(tensor.data.shape) * 0.1
    img = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert np.linalg.norm(net.apply_complex(img, 0) - net.apply_complex(img, 7)) > 0


@pytest.mark.parametrize("size", [16, 32, 64])
def test_shape_contract(size):
    rng = np.random.default_rng(size)
    img = rng.standard_normal((size, size)) + 0j
    for net in (ResNetProx(blocks=1, channels=4, seed=0),
                UNetProx(base_channels=4, res_blocks=1, seed=0)):
        out = net.apply_complex(img)
        assert out.shape == img.shape


def test_unet_requires_divisible_dims():
    net = UNetProx(base_channels=4, res_blocks=1, seed=0)
    with pytest.raises(ValueError):
        net.forward(Tensor(np.zeros((2, 10, 10))))


def test_complex_channel_bridge_round_trip():
    rng = np.random.default_rng(8)
    img = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    np.testing.assert_array_equal(channels_to_complex(complex_to_channels(img)), img)


def test_default_groups_divides_channels():
    for c in (1, 2, 3, 6, 8, 12, 64):
        g = default_groups(c)
        assert c % g == 0 and g <= 8


# -- parameter accounting -----------------------------------------------

def test_full_size_parameter_counts_within_brackets():
    resnet_count = count_parameters(resnet_full().parameters())
    unet_count = count_parameters(unet_full().parameters())
    assert 0.5 * 592_129 <= resnet_count <= 2.0 * 592_129
    assert 0.5 * 1_724_035 <= unet_count <= 2.0 * 1_724_035

    resnet_te = count_parameters(resnet_full(time_embedded=True).parameters())
    unet_te = count_parameters(unet_full(time_embedded=True).parameters())
    assert resnet_te <= 1.5 * resnet_count
    assert unet_te <= 1.5 * unet_count
    assert resnet_te > resnet_count and unet_te > unet_count


def test_unshared_bank_is_ten_times_shared():
    shared = count_parameters(ResNetProx(blocks=2, channels=8, seed=0).parameters())
    bank = [count_parameters(ResNetProx(blocks=2, channels=8, seed=i).parameters())
            for i in range(10)]
    assert sum(bank) == 10 * shared
