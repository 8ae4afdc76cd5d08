import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teunroll import signal_model as sm
from teunroll.nn import TrainableEngine
from teunroll.nn import engine as en
from teunroll.nn.engine import Tape, Tensor
from teunroll.nn.networks import ResNetProx, complex_to_channels

from oracles import conv2d_reference, conv2d_scatter_reference, sum_all


def named_rng(name):
    """A generator seeded from ``name`` alone, so adding or removing a
    constant, an ``OPS`` row or a test changes no other one's draws."""
    return np.random.default_rng(zlib.crc32(name.encode()))


@pytest.fixture
def rng(request):
    """The test's own generator, seeded from its name (parameters included)."""
    return named_rng(request.node.name)


def analytic_grad(fn, x_data, rng):
    """Gradient of sum(fn(x) * probe) via the tape."""
    probe = rng.standard_normal(fn(Tensor(x_data)).shape)
    x = Tensor(x_data.copy(), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(en.mul(fn(x), Tensor(probe)))
    tape.backward(loss)
    return x.grad, probe


def fd_grad(fn, x_data, probe, coords, h=1e-5):
    numeric = {}
    for ix in coords:
        xp = x_data.copy()
        xm = x_data.copy()
        xp[ix] += h
        xm[ix] -= h
        fp = float(np.sum(fn(Tensor(xp)).data * probe))
        fm = float(np.sum(fn(Tensor(xm)).data * probe))
        numeric[ix] = (fp - fm) / (2 * h)
    return numeric


def check_op(fn, x_data, rng, rel_tol=1e-6, n_coords=8):
    grads, probe = analytic_grad(fn, x_data, rng)
    coords = [
        np.unravel_index(i, x_data.shape)
        for i in rng.choice(x_data.size, size=min(n_coords, x_data.size), replace=False)
    ]
    numeric = fd_grad(fn, x_data, probe, coords)
    for ix, num in numeric.items():
        scale = max(abs(num), abs(grads[ix]), 1e-4)
        assert abs(num - grads[ix]) / scale <= rel_tol, f"coord {ix}: {num} vs {grads[ix]}"


def test_square_scalar_gradient():
    w = Tensor(np.float64(3.0), requires_grad=True)
    with Tape() as tape:
        loss = en.mul(w, w)
    tape.backward(loss)
    assert w.grad == pytest.approx(6.0)


W_CONV = named_rng("W_CONV").standard_normal((3, 4, 3, 3)) * 0.4
W_CONV1 = named_rng("W_CONV1").standard_normal((5, 4, 1, 1)) * 0.4
M_MAT = named_rng("M_MAT").standard_normal((6, 10))
D_CONST = np.abs(named_rng("D_CONST").standard_normal((4, 5))) + 1.5
SYM = named_rng("SYM").standard_normal((7, 7))
SYM = SYM + SYM.T

OPS = {
    "add": (lambda x: en.add(x, Tensor(2.5)), (4, 5)),
    "add_broadcast": (lambda x: en.add(x, Tensor(np.arange(5.0))), (4, 5)),
    "sub": (lambda x: en.sub(Tensor(np.ones((4, 5))), x), (4, 5)),
    "mul": (lambda x: en.mul(x, Tensor(D_CONST)), (4, 5)),
    "mul_scalar_broadcast": (lambda x: en.mul(Tensor(np.float64(1.7)), x), (4, 5)),
    "div": (lambda x: en.div(x, Tensor(D_CONST)), (4, 5)),
    "matmul_vec": (lambda x: en.matmul(Tensor(M_MAT), x), (10,)),
    "relu": (lambda x: en.relu(x), (4, 5)),
    "silu": (lambda x: en.silu(x), (4, 5)),
    "mean": (lambda x: en.mean(x), (4, 5)),
    "sum": (lambda x: sum_all(x), (4, 5)),
    "mse": (lambda x: en.mse(x, Tensor(np.ones((4, 5)))), (4, 5)),
    "reshape": (lambda x: en.reshape(x, (20,)), (4, 5)),
    "concat": (lambda x: en.concat([x, en.mul(x, Tensor(2.0))]), (2, 4, 4)),
    "conv2d_3x3": (lambda x: en.conv2d(x, Tensor(W_CONV)), (4, 6, 6)),
    "conv2d_1x1": (lambda x: en.conv2d(x, Tensor(W_CONV1)), (4, 6, 6)),
    "group_norm": (lambda x: en.group_norm(x, 2), (4, 6, 6)),
    "avg_pool2": (lambda x: en.avg_pool2(x), (3, 8, 8)),
    "upsample_nearest2": (lambda x: en.upsample_nearest2(x), (3, 4, 4)),
    "linear_selfadjoint": (lambda x: en.linear_selfadjoint(x, lambda v: SYM @ v), (7,)),
    "dot": (lambda x: en.dot(x, Tensor(D_CONST)), (4, 5)),
    "dot_self": (lambda x: en.dot(x, x), (4, 5)),
    "axpy_alpha": (lambda a: en.axpy(a, Tensor(D_CONST), Tensor(np.ones((4, 5)))), ()),
    "axpy_x": (lambda x: en.axpy(Tensor(np.float64(1.7)), x, Tensor(D_CONST)), (4, 5)),
    "axpy_y": (lambda y: en.axpy(Tensor(np.float64(-0.6)), Tensor(D_CONST), y), (4, 5)),
    # one intermediate read three times: its record must sum all three
    # contributions before its own rule runs
    "fan_out": (lambda x: (lambda h: en.add(en.mul(h, h), en.relu(h)))(en.silu(x)), (4, 5)),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_primitive_gradients_match_finite_differences(name, rng):
    fn, shape = OPS[name]
    check_op(fn, rng.standard_normal(shape), rng)


def test_conv2d_weight_and_bias_gradients(rng):
    x0 = rng.standard_normal((2, 5, 5))
    w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.3, requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    probe = rng.standard_normal((3, 5, 5))
    with Tape() as tape:
        loss = sum_all(en.mul(en.conv2d(Tensor(x0), w, b), Tensor(probe)))
    tape.backward(loss)
    h = 1e-5
    for tensor in (w, b):
        flat_idx = rng.choice(tensor.data.size, size=min(4, tensor.data.size), replace=False)
        for i in flat_idx:
            ix = np.unravel_index(i, tensor.data.shape)
            saved = tensor.data[ix]
            tensor.data[ix] = saved + h
            fp = float(np.sum(en.conv2d(Tensor(x0), Tensor(w.data), Tensor(b.data)).data * probe))
            tensor.data[ix] = saved - h
            fm = float(np.sum(en.conv2d(Tensor(x0), Tensor(w.data), Tensor(b.data)).data * probe))
            tensor.data[ix] = saved
            num = (fp - fm) / (2 * h)
            scale = max(abs(num), abs(tensor.grad[ix]), 1e-4)
            assert abs(num - tensor.grad[ix]) / scale <= 1e-6


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    cin=st.integers(1, 5),
    cout=st.integers(1, 5),
    kernel=st.sampled_from([1, 3]),
    seed=st.integers(0, 10_000),
)
def test_conv2d_matches_direct_loop_oracle(h, w, cin, cout, kernel, seed):
    if h == w:
        w += 1
    check_conv2d_against_oracle(h, w, cin, cout, kernel, seed)


@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("cin, cout, h, w", [(16, 16, 32, 24), (2, 16, 24, 32)])
def test_conv2d_matches_oracle_at_network_sizes(cin, cout, h, w, kernel):
    # the network's own channel counts, above the hypothesis test's range
    check_conv2d_against_oracle(h, w, cin, cout, kernel, seed=0)


def test_conv2d_rejects_a_weight_for_another_channel_count():
    # a (2, 4, 3, 3) weight on 3 channels would read only 3 of its 9 taps' inputs
    for cin in (3, 5):
        with pytest.raises(ValueError, match="input channels"):
            en.conv2d(Tensor(np.ones((cin, 8, 8))), Tensor(np.ones((2, 4, 3, 3))))
    # the kernel size is the weight's: only square 1x1 and 3x3 kernels exist
    for shape in ((2, 2, 3, 1), (2, 2, 5, 5), (2, 2, 3), (2, 2, 2, 3, 3)):
        with pytest.raises(ValueError, match="1x1 or 3x3"):
            en.conv2d(Tensor(np.ones((2, 8, 8))), Tensor(np.ones(shape)))
    out = en.conv2d(Tensor(np.ones((2, 8, 8))), Tensor(np.full((3, 2, 1, 1), 0.5)))
    np.testing.assert_array_equal(out.data, np.ones((3, 8, 8)))


def check_conv2d_against_oracle(h, w, cin, cout, kernel, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((cin, h, w)), requires_grad=True)
    wt = Tensor(rng.standard_normal((cout, cin, kernel, kernel)), requires_grad=True)
    b = Tensor(rng.standard_normal(cout), requires_grad=True)
    g = rng.standard_normal((cout, h, w))
    with Tape() as tape:
        out = en.conv2d(x, wt, b)
        loss = sum_all(en.mul(out, Tensor(g)))
    tape.backward(loss)
    got = (out.data, x.grad, wt.grad, b.grad)
    for have, want in zip(got, conv2d_reference(x.data, wt.data, b.data, g)):
        assert have.shape == want.shape
        assert np.linalg.norm(have - want) <= 1e-12 * np.linalg.norm(want)
    # the one tap loop adds the scatter-add's terms in its order: same bits
    for have, want in zip(got, conv2d_scatter_reference(x.data, wt.data, b.data, g)):
        np.testing.assert_array_equal(have, want)


def test_taped_conv2d_keeps_about_one_copy_of_its_input():
    # an im2col backward would keep k*k = 9 copies of the input
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((16, 32, 32)))
    w = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(16), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape():
            out = en.conv2d(x, w, b)
        retained = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert retained <= 1.5 * x.data.nbytes


def _closure_values(rule):
    """Everything a backward closure holds, with list and tuple cells opened."""
    for cell in rule.__closure__ or ():
        value = cell.cell_contents
        yield from value if isinstance(value, (list, tuple)) else (value,)


def test_training_step_tape_keeps_only_what_backward_reads():
    # the benchmark's train-te-32 step (see test_fingerprint): alg1, T=5,
    # CG-15, time-embedded 3x16 ResNet, 32x32 with 4 coils at R=4
    sens = sm.make_smooth_sensitivities(32, 32, 4, seed=0)
    truth = sm.make_phantom(32, 32, 6, seed=0)
    mask = sm.make_equispaced_mask(32, 32, 4, 4)
    E = sm.EncodingOperator(mask, sens)
    y = sm.add_noise(E.forward(truth), 0.01, seed=0, mask=mask)
    engine = TrainableEngine("alg1", T=5, cg_iters=15, sharing="time_embedded",
                             arch="resnet", blocks=3, channels=16)
    target = Tensor(complex_to_channels(truth.data))
    engine.forward(E, y)  # untaped: builds the operator's caches outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            en.mse(engine.forward(E, y), target)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a tape that kept every op output held 28 MiB here; the arrays the
    # rules read come to about 10 MiB
    assert live <= 16 * 2**20, f"{live / 2**20:.1f} MiB live after the taped forward"
    for node in tape.nodes:
        held = list(_closure_values(node.backward_rule))
        assert not any(isinstance(v, Tensor) and v.node is not None for v in held)


def test_loss_that_is_a_leaf_gets_a_unit_gradient():
    w = Tensor(np.float64(3.0), requires_grad=True)
    with Tape() as tape:
        en.mul(w, w)
    tape.backward(w)
    # the recorded square received no gradient, so its rule never ran
    assert w.grad == 1.0
    assert all(node.grad is None for node in tape.nodes)


def test_backward_leaves_gradients_only_on_leaves():
    net = ResNetProx(blocks=2, channels=8, time_embedded=False, seed=0)
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 8, 8)), requires_grad=True)
    with Tape() as tape:
        loss = en.mse(net.forward(x), Tensor(rng.standard_normal((2, 8, 8))))
    tape.backward(loss)
    assert tape.nodes and all(node.grad is None for node in tape.nodes)
    assert x.grad is not None
    assert all(t.grad is not None for t in net.parameters().values())


def test_matmul_parameter_gradient(rng):
    w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    x = rng.standard_normal(5)
    probe = rng.standard_normal(3)
    with Tape() as tape:
        loss = sum_all(en.mul(en.matmul(w, Tensor(x)), Tensor(probe)))
    tape.backward(loss)
    np.testing.assert_allclose(w.grad, np.outer(probe, x), atol=1e-12)


def test_whole_toy_network_gradient_matches_finite_differences():
    net = ResNetProx(blocks=2, channels=8, time_embedded=True, seed=0)
    # zero-initialized FiLM heads would hide the head gradients; perturb them
    rng = np.random.default_rng(7)
    for name, t in net.parameters().items():
        if ".film." in name and name.endswith(".w"):
            t.data = rng.standard_normal(t.data.shape) * 0.05
    img = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x2 = complex_to_channels(img)
    target = rng.standard_normal((2, 8, 8))

    def loss_value():
        out = net.forward(Tensor(x2), t=3)
        return float(np.mean((out.data - target) ** 2))

    params = net.parameters()
    for t in params.values():
        t.grad = None
    with Tape() as tape:
        out = net.forward(Tensor(x2), t=3)
        loss = en.mse(out, Tensor(target))
    tape.backward(loss)

    names = list(params)
    h = 1e-5
    checked = 0
    rng2 = np.random.default_rng(8)
    while checked < 50:
        name = names[int(rng2.integers(len(names)))]
        tensor = params[name]
        if tensor.grad is None:
            continue
        ix = np.unravel_index(int(rng2.integers(tensor.data.size)), tensor.data.shape)
        saved = tensor.data[ix]
        tensor.data[ix] = saved + h
        fp = loss_value()
        tensor.data[ix] = saved - h
        fm = loss_value()
        tensor.data[ix] = saved
        num = (fp - fm) / (2 * h)
        scale = max(abs(num), abs(tensor.grad[ix]), 1e-4)
        assert abs(num - tensor.grad[ix]) / scale <= 1e-5, name
        checked += 1


def test_backward_requires_scalar_connected_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = en.mul(x, x)
    with pytest.raises(ValueError):
        tape.backward(y)  # non-scalar
    with Tape() as tape:
        pass
    detached = Tensor(np.float64(1.0))
    with pytest.raises(ValueError):
        tape.backward(detached)


def test_no_tape_runs_eagerly_without_graph():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    out = en.mul(x, x)
    assert out.node is None
    # under a tape, an op whose inputs are all untracked is not recorded
    with Tape() as tape:
        out = en.mul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
    assert tape.nodes == []
    assert out.node is None


def test_gradient_accumulates_across_reuse():
    x = Tensor(np.float64(2.0), requires_grad=True)
    with Tape() as tape:
        loss = en.add(en.mul(x, x), en.mul(Tensor(3.0), x))  # x^2 + 3x
    tape.backward(loss)
    assert x.grad == pytest.approx(7.0)


def test_reused_tensor_gets_summed_gradient(rng):
    # the first gradient a tensor receives is stored without a copy; a
    # second contribution must still add to it, not overwrite or alias it
    # (in either order, so that some gradient is shared by two nodes when
    # the second contribution arrives)
    x0 = rng.standard_normal((3, 4))
    for first, second in ((en.add, en.mul), (en.mul, en.add)):
        x = Tensor(x0.copy(), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(en.add(first(x, x), second(x, x)))  # sum(2x + x^2)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 + 2.0 * x0, rtol=1e-15)


def test_backward_passes_on_fresh_tapes_agree():
    net = ResNetProx(blocks=2, channels=8, time_embedded=True, seed=0)
    rng = np.random.default_rng(3)
    x2 = rng.standard_normal((2, 8, 8))
    target = rng.standard_normal((2, 8, 8))
    params = net.parameters()
    passes = []
    for _ in range(2):
        for t in params.values():
            t.grad = None
        with Tape() as tape:
            loss = en.mse(net.forward(Tensor(x2), t=2), Tensor(target))
        tape.backward(loss)
        # kept without a copy: a later pass must not write into them
        passes.append({k: t.grad for k, t in params.items()})
    first, second = passes
    assert all(first[k] is not None for k in params)
    for k in params:
        assert first[k] is not second[k]
        np.testing.assert_array_equal(first[k], second[k])
