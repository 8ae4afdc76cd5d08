import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teunroll import signal_model as sm
from teunroll.linops import cg_solve, from_dense
from teunroll.nn import TrainableEngine, TrainingError, train
from teunroll.nn import engine as en
from teunroll.nn.engine import Tensor
from teunroll.nn.networks import channels_to_complex
from teunroll.nn.networks import load_checkpoint, save_checkpoint
from teunroll.nn.training import SHARING_MODES, cg_tape
from teunroll.unroll import ALGORITHMS, run_unrolled

from oracles import cg_tape_reference, spd_with_clusters


def _toy_problem(h=16, w=16, coils=2, seeds=(0, 1, 2)):
    mask = sm.make_equispaced_mask(h, w, 2, 4)
    sens = sm.make_smooth_sensitivities(h, w, coils, seed=seeds[0])
    E = sm.EncodingOperator(mask, sens)
    truth = sm.make_phantom(h, w, 5, seed=seeds[1])
    y = sm.add_noise(E.forward(truth), 0.01, seed=seeds[2], mask=mask)
    return E, y, truth


def test_cg_tape_matches_plain_cg():
    rng = np.random.default_rng(0)
    A = spd_with_clusters(20, 8, 30.0, rng)
    b = rng.standard_normal(20)
    x_tape = cg_tape(lambda v: en.linear_selfadjoint(v, lambda d: A @ d),
                     Tensor(b), iters=20)
    x_ref, _ = cg_solve(from_dense(A), b.astype(complex), max_iters=20, tol=0.0)
    assert np.linalg.norm(x_tape.data - x_ref.real) <= 1e-10 * np.linalg.norm(x_ref)


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    mu=st.floats(1e-3, 10.0),
    iters=st.integers(1, 15),
    seed=st.integers(0, 10_000),
)
def test_cg_tape_matches_composed_reference(h, w, mu, iters, seed):
    """The fused dot/axpy CG reproduces the primitive-composed one: the
    same output bits, and gradients for b and mu to rounding."""
    rng = np.random.default_rng(seed)
    n = 2 * h * w
    A = spd_with_clusters(n, min(n, 6), 50.0, rng) * 0.02
    b0 = rng.standard_normal((2, h, w))
    probe = rng.standard_normal((2, h, w))

    def gram(d):
        return (A @ d.ravel()).reshape(d.shape)

    def run(solver, apply_A_of):
        b = Tensor(b0.copy(), requires_grad=True)
        m = Tensor(np.float64(mu), requires_grad=True)
        with en.Tape() as tape:
            x = solver(apply_A_of(m), b, iters)
            loss = en.sum_all(en.mul(x, Tensor(probe)))
        tape.backward(loss)
        return x.data, b.grad, m.grad

    # the training engine's operator and the one it replaced
    fused = run(cg_tape, lambda m: lambda v: en.axpy(m, v, en.linear_selfadjoint(v, gram)))
    composed = run(cg_tape_reference,
                   lambda m: lambda v: en.add(en.linear_selfadjoint(v, gram), en.mul(m, v)))
    assert fused[0].tobytes() == composed[0].tobytes()
    for got, want in zip(fused[1:], composed[1:]):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _taped(eng, E, y):
    """The training forward's output as a complex image."""
    return channels_to_complex(eng.forward(E, y).data)


def test_tape_engine_agrees_with_inference_engine():
    E, y, truth = _toy_problem()
    eng = TrainableEngine("alg1", T=3, cg_iters=15, sharing="time_embedded",
                          arch="resnet", seed=0, blocks=2, channels=8)
    img = eng.reconstruct(E, y)
    gap = np.linalg.norm(_taped(eng, E, y) - img.data) / np.linalg.norm(img.data)
    assert gap <= 1e-12


@pytest.mark.parametrize("sharing", SHARING_MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=8, deadline=None)
@given(T=st.integers(1, 3), seed=st.integers(0, 2**16),
       shape=st.sampled_from([(16, 16), (16, 24), (24, 16)]))
def test_tape_engine_equals_run_unrolled_everywhere(algorithm, sharing, T, seed, shape):
    E, y, truth = _toy_problem(*shape)
    eng = TrainableEngine(algorithm, T=T, cg_iters=15, sharing=sharing,
                          arch="resnet", seed=seed, blocks=1, channels=4)
    rng = np.random.default_rng(seed)
    for t in eng.mu:
        t.data = np.float64(rng.uniform(0.01, 0.2))
    for t in eng.rho + eng.lam:
        t.data = np.float64(rng.uniform(-0.2, 0.5))
    calls = []
    for net in eng.networks:
        def counted(img, t, apply=net.apply_complex):
            calls.append(t)
            return apply(img, t)

        net.apply_complex = counted
    img, _ = eng.run(E, y)
    assert np.linalg.norm(_taped(eng, E, y) - img.data) <= 1e-12 * np.linalg.norm(img.data)
    assert calls == list(range(T - 1))


@pytest.mark.parametrize("arch, arch_kwargs", [("resnet", {"blocks": 1, "channels": 4}),
                                               ("unet", {"base_channels": 4, "res_blocks": 1})])
@pytest.mark.parametrize("sharing", SHARING_MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_skips_only_the_dead_last_network_call(algorithm, sharing, arch, arch_kwargs):
    """engine.run calls the networks at t < T-1 only, and its image and
    diagnostics are exactly those of a run that also makes the last call."""
    E, y, truth = _toy_problem(16, 24)
    T = 3
    eng = TrainableEngine(algorithm, T=T, cg_iters=15, sharing=sharing, arch=arch,
                          seed=0, **arch_kwargs)
    # jitter every weight so that the zero-initialized FiLM heads and the
    # residual branches move the output
    rng = np.random.default_rng(4)
    for t in eng.parameters().values():
        t.data = t.data + 0.05 * rng.standard_normal(t.data.shape)
    eng.project()
    calls = []

    def every_unroll(img, t):
        calls.append(t)
        return eng._net_at(t).apply_complex(img, t)

    mu, rho, lam = ([float(v.data) for v in vals] for vals in eng._per_unroll())
    want_img, want_diags = run_unrolled(algorithm, E, y, mu, every_unroll, rho=rho, lam=lam,
                                        reference=truth)
    assert calls == list(range(T))
    calls.clear()
    for net in eng.networks:
        def counted(img, t, apply=net.apply_complex):
            calls.append(t)
            return apply(img, t)

        net.apply_complex = counted
    img, diags = eng.run(E, y, reference=truth)
    assert calls == list(range(T - 1))
    assert np.array_equal(img.data, want_img.data)
    assert diags.columns == want_diags.columns and diags.rows == want_diags.rows


def test_zero_epoch_training_is_identity():
    E, y, truth = _toy_problem()
    eng = TrainableEngine("vsqp", T=2, sharing="shared", arch="resnet",
                          seed=0, blocks=1, channels=4)
    before = {k: t.data.copy() for k, t in eng.parameters().items()}
    curve = train(eng, [(E, y, truth)], epochs=0, lr=1e-3)
    assert curve == []
    for k, t in eng.parameters().items():
        np.testing.assert_array_equal(t.data, before[k])


def test_overfit_single_sample():
    E, y, truth = _toy_problem()
    eng = TrainableEngine("alg1", T=2, cg_iters=10, sharing="time_embedded",
                          arch="resnet", seed=0, blocks=2, channels=8)
    curve = train(eng, [(E, y, truth)], epochs=500, lr=2e-3, seed=0)
    assert curve[-1] <= curve[0] / 10.0


def test_training_is_deterministic():
    def run():
        E, y, truth = _toy_problem()
        eng = TrainableEngine("vsqp_te", T=2, sharing="time_embedded",
                              arch="resnet", seed=3, blocks=1, channels=4)
        curve = train(eng, [(E, y, truth)], epochs=5, lr=1e-3, seed=11)
        return curve, {k: t.data.copy() for k, t in eng.parameters().items()}

    c1, p1 = run()
    c2, p2 = run()
    assert c1 == c2
    for k in p1:
        np.testing.assert_array_equal(p1[k], p2[k])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_reports_sample_index():
    E, y, truth = _toy_problem()
    eng = TrainableEngine("vsqp", T=2, sharing="shared", arch="resnet",
                          seed=0, blocks=1, channels=4)
    eng.mu[0].data = np.float64(np.inf)
    with pytest.raises(TrainingError, match="sample 0"):
        train(eng, [(E, y, truth)], epochs=1, lr=1e-3, shuffle=False)


def test_mu_projection_keeps_floor():
    E, y, truth = _toy_problem()
    eng = TrainableEngine("vsqp", T=2, sharing="shared", arch="resnet",
                          seed=0, blocks=1, channels=4, mu_init=2e-6)
    train(eng, [(E, y, truth)], epochs=3, lr=1e-1, seed=0)
    assert float(eng.mu[0].data) >= 1e-6


def test_gradients_reach_scalars_and_networks():
    E, y, truth = _toy_problem()
    for algorithm, sharing in (("alg1", "time_embedded"), ("admm", "shared"),
                               ("admm_te", "time_embedded"), ("vsqp", "unshared")):
        eng = TrainableEngine(algorithm, T=2, cg_iters=8, sharing=sharing,
                              arch="resnet", seed=0, blocks=1, channels=4)
        from teunroll.nn.engine import Tape
        from teunroll.nn.networks import complex_to_channels

        with Tape() as tape:
            out = eng.forward(E, y)
            loss = en.mse(out, Tensor(complex_to_channels(truth.data)))
        tape.backward(loss)
        # the last unroll's prox tail is dead wrt the returned x, so its
        # Onsager weight stays untrained; everything else must have grads
        live = eng.mu + eng.rho[:-1] + eng.lam
        for t in live:
            assert t.grad is not None and np.isfinite(t.grad)
        grads = [t.grad for t in eng.networks[0].parameters().values()]
        assert any(g is not None and np.any(g != 0) for g in grads)


def test_epoch_peak_memory_does_not_grow_with_samples():
    # a sample's graph must be freed before the next sample's forward runs,
    # so an epoch's peak is that of one step whatever the epoch's length
    data = [_toy_problem(32, 32, 4, seeds=(0, s, s)) for s in (1, 2, 3)]
    peaks = []
    for n in (1, 3):
        eng = TrainableEngine("alg1", T=5, cg_iters=15, sharing="time_embedded",
                              arch="resnet", blocks=3, channels=16)
        tracemalloc.start()
        try:
            train(eng, data[:n], epochs=1, lr=1e-3, shuffle=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def test_checkpoint_round_trip_and_mismatch(tmp_path):
    eng = TrainableEngine("alg1", T=2, sharing="time_embedded", arch="resnet",
                          seed=0, blocks=1, channels=4)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, eng.parameters())
    state = load_checkpoint(ckpt)
    eng2 = TrainableEngine("alg1", T=2, sharing="time_embedded", arch="resnet",
                           seed=99, blocks=1, channels=4)
    eng2.load_state(state)
    for k, t in eng.parameters().items():
        np.testing.assert_array_equal(t.data, eng2.parameters()[k].data)

    wrong = TrainableEngine("alg1", T=2, sharing="time_embedded", arch="resnet",
                            seed=0, blocks=1, channels=8)
    with pytest.raises(ValueError):
        wrong.load_state(state)
    # names the engine lacks are rejected too: alg1's rho_t in a vsqp_te
    # engine, time and FiLM weights in a static network
    for algorithm, sharing, extra in (("vsqp_te", "time_embedded", "rho.0000"),
                                      ("alg1", "shared", "net.block0.film")):
        narrower = TrainableEngine(algorithm, T=2, sharing=sharing, arch="resnet",
                                   seed=0, blocks=1, channels=4)
        with pytest.raises(ValueError, match=extra):
            narrower.load_state(state)


def test_unshared_engine_has_t_networks():
    eng = TrainableEngine("vsqp", T=3, sharing="unshared", arch="resnet",
                          seed=0, blocks=1, channels=4)
    assert len(eng.networks) == 3
    single = eng.networks[0].count_parameters()
    assert eng.count_parameters() == 3 * single + 1  # plus the shared mu scalar
