import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teunroll import signal_model as sm
from teunroll.linops import cg_solve
from teunroll.nn import TrainableEngine, TrainingError, train
from teunroll.nn import engine as en
from teunroll.nn.engine import Tensor
from teunroll.nn.networks import build_network, channels_to_complex, complex_to_channels
from teunroll.nn.networks import load_checkpoint, save_checkpoint
from teunroll.nn.training import SHARING_MODES, cg_tape, normal_fn
from teunroll.unroll import ALGORITHMS, run_unrolled

from oracles import (cg_tape_reference, count_parameters, from_dense, problems, spd_with_clusters,
                     sum_all)


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
            loss = sum_all(en.mul(x, Tensor(probe)))
        tape.backward(loss)
        return x.data, b.grad, m.grad

    # the training engine's operator and the one it replaced
    fused = run(cg_tape, lambda m: lambda v: en.axpy(m, v, en.linear_selfadjoint(v, gram)))
    composed = run(cg_tape_reference,
                   lambda m: lambda v: en.add(en.linear_selfadjoint(v, gram), en.mul(m, v)))
    assert fused[0].tobytes() == composed[0].tobytes()
    for got, want in zip(fused[1:], composed[1:]):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


# The gradient checks below compare a taped derivative with a central
# difference of the loss.  The gap is taken relative to the larger of the
# two derivatives and the loss itself: a derivative far below the loss is
# zero to the precision that a difference resolves (a fully sampled T=1
# engine's loss does not depend on mu at all).  The suite's hypothesis
# profile fixes the draw (tests/conftest.py), so the worst case written
# beside each bound is that of the examples the test runs; over 400 random
# examples it was 1.1e-8 for the engine and 3.9e-9 for CG.
FD_STEP = 1e-6
NETWORKS = [("resnet", {"blocks": 1, "channels": 4}, 1),
            ("unet", {"base_channels": 4, "res_blocks": 1}, 4)]  # (arch, kwargs, side step)


def _gap(taped, central, loss):
    return abs(taped - central) / max(abs(taped), abs(central), abs(loss))


def _draw_scalar(rng, name):
    """A random value for the scalar parameter ``name``: a positive mu, and
    an Onsager weight or dual step of either sign."""
    if name.startswith("mu."):
        return np.float64(rng.uniform(0.01, 0.2))
    return np.float64(rng.uniform(-0.2, 0.5))


def _networks(eng):
    """Each distinct network of ``eng.net_t`` once, in call order."""
    return list({id(net): net for net in eng.net_t}.values())


@settings(max_examples=40, deadline=None)
@given(algorithm=st.sampled_from(ALGORITHMS), sharing=st.sampled_from(SHARING_MODES),
       network=st.sampled_from(NETWORKS), T=st.integers(1, 3), seed=st.integers(0, 2**16),
       data=st.data())
def test_engine_gradient_matches_central_difference(algorithm, sharing, network, T, seed,
                                                     data):
    """<grad L, d> of the taped engine equals a central difference of the
    loss along a random direction d over every parameter at once, so the
    networks, the per-unroll scalars and the CG solves all enter.  Each
    parameter's part of d is scaled to that parameter's size."""
    arch, arch_kwargs, step = network
    E, y = data.draw(problems(max_side=12, max_coils=3, step=step))
    target = Tensor(complex_to_channels(sm.make_phantom(*E.shape, 5, seed=seed).data))
    eng = TrainableEngine(algorithm, T=T, cg_iters=6, sharing=sharing, arch=arch,
                          seed=seed, **arch_kwargs)
    rng = np.random.default_rng(seed)
    # jitter the weights so that the zero-initialized FiLM heads act
    for name, t in eng.parameters().items():
        if name.startswith("net"):
            t.data = t.data + 0.05 * rng.standard_normal(t.data.shape)
        else:
            t.data = _draw_scalar(rng, name)
    params = eng.parameters()
    with en.Tape() as tape:
        loss = en.mse(eng.forward(E, y), target)
    tape.backward(loss)
    base = {k: t.data for k, t in params.items()}
    direction = {k: rng.standard_normal(v.shape) * max(np.sqrt(np.mean(v * v)), 1e-3)
                 for k, v in base.items()}
    taped = sum(float(np.sum(params[k].grad * d)) for k, d in direction.items())

    def loss_at(s):
        for k, t in params.items():
            t.data = base[k] + s * direction[k]
        return float(en.mse(eng.forward(E, y), target).data)

    central = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2 * FD_STEP)
    # measured worst case 1.3e-9
    assert _gap(taped, central, loss.data) <= 1e-6, (taped, central)


@settings(max_examples=40, deadline=None)
@given(problem=problems(max_side=16, max_coils=3), mu=st.floats(1e-3, 1.0),
       iters=st.integers(1, 15), seed=st.integers(0, 2**16))
def test_cg_mu_gradient_matches_central_difference(problem, mu, iters, seed):
    """d loss / d mu through the taped fixed-budget CG of (E^H E + mu I):
    the derivative of the truncated recursion, which a hand-written CG
    backward must reproduce.  The step in mu is absolute, small against
    the Gram's largest eigenvalue (1 for normalized coil maps)."""
    E, y = problem
    fn = normal_fn(E)
    rhs = Tensor(complex_to_channels(E.adjoint(y).data))
    target = Tensor(complex_to_channels(sm.make_phantom(*E.shape, 5, seed=seed).data))

    def loss_of(m):
        x = cg_tape(lambda v: en.axpy(m, v, en.linear_selfadjoint(v, fn)), rhs, iters)
        return en.mse(x, target)

    m = Tensor(np.float64(mu), requires_grad=True)
    with en.Tape() as tape:
        loss = loss_of(m)
    tape.backward(loss)
    central = (float(loss_of(Tensor(mu + FD_STEP)).data)
               - float(loss_of(Tensor(mu - FD_STEP)).data)) / (2 * FD_STEP)
    # measured worst case 1.1e-9
    assert _gap(float(m.grad), central, loss.data) <= 1e-6, (float(m.grad), central)


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
    for name, t in eng.parameters().items():
        if not name.startswith("net"):
            t.data = _draw_scalar(rng, name)
    calls = []
    for net in _networks(eng):
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
    diagnostics are exactly those of a run whose last prox returns zeros:
    nothing downstream reads the last prox output."""
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
        if t == T - 1:
            return np.zeros_like(img)
        return eng.net_t[t].apply_complex(img, t)

    mu, rho, lam = ([float(v.data) for v in vals] for vals in (eng.mu_t, eng.rho_t, eng.lam_t))
    want_img, want_diags = run_unrolled(algorithm, E, y, mu, every_unroll, rho=rho, lam=lam,
                                        reference=truth)
    assert calls == list(range(T))
    calls.clear()
    for net in _networks(eng):
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
    eng.mu_t[0].data = np.float64(np.inf)
    with pytest.raises(TrainingError, match="sample 0"):
        train(eng, [(E, y, truth)], epochs=1, lr=1e-3)


def test_mu_projection_keeps_floor():
    E, y, truth = _toy_problem()
    eng = TrainableEngine("vsqp", T=2, sharing="shared", arch="resnet",
                          seed=0, blocks=1, channels=4, mu_init=2e-6)
    train(eng, [(E, y, truth)], epochs=3, lr=1e-1, seed=0)
    assert float(eng.mu_t[0].data) >= 1e-6


def test_gradients_reach_scalars_and_networks():
    E, y, truth = _toy_problem()
    for algorithm, sharing in (("alg1", "time_embedded"), ("admm", "shared"),
                               ("admm_te", "time_embedded"), ("vsqp", "unshared")):
        eng = TrainableEngine(algorithm, T=2, cg_iters=8, sharing=sharing,
                              arch="resnet", seed=0, blocks=1, channels=4)
        with en.Tape() as tape:
            out = eng.forward(E, y)
            loss = en.mse(out, Tensor(complex_to_channels(truth.data)))
        tape.backward(loss)
        for t in eng.parameters().values():
            assert t.grad is not None and np.all(np.isfinite(t.grad))
        grads = [t.grad for t in eng.net_t[0].parameters().values()]
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
            train(eng, data[:n], epochs=1, lr=1e-3)
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


def test_unshared_engine_has_one_network_per_call():
    # T unrolls make T-1 network calls (the last unroll's is dead)
    eng = TrainableEngine("vsqp", T=3, sharing="unshared", arch="resnet",
                          seed=0, blocks=1, channels=4)
    assert len(_networks(eng)) == 2
    single = count_parameters(eng.net_t[0].parameters())
    assert count_parameters(eng.parameters()) == 2 * single + 1  # plus the shared mu scalar


@pytest.mark.parametrize("sharing", SHARING_MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_parameter_names_follow_the_documented_rule(algorithm, sharing):
    """Checkpoint names and their order, as the README states them: the
    networks (none at T=1; ``net.*`` for one, ``net{i}.*`` for several),
    then ``mu.*``, ``rho.*`` and ``lam.*``."""
    net_names = list(build_network("resnet", time_embedded=sharing == "time_embedded",
                                   blocks=1, channels=4).parameters())
    for T in (1, 2, 3):
        eng = TrainableEngine(algorithm, T=T, sharing=sharing, arch="resnet",
                              seed=0, blocks=1, channels=4)
        if T == 1:
            prefixes = []
        elif sharing == "unshared" and T >= 3:
            prefixes = [f"net{i}" for i in range(T - 1)]
        else:
            prefixes = ["net"]
        want = [f"{prefix}.{name}" for prefix in prefixes for name in net_names]
        n_mu = T if algorithm in ("alg1", "vsqp_te", "admm_te") else 1
        want += [f"mu.{i:04d}" for i in range(n_mu)]
        if algorithm == "alg1":
            want += [f"rho.{i:04d}" for i in range(T - 1)]
        if algorithm in ("admm", "admm_te") and T > 1:
            want += ["lam.0000"]
        assert list(eng.parameters()) == want, T


@pytest.mark.parametrize("arch, arch_kwargs", [("resnet", {"blocks": 1, "channels": 4}),
                                               ("unet", {"base_channels": 4, "res_blocks": 1})])
@pytest.mark.parametrize("sharing", SHARING_MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_parameter_reaches_the_output(algorithm, sharing, arch, arch_kwargs):
    """One taped step leaves a finite gradient on every parameter: an engine
    holds no network or scalar that cannot move its output."""
    E, y, truth = _toy_problem()
    target = Tensor(complex_to_channels(truth.data))
    for T in (1, 2, 3):
        eng = TrainableEngine(algorithm, T=T, cg_iters=4, sharing=sharing, arch=arch,
                              seed=0, **arch_kwargs)
        with en.Tape() as tape:
            loss = en.mse(eng.forward(E, y), target)
        tape.backward(loss)
        dead = [name for name, t in eng.parameters().items()
                if t.grad is None or not np.all(np.isfinite(t.grad))]
        assert not dead, (T, dead)
