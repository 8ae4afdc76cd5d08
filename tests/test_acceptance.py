"""Acceptance suite: one test per criterion, each ending with a PASS line.

The heavyweight training comparison (criterion 9) runs once as a
module-scoped fixture; criterion 11 reads its recorded diagnostics.
"""

import time

import numpy as np
import pytest

from teunroll import metrics, prox, vamp
from teunroll import signal_model as sm
from teunroll.linops import cg_solve
from teunroll.nn import TrainableEngine, train
from teunroll.nn import engine as en
from teunroll.nn.engine import Tape, Tensor
from teunroll.nn.layers import film_modulate, film_residual_modulate, sinusoidal_encode
from teunroll.nn.networks import ResNetProx, complex_to_channels
from teunroll.unroll import run_unrolled

from oracles import (ScaledSoftThreshold, count_parameters, dense_from_probes, dense_vamp_operator,
                     fista_lasso, flat_gram, from_dense, resnet_full, spd_with_clusters, sum_all,
                     unet_full)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# 1 ------------------------------------------------------------------------

def test_criterion_1_operator_correctness():
    start = time.time()
    rng = np.random.default_rng(0)
    worst_adj = 0.0
    for draw in range(100):
        h = int(rng.integers(8, 25))
        w = int(rng.integers(8, 25))
        coils = int(rng.integers(1, 5))
        R = int(rng.integers(1, 5))
        acs = int(rng.integers(0, 4))
        if R > 1:
            mask = sm.make_random_mask(h, w, R, min(acs, w // R), seed=draw)
        else:
            mask = sm.make_equispaced_mask(h, w, 1, 0)
        sens = sm.make_smooth_sensitivities(h, w, coils, seed=1000 + draw)
        E = sm.EncodingOperator(mask, sens)
        x = sm.ComplexImage(rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w)))
        y = sm.KSpaceData(rng.standard_normal((coils, h, w)) + 1j * rng.standard_normal((coils, h, w)))
        gap = abs(np.vdot(E.forward(x).data, y.data) - np.vdot(x.data, E.adjoint(y).data))
        bound = 1e-10 * np.linalg.norm(x.data) * np.linalg.norm(y.data)
        assert gap <= bound
        worst_adj = max(worst_adj, gap / bound)

    for seed in range(10):
        rng2 = np.random.default_rng(seed)
        h = w = 16
        sens = sm.make_smooth_sensitivities(h, w, int(rng2.integers(1, 5)), seed=seed)
        E = sm.EncodingOperator(sm.make_equispaced_mask(h, w, 1, 0), sens)
        x = sm.ComplexImage(rng2.standard_normal((h, w)) + 1j * rng2.standard_normal((h, w)))
        ratio = np.linalg.norm(E.forward(x).data) / np.linalg.norm(x.data)
        assert abs(ratio - 1.0) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(1, f"100 adjoint draws (worst {worst_adj:.2e} of bound), Parseval ok, {elapsed:.2f}s")


# 2 ------------------------------------------------------------------------

def test_criterion_2_cg_against_dense_solves():
    start = time.time()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(16, 65))
        A = spd_with_clusters(n, 12, 100.0, rng)
        b = rng.standard_normal(n)
        x, rep = cg_solve(from_dense(A), b.astype(complex), max_iters=15)
        expected = np.linalg.solve(A, b)
        rel = np.linalg.norm(x - expected) / np.linalg.norm(expected)
        assert rel <= 1e-8
        assert rep.iterations_run <= 15
        worst = max(worst, rel)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(2, f"50 SPD systems, worst rel err {worst:.2e}, {elapsed:.2f}s")


# 3 ------------------------------------------------------------------------

def test_criterion_3_vamp_gaussian_prior_equivalence():
    start = time.time()
    worst = 0.0
    worst_ident = 0.0
    for shape_i, (m, n) in enumerate(((64, 128), (128, 256))):
        for seed in range(10):
            rng = np.random.default_rng(100 * shape_i + seed)
            E = rng.standard_normal((m, n)) / np.sqrt(m)
            x0 = rng.standard_normal(n)
            y = E @ x0 + 0.05 * rng.standard_normal(m)
            gamma = float(rng.uniform(0.3, 1.5))
            ridge = np.linalg.solve(E.T @ E + gamma * np.eye(n), E.T @ y)
            cfg = vamp.VampConfig(max_iters=20, damping=1.0)
            xh, diags = vamp.run_vamp(dense_vamp_operator(E), E.T @ y,
                                      prox.AnalyticProx("tikhonov", gamma=gamma), cfg)
            rel = np.linalg.norm(xh - ridge) / np.linalg.norm(ridge)
            assert rel <= 1e-6
            worst = max(worst, rel)
            for row in diags.rows:
                assert row["clamps"] == 0
                ident = abs(1.0 / row["upsilon_x"] - (row["mu_x"] + row["mu_z"]))
                assert ident <= 1e-10
                worst_ident = max(worst_ident, ident)
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(3, f"20 runs, worst rel err {worst:.2e}, precision identity {worst_ident:.1e}, {elapsed:.1f}s")


# 4 ------------------------------------------------------------------------

def test_criterion_4_vamp_sparse_recovery():
    start = time.time()
    rng = np.random.default_rng(42)
    m, n, k = 128, 256, 13
    E = rng.standard_normal((m, n)) / np.sqrt(m)
    x0 = np.zeros(n)
    x0[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
    clean = E @ x0
    sigma = np.linalg.norm(clean) / np.sqrt(m) * 10 ** (-40.0 / 20)  # SNR 40 dB
    y = clean + sigma * rng.standard_normal(m)
    # Eq.-8-style LMMSE assumes unit-variance noise, so whiten by sigma
    Ew, yw = E / sigma, y / sigma

    cfg = vamp.VampConfig(max_iters=50, damping=1.0)
    best = None
    for c in (0.5, 1.0, 2.0):
        xh, diags = vamp.run_vamp(dense_vamp_operator(Ew), Ew.T @ yw, ScaledSoftThreshold(c), cfg)
        db = 10 * np.log10(np.linalg.norm(xh - x0) ** 2 / np.linalg.norm(x0) ** 2)
        if best is None or db < best[1]:
            best = (c, db, diags.rows[-1]["mu_z"])
    c, vamp_db, mu_z_final = best
    assert vamp_db <= -30.0

    lam = (c / np.sqrt(mu_z_final)) * mu_z_final  # matched LASSO weight
    x_fista = fista_lasso(Ew, yw, lam, iters=10_000)
    fista_db = 10 * np.log10(
        np.linalg.norm(x_fista - x0) ** 2 / np.linalg.norm(x0) ** 2
    )
    assert vamp_db <= fista_db + 1.0
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(4, f"best c={c}: VAMP {vamp_db:.1f} dB vs FISTA {fista_db:.1f} dB, {elapsed:.1f}s")


# 5 ------------------------------------------------------------------------

def _fixed_point_problem():
    mask = sm.make_equispaced_mask(16, 16, 2, 4)
    sens = sm.make_smooth_sensitivities(16, 16, 1, seed=0)
    E = sm.EncodingOperator(mask, sens)
    truth = sm.make_phantom(16, 16, 5, seed=1)
    y = sm.add_noise(E.forward(truth), 0.01, seed=2, mask=mask)
    G = dense_from_probes(flat_gram(E), 256)
    rhs = E.adjoint(y).data.ravel()
    return E, y, G, rhs


def test_criterion_5_fixed_point_equivalences():
    start = time.time()
    E, y, G, rhs = _fixed_point_problem()
    gamma = 0.8
    T = 200
    p = prox.AnalyticProx("tikhonov", gamma=gamma)
    results = []

    mu = 0.4
    lam_eff = mu * gamma / (1 + gamma)
    img, _ = run_unrolled("vsqp", E, y, [mu] * T, lambda img, t: p.apply(img))
    expected = np.linalg.solve(G + lam_eff * np.eye(256), rhs)
    rel = np.linalg.norm(img.data.ravel() - expected) / np.linalg.norm(expected)
    assert rel <= 1e-6
    results.append(("vsqp", rel))

    # ADMM with lam = mu = 1: fixed point is the gamma-ridge solution
    img, _ = run_unrolled("admm", E, y, [1.0] * T, lambda img, t: p.apply(img), lam=[1.0] * T)
    expected = np.linalg.solve(G + gamma * np.eye(256), rhs)
    rel = np.linalg.norm(img.data.ravel() - expected) / np.linalg.norm(expected)
    assert rel <= 1e-6
    results.append(("admm", rel))

    # Alg. 1 at fixed (mu, rho): effective ridge weight mu*gamma/(1+gamma+rho)
    mu, rho = 0.4, 0.2
    lam_eff = mu * gamma / (1 + gamma + rho)
    img, _ = run_unrolled("alg1", E, y, [mu] * T, lambda img, t: p.apply(img), rho=[rho] * T)
    expected = np.linalg.solve(G + lam_eff * np.eye(256), rhs)
    rel = np.linalg.norm(img.data.ravel() - expected) / np.linalg.norm(expected)
    assert rel <= 1e-6
    results.append(("alg1", rel))

    elapsed = time.time() - start
    assert elapsed < 60.0
    detail = ", ".join(f"{name} {rel:.1e}" for name, rel in results)
    report(5, f"{detail}, {elapsed:.1f}s")


# 6 ------------------------------------------------------------------------

class _Capture:
    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def __call__(self, img, t):
        self.seen.append(np.array(img, copy=True))
        return self.inner.apply(img)


def test_criterion_6_reduction_lattice():
    start = time.time()
    mask = sm.make_equispaced_mask(16, 16, 2, 4)
    sens = sm.make_smooth_sensitivities(16, 16, 2, seed=3)
    E = sm.EncodingOperator(mask, sens)
    truth = sm.make_phantom(16, 16, 5, seed=4)
    y = sm.add_noise(E.forward(truth), 0.01, seed=5, mask=mask)
    T = 10
    mu_varying = np.linspace(0.05, 0.3, T)
    mu_const, lam_const = [0.07] * T, [0.1] * T

    # alg1 with rho = 0 vs vsqp_te, trajectory equality through prox inputs
    pa, pv = (_Capture(prox.AnalyticProx("tikhonov", gamma=0.8)),
              _Capture(prox.AnalyticProx("tikhonov", gamma=0.8)))
    img_a, _ = run_unrolled("alg1", E, y, mu_varying, pa, rho=[0.0] * T)
    img_v, _ = run_unrolled("vsqp_te", E, y, mu_varying, pv)
    assert np.array_equal(img_a.data, img_v.data)
    assert len(pa.seen) == len(pv.seen) == T
    for a, b in zip(pa.seen, pv.seen):
        assert np.array_equal(a, b)

    # te engines with constant schedules vs static baselines
    for te_name, st_name in (("vsqp_te", "vsqp"), ("admm_te", "admm")):
        pt, ps = (_Capture(prox.AnalyticProx("tikhonov", gamma=1.1)),
                  _Capture(prox.AnalyticProx("tikhonov", gamma=1.1)))
        img_t, _ = run_unrolled(te_name, E, y, mu_const, pt, lam=lam_const)
        img_s, _ = run_unrolled(st_name, E, y, mu_const, ps, lam=lam_const)
        assert np.array_equal(img_t.data, img_s.data)
        for a, b in zip(pt.seen, ps.seen):
            assert np.array_equal(a, b)
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(6, f"bit-exact trajectories over T={T} unrolls, {elapsed:.1f}s")


# 7 ------------------------------------------------------------------------

def test_criterion_7_autodiff_finite_differences():
    start = time.time()
    rng = np.random.default_rng(11)

    def check(fn, x_data, rel_tol, n_coords=6):
        probe = rng.standard_normal(fn(Tensor(x_data)).shape)
        x = Tensor(x_data.copy(), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(en.mul(fn(x), Tensor(probe)))
        tape.backward(loss)
        h = 1e-5
        for i in rng.choice(x_data.size, size=min(n_coords, x_data.size), replace=False):
            ix = np.unravel_index(i, x_data.shape)
            xp, xm = x_data.copy(), x_data.copy()
            xp[ix] += h
            xm[ix] -= h
            num = (float(np.sum(fn(Tensor(xp)).data * probe))
                   - float(np.sum(fn(Tensor(xm)).data * probe))) / (2 * h)
            scale = max(abs(num), abs(x.grad[ix]), 1e-4)
            assert abs(num - x.grad[ix]) / scale <= rel_tol

    w3 = rng.standard_normal((3, 4, 3, 3)) * 0.4
    sym = rng.standard_normal((6, 6))
    sym = sym + sym.T
    c_mul = rng.standard_normal((4, 5))
    c_div = np.abs(rng.standard_normal((4, 5))) + 1.0
    c_mat = rng.standard_normal((3, 6))
    ops = [
        (lambda x: en.add(x, Tensor(np.arange(5.0))), (4, 5)),
        (lambda x: en.sub(Tensor(np.ones((4, 5))), x), (4, 5)),
        (lambda x: en.mul(x, Tensor(c_mul)), (4, 5)),
        (lambda x: en.div(x, Tensor(c_div)), (4, 5)),
        (lambda x: en.matmul(Tensor(c_mat), x), (6,)),
        (lambda x: en.conv2d(x, Tensor(w3)), (4, 6, 6)),
        (lambda x: en.relu(x), (4, 5)),
        (lambda x: en.silu(x), (4, 5)),
        (lambda x: en.group_norm(x, 2), (4, 6, 6)),
        (lambda x: en.mean(x), (4, 5)),
        (lambda x: en.mse(x, Tensor(np.zeros((4, 5)))), (4, 5)),
        (lambda x: en.concat([x, x]), (2, 4, 4)),
        (lambda x: en.avg_pool2(x), (3, 8, 8)),
        (lambda x: en.upsample_nearest2(x), (3, 4, 4)),
        (lambda x: en.linear_selfadjoint(x, lambda v: sym @ v), (6,)),
    ]
    for fn, shape in ops:
        check(fn, rng.standard_normal(shape), rel_tol=1e-6)

    # whole toy time-embedded network, 50 sampled parameter coordinates
    net = ResNetProx(blocks=2, channels=8, time_embedded=True, seed=0)
    for name, t in net.parameters().items():
        if ".film." in name and name.endswith(".w"):
            t.data = rng.standard_normal(t.data.shape) * 0.05
    x2 = complex_to_channels(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    target = rng.standard_normal((2, 8, 8))
    params = net.parameters()
    with Tape() as tape:
        loss = en.mse(net.forward(Tensor(x2), t=2), Tensor(target))
    tape.backward(loss)

    def loss_value():
        return float(np.mean((net.forward(Tensor(x2), t=2).data - target) ** 2))

    names = list(params)
    checked = 0
    h = 1e-5
    while checked < 50:
        name = names[int(rng.integers(len(names)))]
        tensor = params[name]
        if tensor.grad is None:
            continue
        ix = np.unravel_index(int(rng.integers(tensor.data.size)), tensor.data.shape)
        saved = tensor.data[ix]
        tensor.data[ix] = saved + h
        fp = loss_value()
        tensor.data[ix] = saved - h
        fm = loss_value()
        tensor.data[ix] = saved
        num = (fp - fm) / (2 * h)
        scale = max(abs(num), abs(tensor.grad[ix]), 1e-4)
        assert abs(num - tensor.grad[ix]) / scale <= 1e-5
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(7, f"{len(ops)} primitives + 50 net coordinates, {elapsed:.1f}s")


# 8 ------------------------------------------------------------------------

def test_criterion_8_film_and_time_embedding():
    start = time.time()
    rng = np.random.default_rng(12)
    f = rng.standard_normal((4, 6, 6))
    alpha, beta = rng.standard_normal((2, 4))

    out = film_modulate(Tensor(f), Tensor(np.ones(4)), Tensor(np.zeros(4)), 2)
    assert np.array_equal(out.data, en.group_norm(Tensor(f), 2).data)
    out = film_modulate(Tensor(f), Tensor(np.zeros(4)), Tensor(beta), 2)
    assert np.array_equal(out.data, np.broadcast_to(beta[:, None, None], f.shape))
    out = film_residual_modulate(Tensor(f), Tensor(alpha), Tensor(beta), 0.0, 2)
    assert np.array_equal(out.data, f)

    codes = np.stack([sinusoidal_encode(t) for t in range(64)])
    dists = np.linalg.norm(codes[:, None] - codes[None, :], axis=-1)
    assert np.all(dists[np.triu_indices(64, 1)] > 0)

    net = ResNetProx(blocks=2, channels=8, time_embedded=True, seed=1)
    for name, t in net.parameters().items():
        if ".film." in name and name.endswith(".w"):
            t.data = rng.standard_normal(t.data.shape) * 0.1
    img = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert np.linalg.norm(net.apply_complex(img, 0) - net.apply_complex(img, 5)) > 0
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(8, f"identity reductions exact, encoder injective, t-sensitivity ok, {elapsed:.1f}s")


# 9 + 11 --------------------------------------------------------------------

@pytest.fixture(scope="module")
def directional_experiment():
    start = time.time()
    mask = sm.make_equispaced_mask(32, 32, 4, 4)
    sens = sm.make_smooth_sensitivities(32, 32, 4, seed=0)
    E = sm.EncodingOperator(mask, sens)

    def make_set(count, img_seed0, noise_seed0):
        out = []
        for i in range(count):
            truth = sm.make_phantom(32, 32, 6, seed=img_seed0 + i)
            y = sm.add_noise(E.forward(truth), 0.01, seed=noise_seed0 + i, mask=mask)
            out.append((truth, y))
        return out

    train_set = make_set(200, 0, 100_000)
    test_set = make_set(50, 10_000, 200_000)
    train_data = [(E, y, truth) for truth, y in train_set]

    shared = TrainableEngine("vsqp", T=5, sharing="shared", arch="resnet", seed=0,
                             blocks=3, channels=16, mu_init=5e-2)
    te = TrainableEngine("alg1", T=5, sharing="time_embedded", arch="resnet", seed=0,
                         blocks=3, channels=16, mu_init=1.5e-2, rho_init=0.1)
    train(shared, train_data, epochs=4, lr=5e-4, seed=0)
    train(te, train_data, epochs=4, lr=5e-4, seed=0)

    def evaluate(engine):
        psnrs, gaps = [], []
        for truth, y in test_set:
            img, diags = engine.run(E, y)
            psnrs.append(metrics.psnr(np.abs(truth.data), np.abs(img.data)))
            gaps.append([row["x_u_nmse"] for row in diags.rows])
        return float(np.mean(psnrs)), gaps

    psnr_shared, _ = evaluate(shared)
    psnr_te, te_gaps = evaluate(te)
    psnr_zf = float(np.mean(
        [metrics.psnr(np.abs(t.data), np.abs(E.adjoint(y).data)) for t, y in test_set]
    ))

    def schedule(engine):
        """The learned per-unroll scalars, as the report line prints them."""
        text = "mu_t " + "/".join(f"{float(v.data):.4g}" for v in engine.mu_t)
        rho = engine.rho_t
        return text + ("; rho_t " + "/".join(f"{float(v.data):.3g}" for v in rho) if rho else "")

    return {
        "psnr_shared": psnr_shared,
        "psnr_te": psnr_te,
        "psnr_zf": psnr_zf,
        "schedule_shared": schedule(shared),
        "schedule_te": schedule(te),
        "te_gaps": te_gaps,
        "elapsed": time.time() - start,
    }


@pytest.mark.slow
def test_criterion_9_te_vs_shared_directional(directional_experiment):
    r = directional_experiment
    assert r["psnr_te"] >= r["psnr_shared"] - 0.2
    assert r["psnr_shared"] >= r["psnr_zf"] + 3.0
    assert r["psnr_te"] >= r["psnr_zf"] + 3.0
    assert r["elapsed"] < 1800.0
    report(
        9,
        f"zero-filled {r['psnr_zf']:.2f} dB, shared {r['psnr_shared']:.2f} dB "
        f"({r['schedule_shared']}), TE {r['psnr_te']:.2f} dB ({r['schedule_te']}), "
        f"{r['elapsed']:.0f}s",
    )


# 10 -------------------------------------------------------------------------

def test_criterion_10_parameter_accounting():
    start = time.time()
    resnet = count_parameters(resnet_full().parameters())
    unet = count_parameters(unet_full().parameters())
    assert 0.5 * 592_129 <= resnet <= 2.0 * 592_129
    assert 0.5 * 1_724_035 <= unet <= 2.0 * 1_724_035
    resnet_te = count_parameters(resnet_full(time_embedded=True).parameters())
    unet_te = count_parameters(unet_full(time_embedded=True).parameters())
    assert resnet_te <= 1.5 * resnet
    assert unet_te <= 1.5 * unet
    unshared = sum(count_parameters(resnet_full(seed=i).parameters()) for i in range(10))
    assert 9 * resnet <= unshared <= 11 * resnet
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(
        10,
        f"resnet {resnet} ({resnet / 592_129:.2f}x), unet {unet} "
        f"({unet / 1_724_035:.2f}x), TE ratios {resnet_te / resnet:.2f}/"
        f"{unet_te / unet:.2f}, unshared 10.00x, {elapsed:.1f}s",
    )


# 11 -------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_11_onsager_gap_diagnostic(directional_experiment):
    gaps = directional_experiment["te_gaps"]
    worst_tail = 0.0
    for per_slice in gaps:
        assert all(np.isfinite(g) for g in per_slice)
        for g in per_slice[1:]:
            assert g <= 0.1
            worst_tail = max(worst_tail, g)
    report(11, f"gap finite everywhere, max after unroll 1 = {worst_tail:.2e}")
