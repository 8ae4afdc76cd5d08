import numpy as np
import pytest

from teunroll import prox, unroll, vamp
from teunroll import signal_model as sm
from teunroll.linops import cg_solve, normal_map_of, shifted

from oracles import dense_from_probes


def _problem(h=16, w=16, coils=1, R=2, acs=4, noise=0.01, seeds=(0, 1, 2)):
    mask = sm.make_equispaced_mask(h, w, R, acs)
    sens = sm.make_smooth_sensitivities(h, w, coils, seed=seeds[0])
    E = sm.EncodingOperator(mask, sens)
    truth = sm.make_phantom(h, w, 5, seed=seeds[1])
    y = sm.add_noise(E.forward(truth), noise, seed=seeds[2], mask=mask)
    return E, truth, y


def _dense_ridge(E, y, lam_eff):
    n = E.shape[0] * E.shape[1]
    G = dense_from_probes(normal_map_of(E).apply, n)
    rhs = E.adjoint(y).data.ravel()
    return np.linalg.solve(G + lam_eff * np.eye(n), rhs)


class CapturingProx:
    """Wraps an analytic prox and records every input it sees and every
    output it returns."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []
        self.out = []

    def apply(self, u, noise_precision=1.0):
        self.seen.append(np.array(u, copy=True))
        self.out.append(self.inner.apply(u, noise_precision))
        return self.out[-1]


class FixedProx:
    """Returns one fixed image whatever it is given."""

    def __init__(self, image):
        self.image = image

    def apply(self, u, noise_precision=1.0):
        return self.image.ravel()


def _constant_schedules(T, **values):
    return {k: unroll.ScalarSchedule.constant(v, T) for k, v in values.items()}


# -- single iterations ---------------------------------------------------

def test_vsqp_identity_prox_reaches_normal_equations():
    E, truth, y = _problem()
    cfg = unroll.UnrollConfig("vsqp", T=50, cg_iters=15, sharing="shared")
    x, _ = unroll.run_unrolled(cfg, E, y, _constant_schedules(50, mu=0.05),
                               [prox.identity_prox()])
    gram = normal_map_of(E)
    rhs = E.adjoint(y).data.ravel()
    residual = np.linalg.norm(gram.apply(x.data.ravel()) - rhs)
    assert residual <= 1e-6 * np.linalg.norm(rhs)


def test_vsqp_tikhonov_fixed_point_effective_lambda():
    E, truth, y = _problem()
    mu, gamma = 0.4, 1.5
    lam_eff = mu * gamma / (1 + gamma)  # prox gain 1/(1+gamma)
    cfg = unroll.UnrollConfig("vsqp", T=200, cg_iters=15, sharing="shared")
    schedules = {"mu": unroll.ScalarSchedule.constant(mu, 200)}
    img, _ = unroll.run_unrolled(cfg, E, y, schedules, [prox.tikhonov_prox(gamma)])
    expected = _dense_ridge(E, y, lam_eff)
    assert np.linalg.norm(img.data.ravel() - expected) <= 1e-6 * np.linalg.norm(expected)


def test_vsqp_huge_mu_pins_to_prior():
    E, truth, y = _problem()
    # the prox hands the prior image to unroll 1, whose solve must return it
    cfg = unroll.UnrollConfig("vsqp", T=2, cg_iters=40, sharing="shared")
    x, _ = unroll.run_unrolled(cfg, E, y, _constant_schedules(2, mu=1e6),
                               [FixedProx(truth.data)])
    assert np.linalg.norm(x.data - truth.data) <= 1e-3 * np.linalg.norm(truth.data)


def test_admm_tikhonov_matches_ridge_at_unit_mu():
    E, truth, y = _problem()
    gamma = 0.7
    T = 200
    cfg = unroll.UnrollConfig("admm", T=T, cg_iters=15, sharing="shared")
    schedules = {
        "mu": unroll.ScalarSchedule.constant(1.0, T),
        "lam": unroll.ScalarSchedule.constant(1.0, T),
    }
    img, _ = unroll.run_unrolled(cfg, E, y, schedules, [prox.tikhonov_prox(gamma)])
    expected = _dense_ridge(E, y, gamma)
    assert np.linalg.norm(img.data.ravel() - expected) <= 1e-6 * np.linalg.norm(expected)


def test_admm_general_mu_fixed_point_is_mu_gamma():
    E, truth, y = _problem()
    mu, gamma = 0.3, 0.7
    T = 300
    cfg = unroll.UnrollConfig("admm", T=T, cg_iters=15, sharing="shared")
    schedules = {
        "mu": unroll.ScalarSchedule.constant(mu, T),
        "lam": unroll.ScalarSchedule.constant(mu, T),
    }
    img, _ = unroll.run_unrolled(cfg, E, y, schedules, [prox.tikhonov_prox(gamma)])
    expected = _dense_ridge(E, y, mu * gamma)
    assert np.linalg.norm(img.data.ravel() - expected) <= 1e-6 * np.linalg.norm(expected)


def test_admm_lambda_zero_reduces_to_vsqp():
    E, truth, y = _problem()
    T = 5
    p_admm = CapturingProx(prox.tikhonov_prox(1.0))
    p_vsqp = CapturingProx(prox.tikhonov_prox(1.0))
    cfg_admm = unroll.UnrollConfig("admm", T=T, cg_iters=15, sharing="shared")
    cfg_vsqp = unroll.UnrollConfig("vsqp", T=T, cg_iters=15, sharing="shared")
    unroll.run_unrolled(cfg_admm, E, y, _constant_schedules(T, mu=0.5, lam=0.0), [p_admm])
    unroll.run_unrolled(cfg_vsqp, E, y, _constant_schedules(T, mu=0.5), [p_vsqp])
    assert len(p_admm.out) == len(p_vsqp.out) == T
    for a, b in zip(p_admm.out, p_vsqp.out):
        np.testing.assert_array_equal(a, b)


def test_admm_identity_prox_freezes_dual():
    E, truth, y = _problem()
    mu = 0.5
    p = CapturingProx(prox.identity_prox())
    cfg = unroll.UnrollConfig("admm", T=3, cg_iters=15, sharing="shared")
    img, _ = unroll.run_unrolled(cfg, E, y, _constant_schedules(3, mu=mu, lam=0.3), [p])
    A = shifted(normal_map_of(E), mu)
    rhs0 = E.adjoint(y).data.ravel()
    x0, _ = cg_solve(A, rhs0 + mu * rhs0, max_iters=15, tol=1e-12)
    # unroll 0 sees x0 + u0 with u0 = 0, so z0 = prox(x0 + u0) = x0
    np.testing.assert_array_equal(p.seen[0], x0)
    np.testing.assert_array_equal(p.out[0], x0)
    x1, _ = cg_solve(A, rhs0 + mu * p.out[0], max_iters=15, tol=1e-12)
    u_after_one = p.seen[1] - x1  # unroll 1 sees x1 + u1
    u_after_two = p.seen[2] - img.data.ravel()  # unroll 2 sees x2 + u2
    np.testing.assert_array_equal(u_after_two, u_after_one)


def test_alg1_matches_vamp_messages_with_exact_onsager_weight():
    E, truth, y = _problem(coils=2, seeds=(3, 4, 5))
    mu_x = 0.8
    op = vamp.VampOperator.from_encoding(E, y)
    vstate = vamp.VampState(r=E.adjoint(y).data.ravel(), mu_x=mu_x)
    vcfg = vamp.VampConfig(cg_iters=200)
    vstate = vamp.lmmse_step(op, y, vstate, vcfg)
    rho = mu_x / (1.0 / vstate.upsilon_x - mu_x)

    # the prox of the single unroll sees the Onsager-corrected u
    p = CapturingProx(prox.identity_prox())
    cfg = unroll.UnrollConfig("alg1", T=1, cg_iters=200, sharing="shared")
    unroll.run_unrolled(cfg, E, y, _constant_schedules(1, mu=mu_x, rho=rho), [p])
    scale = np.linalg.norm(vstate.u)
    assert np.linalg.norm(p.seen[0] - vstate.u) <= 1e-10 * scale


# -- run_unrolled ---------------------------------------------------------

def test_run_unrolled_single_step_unwind():
    E, truth, y = _problem()
    cfg = unroll.UnrollConfig("alg1", T=1, cg_iters=15, sharing="shared")
    schedules = {
        "mu": unroll.ScalarSchedule.constant(0.05, 1),
        "rho": unroll.ScalarSchedule.constant(0.0, 1),
    }
    img, _ = unroll.run_unrolled(cfg, E, y, schedules, [prox.identity_prox()])
    rhs0 = E.adjoint(y).data.ravel()
    direct, _ = cg_solve(shifted(normal_map_of(E), 0.05), rhs0 + 0.05 * rhs0,
                         max_iters=15, tol=1e-12)
    np.testing.assert_array_equal(img.data.ravel(), direct)


def test_reduction_alg1_rho_zero_equals_vsqp_te():
    E, truth, y = _problem(coils=2, seeds=(6, 7, 8))
    T = 10
    mu = unroll.ScalarSchedule(np.linspace(0.05, 0.2, T))
    p_a = CapturingProx(prox.tikhonov_prox(0.8))
    p_v = CapturingProx(prox.tikhonov_prox(0.8))
    cfg_a = unroll.UnrollConfig("alg1", T=T, cg_iters=15, sharing="shared")
    cfg_v = unroll.UnrollConfig("vsqp_te", T=T, cg_iters=15, sharing="shared")
    img_a, _ = unroll.run_unrolled(
        cfg_a, E, y, {"mu": mu, "rho": unroll.ScalarSchedule.constant(0.0, T)}, [p_a]
    )
    img_v, _ = unroll.run_unrolled(cfg_v, E, y, {"mu": mu}, [p_v])
    np.testing.assert_array_equal(img_a.data, img_v.data)
    assert len(p_a.seen) == len(p_v.seen) == T
    for a, b in zip(p_a.seen, p_v.seen):
        np.testing.assert_array_equal(a, b)


def test_reduction_te_constant_schedule_equals_static():
    E, truth, y = _problem(coils=2, seeds=(9, 10, 11))
    T = 10
    p = prox.tikhonov_prox(1.2)
    for te, static in (("vsqp_te", "vsqp"), ("admm_te", "admm")):
        schedules = {
            "mu": unroll.ScalarSchedule.constant(0.07, T),
            "lam": unroll.ScalarSchedule.constant(0.1, T),
        }
        cfg_te = unroll.UnrollConfig(te, T=T, cg_iters=15, sharing="shared")
        cfg_st = unroll.UnrollConfig(static, T=T, cg_iters=15, sharing="shared")
        img_te, d_te = unroll.run_unrolled(cfg_te, E, y, schedules, [p])
        img_st, d_st = unroll.run_unrolled(cfg_st, E, y, schedules, [p])
        np.testing.assert_array_equal(img_te.data, img_st.data)
        assert d_te.to_csv() == d_st.to_csv()


def test_onsager_gap_statistic_small_once_converged():
    E, truth, y = _problem()
    T = 20
    cfg = unroll.UnrollConfig("alg1", T=T, cg_iters=15, sharing="shared")
    schedules = {
        "mu": unroll.ScalarSchedule.constant(0.5, T),
        "rho": unroll.ScalarSchedule.constant(0.1, T),
    }
    _, diags = unroll.run_unrolled(cfg, E, y, schedules, [prox.tikhonov_prox(1.0)])
    gaps = [row["x_u_nmse"] for row in diags.rows]
    assert all(np.isfinite(g) for g in gaps)
    assert all(0.0 <= g <= 0.05 for g in gaps[1:])


def test_data_consistency_monotonicity():
    # multi-coil so E E^H is not a projector and the zero-filled image has
    # a genuine residual at sampled locations
    E, truth, y = _problem(coils=3, seeds=(12, 13, 14))
    T = 50
    cfg = unroll.UnrollConfig("vsqp", T=T, cg_iters=15, sharing="shared")
    schedules = {"mu": unroll.ScalarSchedule.constant(0.1, T)}
    img, _ = unroll.run_unrolled(cfg, E, y, schedules, [prox.tikhonov_prox(0.2)])
    mask = E.mask.pattern
    x0 = E.adjoint(y)

    def dc(img_):
        resid = E.forward(img_).data - y.data
        return np.linalg.norm(resid[:, mask])

    assert dc(img) <= dc(x0)


def test_run_unrolled_deterministic_and_validated():
    E, truth, y = _problem()
    cfg = unroll.UnrollConfig("alg1", T=4, cg_iters=15, sharing="shared")
    schedules = {
        "mu": unroll.ScalarSchedule.constant(0.05, 4),
        "rho": unroll.ScalarSchedule.constant(0.1, 4),
    }
    a, _ = unroll.run_unrolled(cfg, E, y, schedules, [prox.tikhonov_prox(1.0)])
    b, _ = unroll.run_unrolled(cfg, E, y, schedules, [prox.tikhonov_prox(1.0)])
    np.testing.assert_array_equal(a.data, b.data)

    with pytest.raises(ValueError):
        unroll.UnrollConfig("alg1", T=0)
    with pytest.raises(ValueError):
        unroll.run_unrolled(cfg, E, y, {"mu": unroll.ScalarSchedule.constant(0.05, 3)},
                            [prox.identity_prox()])
    bad = unroll.UnrollConfig("vsqp", T=4, sharing="unshared")
    with pytest.raises(ValueError):
        unroll.run_unrolled(bad, E, y, schedules, [prox.identity_prox()])


def test_nmse_vs_reference_recorded():
    E, truth, y = _problem()
    cfg = unroll.UnrollConfig("vsqp", T=5, cg_iters=15, sharing="shared")
    schedules = {"mu": unroll.ScalarSchedule.constant(0.05, 5)}
    _, diags = unroll.run_unrolled(cfg, E, y, schedules, [prox.tikhonov_prox(0.3)],
                                   reference=truth)
    vals = [row["nmse_vs_ref"] for row in diags.rows]
    assert all(v is not None and np.isfinite(v) for v in vals)
    csv = diags.to_csv()
    assert csv.startswith("unroll_index,mu_t,rho_t,cg_residual,x_u_nmse,nmse_vs_ref")
