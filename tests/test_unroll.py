import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teunroll import prox, unroll, vamp
from teunroll import signal_model as sm
from teunroll.linops import cg_solve, shifted

from oracles import dense_from_probes, encodings, flat_gram, problems, ridge_by_rows


def _problem(h=16, w=16, coils=1, R=2, acs=4, noise=0.01, seeds=(0, 1, 2)):
    mask = sm.make_equispaced_mask(h, w, R, acs)
    sens = sm.make_smooth_sensitivities(h, w, coils, seed=seeds[0])
    E = sm.EncodingOperator(mask, sens)
    truth = sm.make_phantom(h, w, 5, seed=seeds[1])
    y = sm.add_noise(E.forward(truth), noise, seed=seeds[2], mask=mask)
    return E, truth, y


def _dense_ridge(E, y, lam_eff):
    n = E.shape[0] * E.shape[1]
    G = dense_from_probes(flat_gram(E), n)
    rhs = E.adjoint(y).data.ravel()
    return np.linalg.solve(G + lam_eff * np.eye(n), rhs)


def _prox_of(p):
    """An analytic prox as run_unrolled's unroll-t map."""
    return lambda img, t: p.apply(img)


class CapturingProx:
    """Wraps an analytic prox and records every input it sees and every
    output it returns."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []
        self.out = []

    def __call__(self, img, t):
        self.seen.append(np.array(img, copy=True))
        out = self.inner.apply(img)
        self.out.append(out)
        return out


class FixedProx:
    """Returns one fixed image whatever it is given."""

    def __init__(self, image):
        self.image = image

    def __call__(self, img, t):
        return self.image


# -- single iterations ---------------------------------------------------

def test_vsqp_identity_prox_reaches_normal_equations():
    E, truth, y = _problem()
    x, _ = unroll.run_unrolled("vsqp", E, y, [0.05] * 50, _prox_of(prox.identity_prox()))
    rhs = E.adjoint(y).data
    residual = np.linalg.norm(E.normal_array(x.data) - rhs)
    assert residual <= 1e-6 * np.linalg.norm(rhs)


def test_vsqp_tikhonov_fixed_point_effective_lambda():
    E, truth, y = _problem()
    mu, gamma = 0.4, 1.5
    lam_eff = mu * gamma / (1 + gamma)  # prox gain 1/(1+gamma)
    img, _ = unroll.run_unrolled("vsqp", E, y, [mu] * 200, _prox_of(prox.tikhonov_prox(gamma)))
    expected = _dense_ridge(E, y, lam_eff)
    assert np.linalg.norm(img.data.ravel() - expected) <= 1e-6 * np.linalg.norm(expected)


def test_vsqp_huge_mu_pins_to_prior():
    E, truth, y = _problem()
    # the prox hands the prior image to unroll 1, whose solve must return it
    x, _ = unroll.run_unrolled("vsqp", E, y, [1e6] * 2, FixedProx(truth.data), cg_iters=40)
    assert np.linalg.norm(x.data - truth.data) <= 1e-3 * np.linalg.norm(truth.data)


def test_admm_tikhonov_matches_ridge_at_unit_mu():
    E, truth, y = _problem()
    gamma = 0.7
    T = 200
    img, _ = unroll.run_unrolled("admm", E, y, [1.0] * T, _prox_of(prox.tikhonov_prox(gamma)),
                                 lam=[1.0] * T)
    expected = _dense_ridge(E, y, gamma)
    assert np.linalg.norm(img.data.ravel() - expected) <= 1e-6 * np.linalg.norm(expected)


def test_admm_general_mu_fixed_point_is_mu_gamma():
    E, truth, y = _problem()
    mu, gamma = 0.3, 0.7
    T = 300
    img, _ = unroll.run_unrolled("admm", E, y, [mu] * T, _prox_of(prox.tikhonov_prox(gamma)),
                                 lam=[mu] * T)
    expected = _dense_ridge(E, y, mu * gamma)
    assert np.linalg.norm(img.data.ravel() - expected) <= 1e-6 * np.linalg.norm(expected)


_MU_SCHEDULES = st.lists(st.floats(0.01, 2.0), min_size=1, max_size=8)


def _assert_same_prox_calls(p, q):
    assert len(p.seen) == len(q.seen)
    for a, b in zip(p.seen + p.out, q.seen + q.out):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=15, deadline=None)
@given(problem=problems(), mu=_MU_SCHEDULES)
def test_admm_lambda_zero_reduces_to_vsqp(problem, mu):
    E, y = problem
    T = len(mu)
    p_admm = CapturingProx(prox.tikhonov_prox(1.0))
    p_vsqp = CapturingProx(prox.tikhonov_prox(1.0))
    img_admm, _ = unroll.run_unrolled("admm", E, y, mu, p_admm, lam=[0.0] * T)
    img_vsqp, _ = unroll.run_unrolled("vsqp", E, y, mu, p_vsqp)
    np.testing.assert_array_equal(img_admm.data, img_vsqp.data)
    assert len(p_admm.seen) == T
    _assert_same_prox_calls(p_admm, p_vsqp)


def test_admm_identity_prox_freezes_dual():
    E, truth, y = _problem()
    mu = 0.5
    p = CapturingProx(prox.identity_prox())
    img, _ = unroll.run_unrolled("admm", E, y, [mu] * 3, p, lam=[0.3] * 3)
    A = shifted(E.normal_array, mu)
    rhs0 = E.adjoint(y).data
    x0, _ = cg_solve(A, rhs0 + mu * rhs0, max_iters=15, tol=1e-12)
    # unroll 0 sees x0 + u0 with u0 = 0, so z0 = prox(x0 + u0) = x0
    np.testing.assert_array_equal(p.seen[0], x0)
    np.testing.assert_array_equal(p.out[0], x0)
    x1, _ = cg_solve(A, rhs0 + mu * p.out[0], max_iters=15, tol=1e-12)
    u_after_one = p.seen[1] - x1  # unroll 1 sees x1 + u1
    u_after_two = p.seen[2] - img.data  # unroll 2 sees x2 + u2
    np.testing.assert_array_equal(u_after_two, u_after_one)


@settings(max_examples=40, deadline=None)
@given(problem=problems(), mu_x=st.floats(0.3, 2.0), seed=st.integers(0, 10_000))
def test_alg1_matches_vamp_messages_with_exact_onsager_weight(problem, mu_x, seed):
    # from any r, VAMP's LMMSE message u is alg1's x + rho (x - r) with
    # rho = mu_x / mu_z, so both solve the same system on the same Gram.
    # Unroll 0 starts from alg1's r0 = E^H y; its prox hands unroll 1 a
    # random image r.
    E, y = problem
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(E.shape) + 1j * rng.standard_normal(E.shape)
    op, rhs = vamp.as_vamp_operator(E), E.adjoint(y).data
    config = vamp.VampConfig(cg_iters=100)
    messages = [vamp.lmmse_step(op, rhs, r_t, mu_x, config) for r_t in (rhs, r)]
    assume(all(clamps == 0 for *_, clamps in messages))
    rho = [mu_x / mu_z for _, _, _, mu_z, _ in messages]

    # each unroll's prox sees the Onsager-corrected u
    seen = []

    def hand_over_r(img, t):
        seen.append(np.array(img, copy=True))
        return r

    unroll.run_unrolled("alg1", E, y, [mu_x] * 2, hand_over_r, rho=rho, cg_iters=100)
    for seen_u, (_, _, u, _, _) in zip(seen, messages):
        assert np.linalg.norm(seen_u - u) <= 1e-10 * np.linalg.norm(u)


@settings(max_examples=30, deadline=None)
@given(E=encodings(), mu=st.floats(0.05, 2.0), gamma=st.floats(0.1, 3.0),
       rho=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_tikhonov_fixed_points_are_ridge_solutions_at_any_size(E, mu, gamma, rho, seed):
    # With the Tikhonov prox (gain 1/(1+gamma)), vsqp's fixed point x* is
    # the ridge solution of weight mu gamma/(1+gamma) and alg1's that of
    # weight mu gamma/(1+gamma+rho).  Unroll 0's prox returns the fixed
    # point's prox image, so unroll 1 must solve back to x*, and the prox
    # must map unroll 1's input back to that image, whatever the
    # contraction rate.  ADMM is left out: its dual u cannot be seeded
    # through the prox.
    truth = sm.make_phantom(*E.shape, 5, seed=seed)
    y = sm.add_noise(E.forward(truth), 0.01, seed=seed + 1, mask=E.mask)
    rhs = E.adjoint(y).data
    tikhonov = prox.tikhonov_prox(gamma)
    cases = (("vsqp", mu * gamma / (1 + gamma), 1 / (1 + gamma), None),
             ("alg1", mu * gamma / (1 + gamma + rho), (1 + rho) / (1 + gamma + rho), [rho] * 2))
    for algorithm, lam, prox_gain, rhos in cases:
        x_star = ridge_by_rows(E, rhs, lam)
        fixed = prox_gain * x_star
        out = []

        def seeded(img, t):
            out.append(tikhonov.apply(img))
            return fixed if t == 0 else out[-1]

        img, _ = unroll.run_unrolled(algorithm, E, y, [mu] * 2, seeded, rho=rhos, cg_iters=100)
        # CG stops at a relative residual of 1e-12 and the condition number
        # of E^H E + mu I is at most 1 + 1/mu <= 21.  Measured worst case
        # over 2000 draws: 1.4e-11 on x*, 2.1e-11 on its prox image.
        assert np.linalg.norm(img.data - x_star) <= 1e-10 * np.linalg.norm(x_star)
        assert np.linalg.norm(out[1] - fixed) <= 1e-10 * np.linalg.norm(fixed)


# -- run_unrolled ---------------------------------------------------------

def test_run_unrolled_single_step_unwind():
    E, truth, y = _problem()
    img, _ = unroll.run_unrolled("alg1", E, y, [0.05], _prox_of(prox.identity_prox()),
                                 rho=[0.0])
    rhs0 = E.adjoint(y).data
    direct, _ = cg_solve(shifted(E.normal_array, 0.05), rhs0 + 0.05 * rhs0,
                         max_iters=15, tol=1e-12)
    np.testing.assert_array_equal(img.data, direct)


@settings(max_examples=15, deadline=None)
@given(problem=problems(), mu=_MU_SCHEDULES)
def test_reduction_alg1_rho_zero_equals_vsqp_te(problem, mu):
    E, y = problem
    T = len(mu)
    p_a = CapturingProx(prox.tikhonov_prox(0.8))
    p_v = CapturingProx(prox.tikhonov_prox(0.8))
    img_a, _ = unroll.run_unrolled("alg1", E, y, mu, p_a, rho=[0.0] * T)
    img_v, _ = unroll.run_unrolled("vsqp_te", E, y, mu, p_v)
    np.testing.assert_array_equal(img_a.data, img_v.data)
    assert len(p_a.seen) == T
    _assert_same_prox_calls(p_a, p_v)


def test_reduction_te_constant_schedule_equals_static():
    E, truth, y = _problem(coils=2, seeds=(9, 10, 11))
    T = 10
    p = _prox_of(prox.tikhonov_prox(1.2))
    for te, static in (("vsqp_te", "vsqp"), ("admm_te", "admm")):
        img_te, d_te = unroll.run_unrolled(te, E, y, [0.07] * T, p, lam=[0.1] * T)
        img_st, d_st = unroll.run_unrolled(static, E, y, [0.07] * T, p, lam=[0.1] * T)
        np.testing.assert_array_equal(img_te.data, img_st.data)
        assert d_te.to_csv() == d_st.to_csv()


def test_onsager_gap_statistic_small_once_converged():
    E, truth, y = _problem()
    T = 20
    _, diags = unroll.run_unrolled("alg1", E, y, [0.5] * T, _prox_of(prox.tikhonov_prox(1.0)),
                                   rho=[0.1] * T)
    gaps = [row["x_u_nmse"] for row in diags.rows]
    assert all(np.isfinite(g) for g in gaps)
    assert all(0.0 <= g <= 0.05 for g in gaps[1:])


def test_data_consistency_monotonicity():
    # multi-coil so E E^H is not a projector and the zero-filled image has
    # a genuine residual at sampled locations
    E, truth, y = _problem(coils=3, seeds=(12, 13, 14))
    img, _ = unroll.run_unrolled("vsqp", E, y, [0.1] * 50, _prox_of(prox.tikhonov_prox(0.2)))
    mask = E.mask.pattern
    x0 = E.adjoint(y)

    def dc(img_):
        resid = E.forward(img_).data - y.data
        return np.linalg.norm(resid[:, mask])

    assert dc(img) <= dc(x0)


def test_run_unrolled_deterministic_and_validated():
    E, truth, y = _problem()
    p = _prox_of(prox.tikhonov_prox(1.0))
    a, _ = unroll.run_unrolled("alg1", E, y, [0.05] * 4, p, rho=[0.1] * 4)
    b, _ = unroll.run_unrolled("alg1", E, y, [0.05] * 4, p, rho=[0.1] * 4)
    np.testing.assert_array_equal(a.data, b.data)

    bad_calls = [
        ({"algorithm": "pgd"}, "unknown algorithm"),
        ({"mu": []}, "T must be >= 1"),
        ({"cg_iters": 0}, "cg_iters must be >= 1"),
        ({"rho": [0.1] * 3}, "rho schedule length must equal T"),
        ({"rho": None}, "rho schedule length must equal T"),
        ({"mu": [0.05, np.nan, 0.05, 0.05]}, "non-finite"),
        ({"rho": [0.1, 0.1, np.inf, 0.1]}, "non-finite"),
        ({"algorithm": "admm", "lam": [0.1] * 5}, "lam schedule length must equal T"),
    ]
    for change, message in bad_calls:
        kwargs = {"algorithm": "alg1", "mu": [0.05] * 4, "rho": [0.1] * 4, **change}
        with pytest.raises(ValueError, match=message):
            unroll.run_unrolled(kwargs.pop("algorithm"), E, y, kwargs.pop("mu"), p, **kwargs)


@pytest.mark.parametrize("algorithm", unroll.ALGORITHMS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_prox_output_is_a_numeric_failure(algorithm, bad):
    """The unchecked Gram lets a non-finite iterate through to CG, which
    raises FloatingPointError (a numeric failure, not a ValueError)."""
    E, truth, y = _problem()

    def broken(img, t):
        return np.full_like(img, bad) if t == 1 else img

    with pytest.raises(FloatingPointError, match="right-hand side"):
        unroll.run_unrolled(algorithm, E, y, [0.05] * 3, broken, rho=[0.1] * 3,
                            lam=[0.1] * 3)
    # the last unroll's prox output is never read, so it cannot fail the run
    img, _ = unroll.run_unrolled(algorithm, E, y, [0.05] * 2, broken, rho=[0.1] * 2,
                                 lam=[0.1] * 2)
    assert np.all(np.isfinite(img.data))


def test_nmse_vs_reference_recorded():
    E, truth, y = _problem()
    _, diags = unroll.run_unrolled("vsqp", E, y, [0.05] * 5, _prox_of(prox.tikhonov_prox(0.3)),
                                   reference=truth)
    vals = [row["nmse_vs_ref"] for row in diags.rows]
    assert all(v is not None and np.isfinite(v) for v in vals)
    csv = diags.to_csv()
    assert csv.startswith("unroll_index,mu_t,rho_t,cg_residual,x_u_nmse,nmse_vs_ref")
