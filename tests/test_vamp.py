import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings

from teunroll import prox, vamp
from teunroll import signal_model as sm
from teunroll.linops import to_dense

from oracles import dense_from_probes, dense_row_blocks, dense_vamp_operator, encodings, flat_gram


def test_lmmse_identity_operator_closed_form():
    rng = np.random.default_rng(0)
    n = 16
    y = rng.standard_normal(n)
    r = rng.standard_normal(n)
    x, upsilon_x, u, mu_z, clamps = vamp.lmmse_step(dense_vamp_operator(np.eye(n)), y, r, 1.0)
    np.testing.assert_allclose(x, (y + r) / 2, atol=1e-12)
    assert upsilon_x == pytest.approx(0.5, abs=1e-12)
    assert mu_z == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(u, y, atol=1e-12)
    assert clamps == 0
    # precision identity 1/v_x = mu_x + mu_z
    assert 1.0 / upsilon_x == pytest.approx(1.0 + mu_z, abs=1e-10)


def test_lmmse_zero_operator_hits_clamp():
    rng = np.random.default_rng(1)
    n = 8
    r = rng.standard_normal(n)
    x, upsilon_x, _, _, clamps = vamp.lmmse_step(
        dense_vamp_operator(np.zeros((n, n))), np.zeros(n), r, 1.0)
    assert clamps == 1
    np.testing.assert_allclose(x, r, atol=1e-12)
    assert upsilon_x == pytest.approx(1.0)


def test_lmmse_matches_dense_oracle():
    rng = np.random.default_rng(2)
    m, n = 32, 64
    E = rng.standard_normal((m, n)) / np.sqrt(m)
    y = rng.standard_normal(m)
    r = rng.standard_normal(n)
    mu = 0.7
    x, upsilon_x, _, _, _ = vamp.lmmse_step(dense_vamp_operator(E), E.T @ y, r, mu)
    A = E.T @ E + mu * np.eye(n)
    expected_x = np.linalg.solve(A, E.T @ y + mu * r)
    assert np.linalg.norm(x - expected_x) <= 1e-8 * np.linalg.norm(expected_x)
    expected_trace = np.trace(np.linalg.inv(A)) / n
    assert upsilon_x == pytest.approx(expected_trace, abs=1e-10)


def test_half_steps_leave_their_inputs_untouched():
    # every incoming array is read-only, so a write into one raises, and
    # no outgoing array is a view of an incoming one
    rng = np.random.default_rng(8)
    n = 6
    E = rng.standard_normal((9, n))
    y = rng.standard_normal(9)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rhs = E.T @ y
    for a in (r, rhs):
        a.setflags(write=False)
    cfg = vamp.VampConfig(damping=0.6)  # damping reads the previous r
    x, _, u, mu_z, _ = vamp.lmmse_step(dense_vamp_operator(E), rhs, r, 0.8, cfg)
    u.setflags(write=False)
    r_next, _, z, _, _ = vamp.denoise_step(prox.AnalyticProx("soft_threshold", theta=0.3), u,
                                           mu_z, r, 0.8, cfg)
    for out in (x, u, r_next, z):
        for given_array in (r, rhs):
            assert not np.shares_memory(out, given_array)
    assert not np.shares_memory(r_next, u) and not np.shares_memory(z, u)


def test_denoise_identity_clamp_path():
    rng = np.random.default_rng(3)
    n = 8
    u = rng.standard_normal(n)
    _, mu_x, _, upsilon_z, clamps = vamp.denoise_step(
        prox.AnalyticProx("identity"), u, 2.0, np.zeros(n), 1.0, vamp.VampConfig(damping=1.0))
    assert upsilon_z == pytest.approx(0.5)
    assert clamps >= 1
    assert mu_x == pytest.approx(1e-8)  # clamped at the floor


def test_denoise_tikhonov_closed_form():
    rng = np.random.default_rng(4)
    n = 8
    u = rng.standard_normal(n)
    r, mu_x, z, upsilon_z, _ = vamp.denoise_step(
        prox.AnalyticProx("tikhonov", gamma=1.0), u, 1.0, np.zeros(n), 1.0,
        vamp.VampConfig(damping=1.0))
    np.testing.assert_allclose(z, u / 2, atol=1e-12)
    assert upsilon_z == pytest.approx(0.5)
    assert mu_x == pytest.approx(1.0)
    # r+ = (z/v_z - mu_z u)/mu_x+ = 2z - u = 0 for the linear half gain
    np.testing.assert_allclose(r, np.zeros(n), atol=1e-12)


def test_gaussian_prior_fixed_point_equals_ridge():
    rng = np.random.default_rng(5)
    m, n = 64, 128
    E = rng.standard_normal((m, n)) / np.sqrt(m)
    x0 = rng.standard_normal(n)
    y = E @ x0 + 0.05 * rng.standard_normal(m)
    gamma = 0.8
    ridge = np.linalg.solve(E.T @ E + gamma * np.eye(n), E.T @ y)
    cfg = vamp.VampConfig(max_iters=20, damping=1.0)
    xh, diags = vamp.run_vamp(dense_vamp_operator(E), E.T @ y,
                              prox.AnalyticProx("tikhonov", gamma=gamma), cfg)
    assert np.linalg.norm(xh - ridge) <= 1e-6 * np.linalg.norm(ridge)
    for row in diags.rows:
        assert row["clamps"] == 0
        assert 1.0 / row["upsilon_x"] == pytest.approx(
            row["mu_x"] + row["mu_z"], abs=1e-10
        )


def test_orthonormal_rows_noiseless_recovery():
    rng = np.random.default_rng(6)
    m, n = 24, 48
    q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    E = q.T  # orthonormal rows
    a = rng.standard_normal(m)
    x0 = E.T @ a  # signal inside the row space
    y = E @ x0
    pinv_solution = np.linalg.pinv(E) @ y
    np.testing.assert_allclose(pinv_solution, x0, atol=1e-12)
    cfg = vamp.VampConfig(max_iters=40, damping=1.0, mu_floor=1e-14)
    xh, _ = vamp.run_vamp(dense_vamp_operator(E), E.T @ y,
                          prox.AnalyticProx("tikhonov", gamma=1e-9), cfg)
    assert np.linalg.norm(xh - x0) <= 1e-8 * np.linalg.norm(x0)


def test_damped_linear_iteration_is_affine():
    rng = np.random.default_rng(7)
    m, n = 12, 20
    E = rng.standard_normal((m, n)) / np.sqrt(m)
    y = rng.standard_normal(m)
    cfg = vamp.VampConfig(damping=1.0)
    op = dense_vamp_operator(E)
    gamma = 1.3
    mu0 = 0.9

    def one_iteration(r):
        _, _, u, mu_z, _ = vamp.lmmse_step(op, E.T @ y, r, mu0, cfg)
        return vamp.denoise_step(prox.AnalyticProx("tikhonov", gamma=gamma), u, mu_z, r, mu0,
                                 cfg)[0]

    # affine map r -> M r + c probed column by column
    c = one_iteration(np.zeros(n))
    M = dense_from_probes(lambda v: one_iteration(v.real) - c, n, dtype=np.float64)
    for _ in range(5):
        r = rng.standard_normal(n)
        composed = one_iteration(one_iteration(r))
        via_matrix = M @ (M @ r + c) + c
        assert np.linalg.norm(composed - via_matrix) <= 1e-10 * (
            np.linalg.norm(composed) + 1
        )


def test_run_vamp_on_encoding_operator_matches_ridge():
    mask = sm.make_equispaced_mask(16, 16, 2, 4)
    sens = sm.make_smooth_sensitivities(16, 16, 2, seed=0)
    E = sm.EncodingOperator(mask, sens)
    truth = sm.make_phantom(16, 16, 4, seed=1)
    y = sm.add_noise(E.forward(truth), 0.02, seed=2, mask=mask)
    gamma = 0.3
    rhs = E.adjoint(y).data
    xh, diags = vamp.run_vamp(vamp.as_vamp_operator(E), rhs,
                              prox.AnalyticProx("tikhonov", gamma=gamma),
                              vamp.VampConfig(max_iters=25), reference=truth)
    G = dense_from_probes(flat_gram(E), 256)
    ridge = np.linalg.solve(G + gamma * np.eye(256), rhs.ravel())
    assert xh.shape == (16, 16)
    assert np.linalg.norm(xh.ravel() - ridge) <= 1e-6 * np.linalg.norm(ridge)
    assert diags.rows[-1]["nmse"] is not None


def test_lmmse_solve_on_encoding_operator_fails_numerically_on_non_finite_message():
    # VAMP's CG applies the unchecked Gram, as run_unrolled's does, so a
    # non-finite message is a numeric failure raised by cg_solve
    E = sm.EncodingOperator(sm.make_equispaced_mask(8, 8, 2, 2),
                            sm.make_smooth_sensitivities(8, 8, 2, seed=0))
    r = np.zeros((8, 8), dtype=complex)
    r[0, 5] = np.nan
    with pytest.raises(FloatingPointError, match="right-hand side"):
        vamp.lmmse_step(vamp.as_vamp_operator(E), np.zeros((8, 8), dtype=complex), r, 1.0)


@settings(max_examples=12, deadline=None)
@given(E=encodings())
def test_exact_trace_from_row_blocks_matches_dense(E):
    h, w = E.shape
    gram = to_dense(flat_gram(E), h * w)
    off_block = gram.reshape(h, w, h, w).copy()
    off_block[np.arange(h), :, np.arange(h), :] = 0.0
    assert np.all(off_block == 0.0)

    op = vamp.as_vamp_operator(E)
    dense_eigs = np.linalg.eigvalsh(dense_from_probes(flat_gram(E), h * w))
    assert np.max(np.abs(np.sort(op.eigvals) - dense_eigs)) <= 1e-12
    # below mu ~ 1e-6 near-null eigenvalues make both traces rounding-sensitive
    for mu in np.logspace(-3, 1, 9):
        exact = np.mean(1.0 / (dense_eigs + mu))
        got = op.trace_inverse_mean(mu, vamp.VampConfig())
        assert abs(got - exact) <= 1e-12 * exact


def _random_mask_encoding(h, w, coils, seed):
    mask = sm.make_random_mask(h, w, 2, 2, seed)
    return sm.EncodingOperator(mask, sm.make_smooth_sensitivities(h, w, coils, seed=seed + 1))


@settings(max_examples=12, deadline=None)
@given(E=encodings(max_coils=4))
@example(E=_random_mask_encoding(8, 12, 1, 0))
@example(E=_random_mask_encoding(16, 16, 2, 1))
@example(E=_random_mask_encoding(20, 9, 3, 2))
@example(E=_random_mask_encoding(32, 32, 4, 3))
def test_row_blocks_equal_the_dense_extraction_bit_for_bit(E):
    # each row-block probe is the same unit image through the same Gram,
    # so blocks and eigenvalues match the dense set-up exactly
    expected = dense_row_blocks(E)
    assert np.array_equal(vamp.gram_row_blocks(E), expected)
    op = vamp.as_vamp_operator(E)
    assert np.array_equal(op.eigvals, np.linalg.eigvalsh(expected).ravel())


def test_exact_set_up_never_holds_the_dense_gram():
    # at 32x32 the dense Gram alone is 16 MiB, the 32 row blocks 0.5 MiB
    E = sm.EncodingOperator(sm.make_equispaced_mask(32, 32, 4, 4),
                            sm.make_smooth_sensitivities(32, 32, 4, seed=0))
    tracemalloc.start()
    try:
        op = vamp.as_vamp_operator(E)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.eigvals is not None
    assert peak <= 2 * 2**20, f"set-up peak {peak / 2**20:.2f} MiB"


def test_above_the_exact_limit_the_trace_is_estimated():
    # 129x32 pixels is just past EXACT_TRACE_LIMIT, so the set-up keeps no
    # eigenvalues and the resolvent trace comes from Hutchinson probes
    h, w = 129, 32
    assert h * w > vamp.EXACT_TRACE_LIMIT
    mask = sm.make_equispaced_mask(h, w, 4, 4)
    E = sm.EncodingOperator(mask, sm.make_smooth_sensitivities(h, w, 2, seed=0))
    truth = sm.make_phantom(h, w, 6, seed=1)
    y = sm.add_noise(E.forward(truth), 0.01, seed=2, mask=mask)
    op = vamp.as_vamp_operator(E)
    assert op.eigvals is None
    eigs = np.linalg.eigvalsh(vamp.gram_row_blocks(E)).ravel()
    for mu in (0.05, 0.3, 1.0):
        exact = np.mean(1.0 / (eigs + mu))
        got = op.trace_inverse_mean(mu, vamp.VampConfig())
        assert abs(got - exact) <= 0.01 * exact, (mu, got, exact)
    x, diags = vamp.run_vamp(op, E.adjoint(y).data,
                             prox.AnalyticProx("soft_threshold", theta=0.05),
                             vamp.VampConfig(max_iters=2), reference=truth)
    assert x.shape == (h, w) and np.all(np.isfinite(x))
    assert all(np.isfinite(v) for row in diags.rows for v in row.values()
               if isinstance(v, float))


def test_diagnostics_csv_shape():
    rng = np.random.default_rng(8)
    E = rng.standard_normal((8, 12))
    y = rng.standard_normal(8)
    _, diags = vamp.run_vamp(dense_vamp_operator(E), E.T @ y,
                             prox.AnalyticProx("tikhonov", gamma=1.0),
                             vamp.VampConfig(max_iters=3))
    csv = diags.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "iteration,mu_x,mu_z,upsilon_x,upsilon_z,nmse,clamps"
    assert len(lines) == 4


def test_clamps_column_is_the_running_sum_of_the_half_steps_counts(monkeypatch):
    # the identity prox has v_z = 1/mu_z, so mu_x+ = 1/v_z - mu_z rounds to
    # about 0 and the denoiser clamps it at the floor every iteration
    counts = []

    def counting(step):
        def wrapped(*args, **kwargs):
            out = step(*args, **kwargs)
            counts.append(out[-1])
            return out
        return wrapped

    monkeypatch.setattr(vamp, "lmmse_step", counting(vamp.lmmse_step))
    monkeypatch.setattr(vamp, "denoise_step", counting(vamp.denoise_step))
    rng = np.random.default_rng(9)
    E = rng.standard_normal((10, 16)) / np.sqrt(10)
    y = rng.standard_normal(10)
    _, diags = vamp.run_vamp(dense_vamp_operator(E), E.T @ y, prox.AnalyticProx("identity"),
                             vamp.VampConfig(max_iters=5))
    assert len(diags.rows) == 5 and len(counts) == 10
    per_iteration = [a + b for a, b in zip(counts[::2], counts[1::2])]
    assert all(c >= 1 for c in counts[1::2])
    assert [row["clamps"] for row in diags.rows] == list(np.cumsum(per_iteration))


class _NanFromCall:
    """An analytic prox whose apply returns NaN from its ``first``-th call on."""

    def __init__(self, inner, first):
        self.inner, self.first, self.calls = inner, first, 0

    def apply(self, u, noise_precision):
        self.calls += 1
        out = self.inner.apply(u, noise_precision)
        return out * np.nan if self.calls >= self.first else out

    def divergence(self, u, noise_precision):
        return self.inner.divergence(u, noise_precision)


def test_a_non_finite_denoiser_output_fails_at_the_next_lmmse_half_step():
    # iteration 3 of 5 sends a NaN message; iteration 4's CG raises on its
    # right-hand side before the denoiser runs again
    rng = np.random.default_rng(10)
    E = rng.standard_normal((12, 16)) / np.sqrt(12)
    y = rng.standard_normal(12)
    p = _NanFromCall(prox.AnalyticProx("tikhonov", gamma=0.5), first=3)
    with pytest.raises(FloatingPointError, match="right-hand side is not finite"):
        vamp.run_vamp(dense_vamp_operator(E), E.T @ y, p, vamp.VampConfig(max_iters=5))
    assert p.calls == 3


def test_all_diagnostics_finite_over_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m, n = 24, 32
        E = rng.standard_normal((m, n)) / np.sqrt(m)
        y = E @ rng.standard_normal(n) + 0.05 * rng.standard_normal(m)
        _, diags = vamp.run_vamp(
            dense_vamp_operator(E), E.T @ y, prox.AnalyticProx("tikhonov", gamma=0.5),
            vamp.VampConfig(max_iters=10)
        )
        for row in diags.rows:
            for key in ("mu_x", "mu_z", "upsilon_x", "upsilon_z"):
                assert np.isfinite(row[key])


def test_config_validation():
    with pytest.raises(ValueError):
        vamp.VampConfig(damping=0.0)
    with pytest.raises(ValueError):
        vamp.VampConfig(mu_floor=0.0)
    # a zero iteration budget returned x = 0 without an error
    with pytest.raises(ValueError, match="max_iters"):
        vamp.VampConfig(max_iters=0)
    with pytest.raises(ValueError, match="cg_iters"):
        vamp.VampConfig(cg_iters=0)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_half_steps_fail_numerically_on_a_non_positive_precision(bad):
    # a precision that is not positive (NaN included) is a numeric failure
    # (exit 3 from the CLI), not a config error
    with pytest.raises(FloatingPointError, match="mu_x must be positive"):
        vamp.lmmse_step(dense_vamp_operator(np.eye(4)), np.zeros(4), np.zeros(4), bad)
    with pytest.raises(FloatingPointError, match="mu_z must be positive"):
        vamp.denoise_step(prox.AnalyticProx("identity"), np.zeros(4), bad, np.zeros(4), 1.0)
