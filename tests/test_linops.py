import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teunroll import linops
from teunroll import signal_model as sm

from oracles import (cg_out_of_place_reference, dense_from_probes, encodings,
                     exact_shifted_solve, flat_gram, from_dense, identity_map, power_iteration_norm, spd_with_clusters)


def test_cg_identity_one_iteration():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x, report = linops.cg_solve(identity_map(), b)
    np.testing.assert_allclose(x, b, atol=1e-14)
    assert report.iterations_run == 1
    assert report.converged


def test_cg_two_by_two_exact():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, 1.0], dtype=complex)
    expected = np.linalg.solve(A, b)  # [1/3, 1/3]
    x, report = linops.cg_solve(from_dense(A), b, max_iters=2)
    np.testing.assert_allclose(x, expected, atol=1e-12)
    np.testing.assert_allclose(expected.real, [1 / 3, 1 / 3])
    assert report.iterations_run <= 2


def test_cg_matches_dense_solve_on_mri_normal_system():
    mask = sm.make_equispaced_mask(16, 16, 2, 4)
    sens = sm.make_smooth_sensitivities(16, 16, 1, seed=0)
    E = sm.EncodingOperator(mask, sens)
    mu = 0.05
    rng = np.random.default_rng(1)
    b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    x, _ = linops.cg_solve(linops.shifted(E.normal_array, mu), b, max_iters=15)
    dense = dense_from_probes(linops.shifted(flat_gram(E), mu), 256)
    expected = np.linalg.solve(dense, b.ravel()).reshape(16, 16)
    assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)


@settings(max_examples=25, deadline=None)
@given(E=encodings(), mu=st.floats(1e-3, 2.0), seed=st.integers(0, 2**16))
def test_cg_on_an_image_is_cg_on_its_ravel_bit_for_bit(E, mu, seed):
    # vdot and norm read an H x W array in the C order of its ravel, and
    # every other CG step is elementwise, so the layout cannot move a bit
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(E.shape) + 1j * rng.standard_normal(E.shape)
    x, report = linops.cg_solve(linops.shifted(E.normal_array, mu), b)
    x_flat, report_flat = linops.cg_solve(linops.shifted(flat_gram(E), mu), b.ravel())
    assert x.shape == E.shape
    assert np.array_equal(x, x_flat.reshape(E.shape))
    assert report == report_flat


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_cg_on_a_zero_rhs_returns_zeros_without_applying_the_map(dtype):
    # the stopping test before the first iteration, ||r|| <= tol * ||b||,
    # holds at 0 <= 0: no shortcut is needed for a zero b
    applied = []

    def A(v):
        applied.append(v)
        return v.copy()

    x, report = linops.cg_solve(A, np.zeros((3, 4), dtype=dtype))
    assert x.dtype == dtype and x.shape == (3, 4) and not x.any()
    assert report == linops.CgReport(0, 0.0, True)
    assert applied == []


@settings(max_examples=20, deadline=None)
@given(E=encodings(), mu=st.floats(1e-2, 2.0), seed=st.integers(0, 2**16))
def test_cg_run_to_its_tolerance_matches_the_exact_row_block_solve(E, mu, seed):
    # mu >= 1e-2 bounds the condition number near 1/mu, so a relative
    # residual of 1e-12 leaves an error of at most about 1e-10
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(E.shape) + 1j * rng.standard_normal(E.shape)
    x, report = linops.cg_solve(linops.shifted(E.normal_array, mu), b, max_iters=2000)
    assert report.converged
    expected = exact_shifted_solve(E, b, mu)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


# The worst relative error of CG-15 over the six problems below, measured
# per mu (3.1e-3 at 1.5e-2 and 1.1e-4 at 5e-2), with about 30 % headroom:
# the error falls by more than an order of magnitude between the two.
CG15_BOUNDS = {1.5e-2: 4e-3, 5e-2: 1.5e-4}


@pytest.mark.parametrize("mu", sorted(CG15_BOUNDS))
def test_cg15_on_the_desk_problem_is_within_the_bound_measured_for_its_mu(mu):
    # 32x32, 4 coils, R = 4: the data-consistency solve of an unroll, with
    # b = E^H y of a noisy phantom
    for kind in ("equispaced", "random"):
        for seed in range(3):
            mask = (sm.make_equispaced_mask(32, 32, 4, 4) if kind == "equispaced"
                    else sm.make_random_mask(32, 32, 4, 4, seed))
            E = sm.EncodingOperator(mask, sm.make_smooth_sensitivities(32, 32, 4, seed=seed))
            truth = sm.make_phantom(32, 32, 6, seed=seed)
            b = E.adjoint(sm.add_noise(E.forward(truth), 0.01, seed=seed, mask=mask)).data
            x, report = linops.cg_solve(linops.shifted(E.normal_array, mu), b, max_iters=15)
            assert report.iterations_run == 15 and not report.converged
            expected = exact_shifted_solve(E, b, mu)
            err = np.linalg.norm(x - expected) / np.linalg.norm(expected)
            assert err <= CG15_BOUNDS[mu], (kind, seed, err)


def test_cg_rejects_bad_rhs_and_indefinite_operator():
    with pytest.raises(ValueError, match="maps shape"):
        linops.cg_solve(lambda v: v.ravel(), np.ones((2, 3), dtype=complex))
    # the iterates keep b's dtype: a complex operator needs a complex b
    with pytest.raises(ValueError, match="maps dtype float64 to complex128"):
        linops.cg_solve(from_dense(np.eye(3) + 0j), np.ones(3))
    # a dense map of another size fails in its own matrix product
    with pytest.raises(ValueError):
        linops.cg_solve(from_dense(np.eye(6)), np.ones(3, dtype=complex))
    indefinite = from_dense(np.diag([1.0, -1.0]))
    with pytest.raises(FloatingPointError):
        linops.cg_solve(indefinite, np.array([0.1, 1.0], dtype=complex), max_iters=5)


def test_cg_error_monotone_in_a_norm():
    rng = np.random.default_rng(2)
    A = spd_with_clusters(24, 10, 50.0, rng)
    b = rng.standard_normal(24).astype(complex)
    exact = np.linalg.solve(A, b)
    lm = from_dense(A)
    prev = None
    for k in range(1, 16):
        xk, _ = linops.cg_solve(lm, b, max_iters=k)
        err = xk - exact
        a_norm = float(np.vdot(err, A @ err).real)
        if prev is not None:
            assert a_norm <= prev * (1.0 + 1e-10)
        prev = a_norm


def test_cg_exactness_within_n_iterations():
    # Krylov exactness, checked in double precision on moderately
    # conditioned systems where rounding does not mask it.
    for n in (4, 16, 32):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n))
        A = M @ M.T / n + np.eye(n)
        b = rng.standard_normal(n).astype(complex)
        x, report = linops.cg_solve(from_dense(A), b, max_iters=n, tol=1e-14)
        residual = np.linalg.norm(b - A @ x)
        assert residual <= 1e-8 * np.linalg.norm(b)
        expected = np.linalg.solve(A, b)
        assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)


def test_cg_in_place_updates_match_out_of_place_bits_and_leave_inputs_alone():
    E = sm.EncodingOperator(sm.make_equispaced_mask(16, 24, 2, 4),
                            sm.make_smooth_sensitivities(16, 24, 3, seed=0))
    applied = []

    def apply(v):
        out = E.normal_array(v) + 0.03 * v
        applied.append((out, out.copy()))
        return out

    rng = np.random.default_rng(1)
    b = rng.standard_normal((16, 24)) + 1j * rng.standard_normal((16, 24))
    b_before = b.copy()
    x, report = linops.cg_solve(apply, b, max_iters=15, tol=0.0)
    assert report.iterations_run == 15
    assert x.tobytes() == cg_out_of_place_reference(apply, b, 15).tobytes()
    assert b.tobytes() == b_before.tobytes()
    # nothing the operator returned was written to
    assert all(out.tobytes() == kept.tobytes() for out, kept in applied)


def test_cg_rejects_a_non_finite_rhs():
    for bad in (np.nan, np.inf):
        b = np.ones(4, dtype=complex)
        b[2] = bad
        with pytest.raises(FloatingPointError, match="right-hand side"):
            linops.cg_solve(identity_map(), b)


def test_to_dense_recovers_a_non_hermitian_matrix():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    np.testing.assert_array_equal(linops.to_dense(from_dense(M), 5), M)


def test_trace_inverse_scalar_identity():
    def zero(v):
        return np.zeros_like(v)

    for shape in (10, (2, 5)):
        est = linops.estimate_trace_inverse(zero, shape, 2.0, 10, seed=0)
        assert est == pytest.approx(0.5, abs=1e-12)


def test_trace_inverse_diagonal_and_determinism():
    A = from_dense(np.diag([1.0, 3.0]))
    exact = (1 / 2 + 1 / 4) / 2  # closed-form diagonal trace
    est = linops.estimate_trace_inverse(A, 2, 1.0, 1000, seed=1)
    assert abs(est - exact) <= 0.05 * exact
    again = linops.estimate_trace_inverse(A, 2, 1.0, 1000, seed=1)
    assert est == again


def test_trace_inverse_unbiased_against_dense_oracle():
    rng = np.random.default_rng(3)
    A = spd_with_clusters(12, 6, 20.0, rng)
    lm = from_dense(A)
    truth = np.trace(np.linalg.inv(A + 0.5 * np.eye(12))).real / 12
    estimates = [
        linops.estimate_trace_inverse(lm, 12, 0.5, 8, seed=s) for s in range(40)
    ]
    mean = np.mean(estimates)
    sem = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
    assert abs(mean - truth) <= 3 * max(sem, 1e-12)


def test_power_iteration_examples():
    assert power_iteration_norm(
        from_dense(3.0 * np.eye(5)), 5, 5, seed=0
    ) == pytest.approx(3.0, abs=1e-10)
    assert power_iteration_norm(
        from_dense(np.diag([1.0, 5.0, 2.0])), 3, 100, seed=1
    ) == pytest.approx(5.0, abs=1e-6)
    E = sm.EncodingOperator(
        sm.make_equispaced_mask(12, 12, 1, 0),
        sm.make_smooth_sensitivities(12, 12, 3, seed=2),
    )
    norm = power_iteration_norm(flat_gram(E), 144, 100, seed=3)
    assert norm == pytest.approx(1.0, abs=1e-6)


def test_linear_map_linearity_statistical():
    E = sm.EncodingOperator(
        sm.make_random_mask(10, 10, 2, 2, seed=4),
        sm.make_smooth_sensitivities(10, 10, 2, seed=5),
    )
    gram = E.normal_array
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        y = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        a, b = rng.standard_normal(2)
        lhs = gram(a * x + b * y)
        rhs = a * gram(x) + b * gram(y)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (np.linalg.norm(lhs) + 1)
