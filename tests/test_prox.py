import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teunroll import prox

from oracles import ScaledSoftThreshold, fd_divergence


def test_soft_threshold_textbook_values():
    p = prox.AnalyticProx("soft_threshold", theta=1.0)
    out = p.apply(np.array([3.0, -0.5, 2.0]))
    np.testing.assert_allclose(out, [2.0, 0.0, 1.0])


def test_identity_and_tikhonov_apply():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    np.testing.assert_array_equal(prox.AnalyticProx("identity").apply(u), u)
    # gamma=1 (prior var 1) under unit noise precision halves the input
    np.testing.assert_allclose(prox.AnalyticProx("tikhonov", gamma=1.0).apply(u, 1.0), u / 2)


def test_divergence_examples_against_fd_oracle():
    assert prox.AnalyticProx("identity").divergence(np.ones(5)) == 1.0

    p = prox.AnalyticProx("soft_threshold", theta=1.0)
    u = np.array([3.0, -0.5, 2.0])
    assert p.divergence(u) == pytest.approx(2 / 3, abs=1e-12)
    assert fd_divergence(lambda v: p.apply(v), u) == pytest.approx(2 / 3, abs=1e-6)

    t = prox.AnalyticProx("tikhonov", gamma=1.0)
    assert t.divergence(np.ones(4), 1.0) == pytest.approx(0.5)
    assert fd_divergence(lambda v: t.apply(v, 1.0), np.ones(4)) == pytest.approx(0.5, abs=1e-8)


def test_complex_soft_threshold_divergence_matches_fd():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    p = prox.AnalyticProx("soft_threshold", theta=0.8)
    closed = p.divergence(u)
    numeric = fd_divergence(lambda v: p.apply(v), u)
    assert closed == pytest.approx(numeric, abs=1e-6)


def test_mc_divergence_examples():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    assert prox.mc_divergence(prox.AnalyticProx("identity"), u, 1.0, 1e-3,
                              seed=3) == pytest.approx(1.0, abs=1e-9)
    t = prox.AnalyticProx("tikhonov", gamma=1.0)
    assert prox.mc_divergence(t, u, 1.0, 1e-4, seed=4) == pytest.approx(0.5, rel=0.02)
    p = prox.AnalyticProx("soft_threshold", theta=1.0)
    assert prox.mc_divergence(p, u, 1.0, 1e-4, seed=5) == pytest.approx(
        p.divergence(u), rel=0.03
    )


def test_mc_divergence_consistency_as_n_grows():
    p = prox.AnalyticProx("soft_threshold", theta=0.5)
    rng = np.random.default_rng(6)
    errs = []
    for n in (64, 1024, 16384):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        mc = prox.mc_divergence(p, u, 1.0, 1e-4, seed=7)
        errs.append(abs(mc - p.divergence(u)))
    assert errs[-1] < errs[0]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), theta=st.floats(0.0, 3.0))
def test_nonexpansiveness(seed, theta):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    for p in (prox.AnalyticProx("soft_threshold", theta=theta),
              prox.AnalyticProx("tikhonov", gamma=max(theta, 1e-3))):
        du = p.apply(u, 1.0) - p.apply(v, 1.0)
        assert np.linalg.norm(du) <= np.linalg.norm(u - v) * (1 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_divergence_bounds(seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    for p in (
        prox.AnalyticProx("identity"),
        prox.AnalyticProx("soft_threshold", theta=float(rng.uniform(0, 2))),
        prox.AnalyticProx("tikhonov", gamma=float(rng.uniform(0.01, 5))),
    ):
        d = p.divergence(u, 1.0)
        assert 0.0 <= d <= 1.0


def test_noise_adaptive_prox_wrappers():
    rng = np.random.default_rng(8)
    u = rng.standard_normal(64)
    scaled = ScaledSoftThreshold(1.5)
    np.testing.assert_allclose(scaled.apply(u, 4.0), prox.soft_threshold(u, 0.75))
    assert scaled.divergence(u, 4.0) == prox.soft_threshold_divergence(u, 0.75)


def test_invalid_kinds_and_arguments():
    with pytest.raises(ValueError):
        prox.AnalyticProx("wavelet")
    with pytest.raises(ValueError):
        prox.AnalyticProx("soft_threshold", theta=-1.0)
    with pytest.raises(ValueError):
        prox.AnalyticProx("tikhonov", gamma=1.0).apply(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        prox.mc_divergence(prox.AnalyticProx("identity"), np.ones(3), 1.0, 0.0, seed=0)
