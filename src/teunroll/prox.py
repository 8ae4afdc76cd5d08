"""Analytic proximal operators with exact divergence terms.

These serve as verification oracles for the unrolled engines and as
pluggable denoisers for the message-passing loop.  An analytic prox has
one spelling, ``AnalyticProx(kind, theta=..., gamma=...)``, whose kinds
are the analytic values of the config key ``model.prox``.  Divergences
follow the real-coordinate convention: the average of d Re(out)/d Re(u)
and d Im(out)/d Im(u) over every real coordinate present (N for real
arrays, 2N for complex ones), which matches the 2-channel real view the
networks use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def soft_threshold(u, theta):
    """Magnitude shrinkage u * max(0, 1 - theta/|u|); reduces to the textbook
    real soft-threshold on real input."""
    mag = np.abs(u)
    scale = np.maximum(0.0, 1.0 - theta / np.where(mag > 0, mag, 1.0))
    return u * scale


def soft_threshold_divergence(u, theta):
    """Closed-form normalized divergence of the magnitude shrinkage."""
    u = np.asarray(u)
    mag = np.abs(u)
    active = mag > theta
    if not np.iscomplexobj(u):
        return float(np.count_nonzero(active)) / u.size
    # per active complex sample: dRe/dRe + dIm/dIm = 2 - theta/|u|
    contrib = np.where(active, 2.0 - theta / np.where(active, mag, 1.0), 0.0)
    return float(np.sum(contrib)) / (2 * u.size)


@dataclass(frozen=True)
class AnalyticProx:
    """One of {soft_threshold(theta), tikhonov(gamma), identity}; a kind
    ignores the weight it does not use.

    tikhonov models a Gaussian prior of variance 1/gamma: under noise
    precision mu the denoiser is the linear gain (mu/gamma)/(mu/gamma + 1).
    """

    kind: str
    theta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("soft_threshold", "tikhonov", "identity"):
            raise ValueError(f"unknown prox kind {self.kind!r}")
        if self.theta < 0 or self.gamma < 0:
            raise ValueError("theta and gamma must be non-negative")

    def apply(self, u, noise_precision=1.0):
        if self.kind == "identity":
            return np.array(u, copy=True)
        if self.kind == "soft_threshold":
            return soft_threshold(np.asarray(u), self.theta)
        gain = self._tikhonov_gain(noise_precision)
        return np.asarray(u) * gain

    def divergence(self, u, noise_precision=1.0):
        if self.kind == "identity":
            return 1.0
        if self.kind == "soft_threshold":
            return soft_threshold_divergence(u, self.theta)
        return self._tikhonov_gain(noise_precision)

    def _tikhonov_gain(self, noise_precision):
        if noise_precision <= 0:
            raise ValueError("tikhonov prox needs a positive noise precision")
        if self.gamma == 0.0:
            return 1.0
        sigma2 = 1.0 / self.gamma
        return noise_precision * sigma2 / (noise_precision * sigma2 + 1.0)


def mc_divergence(p, u, noise_precision, epsilon, seed):
    """Monte Carlo divergence probe for arbitrary (e.g. learned) proximal
    maps: <eta, (p(u + eps*eta) - p(u)) / eps> averaged over the real
    coordinates, with a Rademacher eta on real and imaginary parts."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    u = np.asarray(u)
    rng = np.random.default_rng(seed)
    if np.iscomplexobj(u):
        eta = (rng.integers(0, 2, size=u.shape) * 2.0 - 1.0) + 1j * (
            rng.integers(0, 2, size=u.shape) * 2.0 - 1.0
        )
        n_real = 2 * u.size
    else:
        eta = rng.integers(0, 2, size=u.shape) * 2.0 - 1.0
        n_real = u.size
    delta = p.apply(u + epsilon * eta, noise_precision) - p.apply(u, noise_precision)
    return float(np.vdot(eta, delta).real) / (epsilon * n_real)
