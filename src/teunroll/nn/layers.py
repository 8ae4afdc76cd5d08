"""Network building blocks: parameterized layers, the sinusoidal time
encoder with its learned MLP head, and the FiLM modulation primitives."""

from __future__ import annotations

import numpy as np

from . import engine as en
from .engine import Tensor

EMBED_DIM = 32  # length of the sinusoidal code of the unroll index
PERIOD = 10000.0  # longest wavelength of that code
HIDDEN = 128  # width of the time MLP and input of every FiLM head


def kaiming_uniform(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class ParamStore:
    """Flat, ordered name -> Tensor map shared by a whole network."""

    def __init__(self):
        self.params = {}

    def create(self, name, data):
        """A new trainable leaf under ``name``."""
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
        self.params[name] = t
        return t


class Linear:
    def __init__(self, store: ParamStore, name, in_dim, out_dim, rng, zero_init=False):
        if zero_init:
            w = np.zeros((out_dim, in_dim))
        else:
            w = kaiming_uniform(rng, (out_dim, in_dim), in_dim)
        self.w = store.create(f"{name}.w", w)
        self.b = store.create(f"{name}.b", np.zeros(out_dim))

    def __call__(self, x):
        return en.add(en.matmul(self.w, x), self.b)


class Conv2d:
    def __init__(self, store: ParamStore, name, in_ch, out_ch, rng, kernel=3):
        w = kaiming_uniform(rng, (out_ch, in_ch, kernel, kernel), in_ch * kernel * kernel)
        self.w = store.create(f"{name}.w", w)
        self.b = store.create(f"{name}.b", np.zeros(out_ch))

    def __call__(self, x):
        return en.conv2d(x, self.w, self.b)


def sinusoidal_encode(t):
    """Sinusoidal position code of the unroll index: the first half holds
    sin(t / PERIOD^(2k/EMBED_DIM)), the second half the matching cosines."""
    k = np.arange(EMBED_DIM // 2)
    freqs = 1.0 / PERIOD ** (2.0 * k / EMBED_DIM)
    angles = float(t) * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)])


class TimeEmbedder:
    """Sinusoidal encoder followed by a two-layer SiLU MLP; per-block FiLM
    heads hang off the shared feature vector."""

    def __init__(self, store: ParamStore, rng):
        self.fc1 = Linear(store, "time.fc1", EMBED_DIM, HIDDEN, rng)
        self.fc2 = Linear(store, "time.fc2", HIDDEN, HIDDEN, rng)

    def features(self, t):
        code = Tensor(sinusoidal_encode(t))
        return self.fc2(en.silu(self.fc1(code)))


class FilmHead:
    """The pair of affine heads producing a block's (alpha, beta); both are
    zero-initialized so modulation starts as an identity perturbation."""

    def __init__(self, store: ParamStore, name, channels, rng):
        self.alpha = Linear(store, f"{name}.alpha", HIDDEN, channels, rng, zero_init=True)
        self.beta = Linear(store, f"{name}.beta", HIDDEN, channels, rng, zero_init=True)

    def __call__(self, feat):
        return self.alpha(feat), self.beta(feat)


def film_modulate(features, alpha, beta, groups):
    """H = alpha * GroupNorm(F) + beta with per-channel broadcast."""
    features = en._as_tensor(features)
    alpha = en._as_tensor(alpha)
    beta = en._as_tensor(beta)
    c = features.shape[0]
    if alpha.shape != (c,) or beta.shape != (c,):
        raise ValueError("alpha/beta must have one entry per channel")
    normed = en.group_norm(features, groups)
    a = en.reshape(alpha, (c, 1, 1))
    b = en.reshape(beta, (c, 1, 1))
    return en.add(en.mul(a, normed), b)


def film_residual_modulate(features, alpha, beta, tau, groups):
    """H = F + tau * (alpha * GroupNorm(F) + beta); the scaled form keeps
    the time information a gentle perturbation of the features."""
    modulated = film_modulate(features, alpha, beta, groups)
    return en.add(features, en.mul(Tensor(float(tau)), modulated))


def default_groups(channels):
    g = min(8, channels)
    while channels % g != 0:
        g -= 1
    return g
