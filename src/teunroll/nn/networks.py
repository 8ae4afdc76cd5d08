"""Proximal operator networks: a residual CNN and a small U-Net, each in a
static and a time-embedded flavor.

Complex images cross into the networks as 2-channel real tensors
(channel 0 real, channel 1 imaginary) and come back the same way.
"""

from __future__ import annotations

import os

import numpy as np

from .. import ktn
from . import engine as en
from .engine import Tensor
from .layers import (
    Conv2d,
    FilmHead,
    ParamStore,
    TimeEmbedder,
    default_groups,
    film_modulate,
    film_residual_modulate,
)

RESIDUAL_SCALE = 0.1  # weight of each residual block's body in ResNetProx
FILM_TAU = 0.1  # strength of the scaled FiLM perturbation in ResNetProx


def complex_to_channels(img):
    img = np.asarray(img, dtype=np.complex128)
    out = np.empty((2,) + img.shape)
    out[0] = img.real
    out[1] = img.imag
    return out


def channels_to_complex(arr):
    out = np.empty(arr.shape[1:], dtype=np.complex128)
    out.real = arr[0]
    out.imag = arr[1]
    return out


class ProxNetworkBase:
    """Shared surface of the proximal networks: a flat parameter store plus
    a bridge from complex images to the 2-channel real tensors the forward
    pass consumes."""

    store: ParamStore

    def parameters(self):
        return self.store.params

    def count_parameters(self):
        return sum(int(t.data.size) for t in self.store.params.values())

    def _time_features(self, t):
        """The shared time features that feed every FiLM head at unroll
        index ``t``; None for a static network."""
        if not self.time_embedded:
            return None
        if t is None:
            raise ValueError("time-embedded network needs the unroll index t")
        return self.time.features(t)

    def apply_complex(self, img, t=None):
        out = self.forward(Tensor(complex_to_channels(img)), t)
        return channels_to_complex(out.data)


class ResNetProx(ProxNetworkBase):
    """Input conv, a stack of conv-ReLU-conv residual blocks with a 0.1
    residual scale, an output conv, and a global input-to-output skip.
    Time-embedded blocks first perturb their input with the scaled FiLM
    modulation before the convolutions."""

    def __init__(self, blocks=3, channels=16, time_embedded=False, seed=0):
        self.time_embedded = time_embedded
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        self.conv_in = Conv2d(self.store, "conv_in", 2, channels, rng)
        self.block_convs = []
        for i in range(blocks):
            c1 = Conv2d(self.store, f"block{i}.conv1", channels, channels, rng)
            c2 = Conv2d(self.store, f"block{i}.conv2", channels, channels, rng)
            self.block_convs.append((c1, c2))
        self.conv_out = Conv2d(self.store, "conv_out", channels, 2, rng)
        if time_embedded:
            self.time = TimeEmbedder(self.store, rng)
            self.heads = [
                FilmHead(self.store, f"block{i}.film", channels, rng)
                for i in range(blocks)
            ]
        self.groups = default_groups(channels)

    def forward(self, x, t=None):
        x = en._as_tensor(x)
        feat = self._time_features(t)
        h = self.conv_in(x)
        for i, (c1, c2) in enumerate(self.block_convs):
            f = h
            if self.time_embedded:
                alpha, beta = self.heads[i](feat)
                f = film_residual_modulate(f, alpha, beta, FILM_TAU, self.groups)
            body = c2(en.relu(c1(f)))
            h = en.add(h, en.mul(Tensor(RESIDUAL_SCALE), body))
        return en.add(x, self.conv_out(h))


class _ResBlock:
    """U-Net residual block: GN, SiLU, conv, (FiLM | GN), SiLU, conv with a
    1x1 skip when the channel count changes."""

    def __init__(self, store, name, cin, cout, rng, time_embedded):
        self.gin = default_groups(cin)
        self.gmid = default_groups(cout)
        self.conv1 = Conv2d(store, f"{name}.conv1", cin, cout, rng)
        self.conv2 = Conv2d(store, f"{name}.conv2", cout, cout, rng)
        self.skip = None
        if cin != cout:
            self.skip = Conv2d(store, f"{name}.skip", cin, cout, rng, kernel=1)
        self.head = None
        if time_embedded:
            self.head = FilmHead(store, f"{name}.film", cout, rng)

    def __call__(self, x, feat):
        h = self.conv1(en.silu(en.group_norm(x, self.gin)))
        if self.head is not None:
            alpha, beta = self.head(feat)
            h = film_modulate(h, alpha, beta, self.gmid)
        else:
            h = en.group_norm(h, self.gmid)
        h = self.conv2(en.silu(h))
        s = x if self.skip is None else self.skip(x)
        return en.add(s, h)


class UNetProx(ProxNetworkBase):
    """Two downsampling stages, a bottleneck and two upsampling stages with
    skip concatenation; channels double on the way down."""

    def __init__(self, base_channels=16, res_blocks=1, time_embedded=False, seed=0):
        if res_blocks < 1:
            raise ValueError("U-Net needs res_blocks >= 1")
        self.time_embedded = time_embedded
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        c = base_channels
        self.conv_in = Conv2d(self.store, "conv_in", 2, c, rng)
        if time_embedded:
            self.time = TimeEmbedder(self.store, rng)

        def stage(name, cin, cout):
            blocks = []
            for i in range(res_blocks):
                blocks.append(
                    _ResBlock(self.store, f"{name}.rb{i}", cin if i == 0 else cout,
                              cout, rng, time_embedded)
                )
            return blocks

        self.down0 = stage("down0", c, c)
        self.down1 = stage("down1", c, 2 * c)
        self.mid = stage("mid", 2 * c, 4 * c)
        self.up1 = stage("up1", 4 * c + 2 * c, 2 * c)
        self.up0 = stage("up0", 2 * c + c, c)
        self.conv_out = Conv2d(self.store, "conv_out", c, 2, rng)

    def forward(self, x, t=None):
        x = en._as_tensor(x)
        if x.shape[1] % 4 or x.shape[2] % 4:
            raise ValueError("U-Net input dims must be divisible by 4")
        feat = self._time_features(t)
        h = self.conv_in(x)
        for blk in self.down0:
            h = blk(h, feat)
        skip0 = h
        h = en.avg_pool2(h)
        for blk in self.down1:
            h = blk(h, feat)
        skip1 = h
        h = en.avg_pool2(h)
        for blk in self.mid:
            h = blk(h, feat)
        h = en.upsample_nearest2(h)
        h = en.concat([h, skip1], axis=0)
        for blk in self.up1:
            h = blk(h, feat)
        h = en.upsample_nearest2(h)
        h = en.concat([h, skip0], axis=0)
        for blk in self.up0:
            h = blk(h, feat)
        return self.conv_out(h)


def resnet_full(time_embedded=False, seed=0):
    """Full-size residual network (15 blocks x 64 channels)."""
    return ResNetProx(blocks=15, channels=64, time_embedded=time_embedded, seed=seed)


def unet_full(time_embedded=False, seed=0):
    """Full-size U-Net (base 32, two residual blocks per stage)."""
    return UNetProx(base_channels=32, res_blocks=2, time_embedded=time_embedded, seed=seed)


def build_network(arch, time_embedded=False, seed=0, **kwargs):
    if arch == "resnet":
        return ResNetProx(time_embedded=time_embedded, seed=seed, **kwargs)
    if arch == "unet":
        return UNetProx(time_embedded=time_embedded, seed=seed, **kwargs)
    raise ValueError(f"unknown architecture {arch!r}")


def save_checkpoint(directory, named_params):
    """Write each parameter as a KTN1 tensor plus a manifest of
    (name, shape, dtype, file) lines."""
    os.makedirs(directory, exist_ok=True)
    lines = []
    for i, (name, tensor) in enumerate(named_params.items()):
        fname = f"p{i:05d}.ktn"
        data = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
        ktn.write_ktn(os.path.join(directory, fname), data.astype(np.float64))
        shape = "x".join(str(d) for d in data.shape) if data.ndim else "scalar"
        lines.append(f"{name}\t{shape}\tf64\t{fname}")
    with open(os.path.join(directory, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(directory):
    """Return the name -> ndarray map recorded by save_checkpoint."""
    state = {}
    with open(os.path.join(directory, "manifest.txt")) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            name, _shape, _dtype, fname = line.split("\t")
            state[name] = ktn.read_ktn(os.path.join(directory, fname))
    return state
