"""Multi-coil Cartesian MRI forward model.

Measurements follow  y = E x + n  where E applies coil sensitivities,
a centered unitary 2-D FFT and a column undersampling mask.  Columns are
the phase-encode direction: rows are always fully sampled, undersampling
removes whole columns.  Everything here is a pure function of its inputs;
all randomness goes through explicit seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Largest dense Gram row-block array (H x W x W complex) an EncodingOperator
# caches; above it the Gram runs as 1-D FFTs.  64x64 images fit exactly.
GRAM_BLOCK_BYTES = 4 * 2**20


def fft2c(x):
    """Centered unitary 2-D FFT (DC in the middle of the array).  Its
    inverse and adjoint ifft2c is the same with the inverse FFT.  The FFT
    runs in place in the shifted copy, so besides ``x`` it holds two
    arrays of its size."""
    z = np.fft.ifftshift(np.asarray(x, dtype=np.complex128))
    return np.fft.fftshift(np.fft.fft2(z, norm="ortho", out=z))


def _complex_array(values, ndim, what):
    """``values`` as complex128, checked to have ``ndim`` axes, no empty
    axis and only finite samples."""
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{what} needs a non-empty {ndim}-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite samples")
    return arr


@dataclass
class ComplexImage:
    """A 2-D complex image (dimensionless intensity)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = _complex_array(self.data, 2, "ComplexImage")


@dataclass
class KSpaceData:
    """Per-coil frequency-domain samples, indexed (coil, row, column)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = _complex_array(self.data, 3, "KSpaceData")


@dataclass
class SamplingMask:
    """Boolean k-space sampling pattern (True = acquired).

    Every column is either fully sampled or not sampled at all; a pattern
    that samples part of a column is rejected.
    """

    pattern: np.ndarray

    def __post_init__(self):
        self.pattern = np.asarray(self.pattern, dtype=bool)
        if self.pattern.ndim != 2 or not self.pattern.any():
            raise ValueError("mask must be 2-D with at least one sampled entry")
        if not (self.pattern == self.pattern[:1]).all():
            raise ValueError("mask must sample whole columns")


@dataclass
class CoilSensitivities:
    """Per-coil complex spatial weighting maps, indexed (coil, row, col)."""

    maps: np.ndarray

    def __post_init__(self):
        self.maps = _complex_array(self.maps, 3, "CoilSensitivities")

    @property
    def num_coils(self):
        return self.maps.shape[0]


def _acs_columns(cols, acs):
    """Centered ACS block; for an odd remainder it extends one column right."""
    if acs < 0:
        raise ValueError("acs must be non-negative")
    start = cols // 2 - acs // 2
    return np.arange(start, start + acs)


def make_equispaced_mask(rows, cols, R, acs):
    """Equispaced column undersampling: columns {0, R, 2R, ...} plus a
    centered block of ``acs`` fully sampled columns."""
    if R < 1:
        raise ValueError("R must be >= 1")
    if acs > cols:
        raise ValueError("acs exceeds number of columns")
    pattern = np.zeros((rows, cols), dtype=bool)
    pattern[:, ::R] = True
    pattern[:, _acs_columns(cols, acs)] = True
    return SamplingMask(pattern)


def make_random_mask(rows, cols, R, acs, seed):
    """Random column undersampling with a guaranteed ACS block.

    The total column budget is round(cols / R); non-ACS columns are drawn
    uniformly without replacement.  Deterministic given the seed.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    budget = int(round(cols / R))
    if budget < acs:
        raise ValueError(f"budget {budget} cannot cover {acs} ACS columns")
    acs_cols = _acs_columns(cols, acs)
    rng = np.random.default_rng(seed)
    free = np.setdiff1d(np.arange(cols), acs_cols)
    extra = rng.choice(free, size=budget - acs, replace=False)
    pattern = np.zeros((rows, cols), dtype=bool)
    pattern[:, acs_cols] = True
    pattern[:, extra] = True
    return SamplingMask(pattern)


def make_phantom(height, width, num_ellipses, seed):
    """Synthetic complex phantom: a stack of random ellipses with a smooth
    random phase ramp.  Intensities land in [0, sum of ellipse weights]."""
    if height < 8 or width < 8:
        raise ValueError("phantom dimensions must be >= 8")
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(
        np.linspace(-1.0, 1.0, height), np.linspace(-1.0, 1.0, width), indexing="ij"
    )
    mag = np.zeros((height, width))
    for _ in range(num_ellipses):
        cy, cx = rng.uniform(-0.6, 0.6, size=2)
        ay = rng.uniform(0.15, 0.7)
        ax = rng.uniform(0.15, 0.7)
        angle = rng.uniform(0.0, np.pi)
        amp = rng.uniform(0.1, 1.0)
        c, s = np.cos(angle), np.sin(angle)
        u = (yy - cy) * c + (xx - cx) * s
        v = -(yy - cy) * s + (xx - cx) * c
        mag += amp * (((u / ay) ** 2 + (v / ax) ** 2) <= 1.0)
    # low-order polynomial phase keeps the image smoothly complex
    a = rng.uniform(-1.0, 1.0, size=4)
    phase = a[0] * yy + a[1] * xx + a[2] * yy * xx + a[3] * (yy**2 - xx**2)
    return ComplexImage(mag * np.exp(1j * phase))


def make_smooth_sensitivities(height, width, num_coils, seed):
    """Smooth coil profiles: Gaussian magnitudes centered around the FOV with
    linear phases, normalized so that sum_c |s_c|^2 = 1 at every pixel."""
    if num_coils < 1:
        raise ValueError("need at least one coil")
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(
        np.linspace(-1.0, 1.0, height), np.linspace(-1.0, 1.0, width), indexing="ij"
    )
    maps = np.empty((num_coils, height, width), dtype=np.complex128)
    for c in range(num_coils):
        theta = 2.0 * np.pi * c / num_coils + rng.uniform(-0.2, 0.2)
        cy, cx = 0.7 * np.sin(theta), 0.7 * np.cos(theta)
        sigma = rng.uniform(0.6, 1.0)
        mag = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
        ramp = rng.uniform(-0.5, 0.5, size=2)
        maps[c] = mag * np.exp(1j * np.pi * (ramp[0] * yy + ramp[1] * xx))
    norm = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return CoilSensitivities(maps / norm)


@dataclass
class EncodingOperator:
    """The multi-coil undersampled Fourier operator and its adjoint.

    forward:  y_c = mask * fft2c(sens_c * x)
    adjoint:  x   = sum_c conj(sens_c) * ifft2c(mask * y_c)

    With the unitary FFT and normalized sensitivities the composite
    adjoint(forward(.)) is self-adjoint PSD with operator norm <= 1.

    Each coil is transformed on its own, so forward, adjoint and the FFT
    path of the Gram hold their output plus at most two H x W coil images,
    never a (C, H, W) stack of intermediates.
    """

    mask: SamplingMask
    sens: CoilSensitivities
    _shifted_columns: np.ndarray = field(init=False, repr=False, compare=False)
    _gram_blocks: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mask.pattern.shape != self.sens.maps.shape[1:]:
            raise ValueError("mask and sensitivity shapes disagree")
        # the column mask in ifftshift (unshifted FFT) order
        self._shifted_columns = np.fft.ifftshift(self.mask.pattern[0])
        h, w = self.shape
        self._gram_blocks = None
        if h * w * w * 16 <= GRAM_BLOCK_BYTES:
            # The H diagonal W x W blocks of E^H E (see normal_array):
            # A[h, j, k] = P[j, k] * sum_c conj(s[c, h, j]) * s[c, h, k] with
            # P = ifft1(diag(m') fft1(I)) the masked 1-D filter as a matrix.
            filt = np.fft.ifft(self._shifted_columns[:, None] * np.fft.fft(np.eye(w), axis=0), axis=0)
            s = self.sens.maps.transpose(1, 0, 2)
            self._gram_blocks = (np.conj(s).transpose(0, 2, 1) @ s) * filt

    @property
    def shape(self):
        return self.mask.pattern.shape

    @property
    def num_coils(self):
        return self.sens.num_coils

    def forward(self, x: ComplexImage) -> KSpaceData:
        """The masked k-space of every coil, filled one coil at a time."""
        if x.data.shape != self.shape:
            raise ValueError(f"image shape {x.data.shape} != operator {self.shape}")
        unsampled = ~self.mask.pattern[0]
        k = np.empty(self.sens.maps.shape, dtype=np.complex128)
        for s, k_c in zip(self.sens.maps, k):
            np.multiply(s, x.data, out=k_c)
            k_c[...] = fft2c(k_c)
            k_c[:, unsampled] = 0.0
        return KSpaceData(k)

    def adjoint(self, y: KSpaceData) -> ComplexImage:
        """sum_c conj(s_c) * ifft2c(mask * y_c), accumulated coil by coil
        in the order of a sum over the coil axis."""
        if y.data.shape != (self.num_coils,) + self.shape:
            raise ValueError(
                f"k-space shape {y.data.shape} != operator "
                f"{(self.num_coils,) + self.shape}"
            )
        out = self._coil_adjoint(0, y.data[0])
        for c in range(1, self.num_coils):
            out += self._coil_adjoint(c, y.data[c])
        return ComplexImage(out)

    def _coil_adjoint(self, c, y_c):
        """conj(s_c) * ifft2c(mask * y_c) in two H x W buffers: the mask
        zeroes the ifftshifted copy of y_c, which then holds the product."""
        z = np.fft.ifftshift(y_c)
        z[:, ~self._shifted_columns] = 0.0
        # np.fft.ifft2 ignores ``out``; ifftn over the same axes honours it
        img = np.fft.fftshift(np.fft.ifftn(z, axes=(-2, -1), norm="ortho", out=z))
        np.conj(self.sens.maps[c], out=z)
        z *= img
        return z

    def normal(self, x: ComplexImage) -> ComplexImage:
        """adjoint(forward(x)), the Gram operator E^H E."""
        return ComplexImage(self.normal_array(x.data))

    def normal_array(self, img):
        """E^H E on a raw 2-D array, no validation; lets optimization loops
        pass transient non-finite values through to their own checks.

        The mask repeats in every row (whole columns are sampled), so the
        FFT along the row axis cancels and

            E^H E x = sum_c conj(s_c) * ifft1(m' * fft1(s_c * x))

        with 1-D FFTs along the column (phase-encode) axis and m' the column
        mask in unshifted order.  The centring shifts of fft2c/ifft2c cancel
        too: the masked 1-D filter is circulant and commutes with them.

        Each image row is thus mapped by its own W x W matrix.  When those
        row blocks fit under GRAM_BLOCK_BYTES they are cached at
        construction and the Gram is one batched matrix-vector product.
        Otherwise the coils pass one at a time through a single H x W
        buffer and are summed in the order of a sum over the coil axis.
        """
        if self._gram_blocks is not None:
            return np.matmul(self._gram_blocks, img[:, :, None])[:, :, 0]
        z = np.empty(self.shape, dtype=np.complex128)
        out = None
        for s in self.sens.maps:
            np.multiply(s, img, out=z)
            np.fft.fft(z, axis=-1, out=z)
            z *= self._shifted_columns
            np.fft.ifft(z, axis=-1, out=z)
            # conj(s) * z == conj(s * conj(z)): stays in the one buffer
            np.conj(z, out=z)
            z *= s
            if out is None:
                out = z.copy()
            else:
                out += z
        return np.conj(out, out=out)


def add_noise(y: KSpaceData, sigma, seed, mask: SamplingMask):
    """Add circular complex Gaussian noise (std ``sigma`` per real/imag
    component) at the locations ``mask`` samples, so unacquired entries
    stay exactly zero.

    The real parts of all coils are drawn first, then the imaginary parts,
    each one coil at a time into the one complex array that becomes the
    result; the draws are those of one (C, H, W) real and one imaginary
    array."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if mask.pattern.shape != y.data.shape[1:]:
        raise ValueError(
            f"mask shape {mask.pattern.shape} != k-space image shape {y.data.shape[1:]}")
    if sigma == 0:
        return KSpaceData(y.data.copy())
    rng = np.random.default_rng(seed)
    noisy = np.empty(y.data.shape, dtype=np.complex128)
    for part in (noisy.real, noisy.imag):
        for p in part:
            p[...] = rng.normal(0.0, sigma, size=p.shape)
    noisy[:, ~mask.pattern] = 0.0
    noisy += y.data
    return KSpaceData(noisy)
