"""Image quality metrics: PSNR, single-scale SSIM and normalized MSE.

Complex inputs are reduced to magnitude images first; real inputs are used
as-is.  The data range defaults to the reference image's range.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SSIM_WINDOW = 11  # pixels per side of the SSIM window; smaller images have no SSIM
SSIM_SIGMA = 1.5  # standard deviation of the Gaussian window weights
SSIM_K1, SSIM_K2 = 0.01, 0.03  # stabilizers, as fractions of the data range


def _as_real(img):
    img = np.asarray(img)
    if np.iscomplexobj(img):
        return np.abs(img)
    return img.astype(np.float64)


def psnr(reference, test, data_max=None):
    """10 log10(data_max^2 / MSE) in dB; +inf for identical inputs."""
    ref = _as_real(reference)
    tst = _as_real(test)
    if ref.shape != tst.shape:
        raise ValueError("psnr inputs must share a shape")
    if data_max is None:
        data_max = float(ref.max())
    if data_max <= 0:
        raise ValueError("data_max must be positive")
    mse = float(np.mean((ref - tst) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(data_max**2 / mse))


def _gaussian_kernel(size, sigma):
    """Normalised 1-D Gaussian; its outer product is the 2-D SSIM window."""
    coords = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(coords**2) / (2.0 * sigma**2))
    return g / g.sum()


def _filter_valid(img, g):
    """Weighted sums over every valid window, one axis at a time."""
    rows = sliding_window_view(img, g.size, axis=0) @ g
    return sliding_window_view(rows, g.size, axis=1) @ g


def ssim(reference, test, data_range=None):
    """Mean single-scale SSIM over all valid Gaussian-weighted windows."""
    ref = _as_real(reference)
    tst = _as_real(test)
    if ref.shape != tst.shape:
        raise ValueError("ssim inputs must share a shape")
    if min(ref.shape) < SSIM_WINDOW:
        raise ValueError(f"images must be at least {SSIM_WINDOW} pixels per side")
    if data_range is None:
        data_range = float(ref.max() - ref.min())
    if data_range <= 0:
        raise ValueError("data_range must be positive")
    g = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)
    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    mu_r = _filter_valid(ref, g)
    mu_t = _filter_valid(tst, g)
    rr = _filter_valid(ref * ref, g)
    tt = _filter_valid(tst * tst, g)
    rt = _filter_valid(ref * tst, g)
    var_r = rr - mu_r**2
    var_t = tt - mu_t**2
    cov = rt - mu_r * mu_t
    num = (2 * mu_r * mu_t + c1) * (2 * cov + c2)
    den = (mu_r**2 + mu_t**2 + c1) * (var_r + var_t + c2)
    return float(np.mean(num / den))


def nmse(reference, test):
    """||test - reference||^2 / ||reference||^2 on the raw (complex) values."""
    ref = np.asarray(reference)
    tst = np.asarray(test)
    if ref.shape != tst.shape:
        raise ValueError("nmse inputs must share a shape")
    denom = float(np.vdot(ref, ref).real)
    if denom == 0.0:
        raise ValueError("nmse is undefined for a zero reference")
    return float(np.vdot(tst - ref, tst - ref).real) / denom
