"""Vector approximate message passing: alternating LMMSE and denoising
estimators, each followed by its Onsager correction.

The two half-steps trade explicit messages.  The LMMSE half-step takes
(r, mu_x), solves (E^H E + mu_x I) x = E^H y + mu_x r by CG and turns the
trace of the resolvent into the outgoing message (u, mu_z); the denoising
half-step takes (u, mu_z), applies a proximal map and its normalized
divergence and sends (r, mu_x) back.  Precisions are clamped at a small
floor instead of aborting; each half-step returns its own clamp count and
``run_vamp`` reports the running sum in the diagnostics.  A run works on
one ``VampOperator``, built by ``as_vamp_operator`` from E alone, and on
the E^H y of one measurement, passed in beside it; so one set-up serves
every slice measured through the same E.  The messages are H x W images
and the CG applies ``E.normal_array``, the Gram map of ``run_unrolled``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linops import cg_solve, estimate_trace_inverse, shifted, to_dense
from .metrics import nmse
from .signal_model import ComplexImage, EncodingOperator
from .unroll import Diagnostics, reference_array

# Above this many unknowns the resolvent trace is a Hutchinson estimate.
# The exact set-up holds only the H*W^2 row-block entries; the limit bounds
# its N checked Gram applies (time), not an N x N matrix.
EXACT_TRACE_LIMIT = 4096
# Rademacher probes of the Hutchinson estimate.
TRACE_PROBES = 32


@dataclass
class VampConfig:
    max_iters: int = 20
    damping: float = 0.9
    mu_floor: float = 1e-8
    cg_iters: int = 100

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.cg_iters < 1:
            raise ValueError("cg_iters must be >= 1")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if self.mu_floor <= 0:
            raise ValueError("mu_floor must be positive")


@dataclass(frozen=True)
class VampOperator:
    """What VAMP needs of E: the Gram map, the shape of the arrays it acts
    on and, for the exact resolvent trace, the Gram's eigenvalues.  It
    holds no measurement."""

    gram: Callable[[np.ndarray], np.ndarray]
    shape: tuple
    eigvals: np.ndarray | None = None

    def trace_inverse_mean(self, mu, config: VampConfig, seed=0):
        if self.eigvals is not None:
            return float(np.mean(1.0 / (self.eigvals + mu)))
        return estimate_trace_inverse(
            self.gram, self.shape, mu, TRACE_PROBES, seed, cg_iters=config.cg_iters
        )


def gram_row_blocks(E: EncodingOperator):
    """The H diagonal W x W blocks of E^H E as an (H, W, W) array.  Masks
    sample whole columns (checked in SamplingMask), so rows do not couple.
    Block h is probed one row at a time: ``to_dense`` of the W-dimensional
    map that puts its vector into row h of an otherwise zero image, applies
    the checked ``E.normal`` and reads row h back, so the set-up holds
    H*W^2 entries and never the N x N Gram."""
    h, w = E.shape
    blocks = np.empty((h, w, w), dtype=np.complex128)
    for row in range(h):
        def probe(v, row=row):
            img = np.zeros((h, w), dtype=np.complex128)
            img[row] = v
            return E.normal(ComplexImage(img)).data[row]

        blocks[row] = to_dense(probe, w)
    return blocks


def as_vamp_operator(E: EncodingOperator):
    """The VampOperator of E.  Up to EXACT_TRACE_LIMIT unknowns the
    eigenvalues are exact: one batched ``eigvalsh`` over the Gram's row
    blocks, which ``gram_row_blocks`` probes one row block at a time in
    H*W^2 memory."""
    eigvals = None
    if E.shape[0] * E.shape[1] <= EXACT_TRACE_LIMIT:
        eigvals = np.linalg.eigvalsh(gram_row_blocks(E)).ravel()
    return VampOperator(E.normal_array, E.shape, eigvals)


def lmmse_step(op: VampOperator, rhs, r, mu_x, config: VampConfig | None = None, seed=0):
    """Data-fidelity half-step: LMMSE solve plus its Onsager correction,
    with rhs = E^H y.

    x   = (E^H E + mu_x I)^{-1} (E^H y + mu_x r)
    v_x = (1/N) Tr[(E^H E + mu_x I)^{-1}]
    mu_z = 1/v_x - mu_x           u = (x / v_x - mu_x r) / mu_z

    Returns (x, v_x, u, mu_z, clamps), clamps counting this half-step's
    clamp events.
    """
    config = config or VampConfig()
    if not mu_x > 0:
        raise FloatingPointError("mu_x must be positive")
    b = rhs + mu_x * r
    x, _ = cg_solve(shifted(op.gram, mu_x), b, max_iters=config.cg_iters)
    upsilon_x = op.trace_inverse_mean(mu_x, config, seed=seed)
    mu_z = 1.0 / upsilon_x - mu_x
    clamps = 0
    if mu_z <= config.mu_floor:
        mu_z = config.mu_floor
        clamps += 1
    u = (x / upsilon_x - mu_x * r) / mu_z
    return x, upsilon_x, u, mu_z, clamps


def denoise_step(prox, u, mu_z, r, mu_x, config: VampConfig | None = None):
    """Denoising half-step with its Onsager correction.

    z   = prox(u; mu_z)
    v_z = prox.divergence(u; mu_z) / mu_z      mu_x+ = 1/v_z - mu_z
    r+  = (z / v_z - mu_z u) / mu_x+
    with damping towards the previous message (r, mu_x).

    Returns the damped (r+, mu_x+), then (z, v_z, clamps), clamps counting
    this half-step's clamp events.
    """
    config = config or VampConfig()
    if not mu_z > 0:
        raise FloatingPointError("mu_z must be positive")
    z = prox.apply(u, mu_z)
    upsilon_z = prox.divergence(u, mu_z) / mu_z
    clamps = 0
    if upsilon_z <= 0.0:
        upsilon_z = config.mu_floor
        clamps += 1
    mu_x_new = 1.0 / upsilon_z - mu_z
    if mu_x_new <= config.mu_floor:
        mu_x_new = config.mu_floor
        clamps += 1
    r_new = (z / upsilon_z - mu_z * u) / mu_x_new
    d = config.damping
    return (d * r_new + (1.0 - d) * r, d * mu_x_new + (1.0 - d) * mu_x, z, upsilon_z,
            clamps)


VAMP_COLUMNS = ("iteration", "mu_x", "mu_z", "upsilon_x", "upsilon_z", "nmse", "clamps")


def run_vamp(op: VampOperator, rhs, prox, config: VampConfig | None = None, reference=None):
    """Alternate LMMSE and denoising half-steps for max_iters iterations on
    the data rhs = E^H y.

    Returns (x, diagnostics), x in the shape of rhs.  Never aborts on clamp
    events; the diagnostics count them, summed over the iterations so far.
    """
    config = config or VampConfig()
    r, mu_x = np.zeros_like(rhs), 1.0
    ref = reference_array(reference)
    diags = Diagnostics(VAMP_COLUMNS)
    clamps = 0
    for it in range(config.max_iters):
        x, upsilon_x, u, mu_z, lmmse_clamps = lmmse_step(op, rhs, r, mu_x, config, seed=2 * it)
        r_next, mu_x_next, _, upsilon_z, denoise_clamps = denoise_step(prox, u, mu_z, r, mu_x,
                                                                       config)
        clamps += lmmse_clamps + denoise_clamps
        # the row reports the mu_x the LMMSE half-step consumed, so the
        # precision identity 1/v_x = mu_x + mu_z reads off directly
        diags.record(it, mu_x, mu_z, upsilon_x, upsilon_z,
                     None if ref is None else nmse(ref, x), clamps)
        if not np.all(np.isfinite(x)):
            break
        r, mu_x = r_next, mu_x_next
    return x, diags
