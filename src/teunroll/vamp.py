"""Vector approximate message passing: alternating LMMSE and denoising
estimators, each followed by its Onsager correction.

The LMMSE half-step solves (E^H E + mu_x I) x = E^H y + mu_x r by CG and
turns the trace of the resolvent into the outgoing message (mu_z, u); the
denoising half-step applies a proximal map and its normalized divergence to
send (mu_x, r) back.  Precisions are clamped at a small floor instead of
aborting; clamp events are counted in the diagnostics.  A run works on
one ``VampOperator``, built by ``as_vamp_operator``; its CG applies
``linops.normal_map_of``, the Gram map of ``run_unrolled``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linops import LinearMap, cg_solve, estimate_trace_inverse, normal_map_of, shifted, to_dense
from .metrics import nmse
from .signal_model import ComplexImage, EncodingOperator, KSpaceData
from .unroll import Diagnostics, reference_vector

# Above this many unknowns the resolvent trace is a Hutchinson estimate.
# The exact set-up holds only the H*W^2 row-block entries; the limit bounds
# its N checked Gram applies (time), not an N x N matrix.
EXACT_TRACE_LIMIT = 4096


@dataclass
class VampConfig:
    max_iters: int = 20
    damping: float = 0.9
    trace_probes: int = 32
    mu_floor: float = 1e-8
    cg_iters: int = 100

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if self.mu_floor <= 0:
            raise ValueError("mu_floor must be positive")


@dataclass
class VampState:
    r: np.ndarray
    mu_x: float
    x: np.ndarray | None = None
    upsilon_x: float | None = None
    mu_z: float | None = None
    u: np.ndarray | None = None
    z: np.ndarray | None = None
    upsilon_z: float | None = None
    clamps: int = 0


@dataclass(frozen=True)
class VampOperator:
    """The Gram map on flat vectors, E^H y, the estimate's shape and, for
    the exact resolvent trace, the Gram's eigenvalues."""

    gram: LinearMap
    rhs: np.ndarray
    shape: tuple
    eigvals: np.ndarray | None = None

    def trace_inverse_mean(self, mu, config: VampConfig, seed=0):
        if self.eigvals is not None:
            return float(np.mean(1.0 / (self.eigvals + mu)))
        return estimate_trace_inverse(
            self.gram, mu, config.trace_probes, seed, cg_iters=config.cg_iters
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

        blocks[row] = to_dense(LinearMap(probe, w))
    return blocks


def as_vamp_operator(E: EncodingOperator, y: KSpaceData):
    """The VampOperator of E and y.  Up to EXACT_TRACE_LIMIT unknowns the
    eigenvalues are exact: one batched ``eigvalsh`` over the Gram's row
    blocks, which ``gram_row_blocks`` probes one row block at a time in
    H*W^2 memory."""
    gram = normal_map_of(E)
    eigvals = None
    if gram.dim <= EXACT_TRACE_LIMIT:
        eigvals = np.linalg.eigvalsh(gram_row_blocks(E)).ravel()
    return VampOperator(gram, E.adjoint(y).data.ravel(), E.shape, eigvals)


def lmmse_step(op: VampOperator, state: VampState, config: VampConfig | None = None, seed=0):
    """Data-fidelity half-step: LMMSE solve plus its Onsager correction.

    x   = (E^H E + mu_x I)^{-1} (E^H y + mu_x r)
    v_x = (1/N) Tr[(E^H E + mu_x I)^{-1}]
    mu_z = 1/v_x - mu_x           u = (x / v_x - mu_x r) / mu_z
    """
    config = config or VampConfig()
    if not state.mu_x > 0:
        raise FloatingPointError("mu_x must be positive")
    b = op.rhs + state.mu_x * state.r
    x, _ = cg_solve(shifted(op.gram, state.mu_x), b, max_iters=config.cg_iters)
    upsilon_x = op.trace_inverse_mean(state.mu_x, config, seed=seed)
    mu_z = 1.0 / upsilon_x - state.mu_x
    clamps = state.clamps
    if mu_z <= config.mu_floor:
        mu_z = config.mu_floor
        clamps += 1
    u = (x / upsilon_x - state.mu_x * state.r) / mu_z
    return replace(state, x=x, upsilon_x=upsilon_x, mu_z=mu_z, u=u, z=None, upsilon_z=None,
                   clamps=clamps)


def denoise_step(prox, state: VampState, config: VampConfig | None = None):
    """Denoising half-step with its Onsager correction.

    z   = prox(u; mu_z)
    v_z = prox.divergence(u; mu_z) / mu_z      mu_x+ = 1/v_z - mu_z
    r+  = (z / v_z - mu_z u) / mu_x+
    with damping applied to the (r, mu_x) updates.
    """
    config = config or VampConfig()
    if state.mu_z is None or state.u is None:
        raise ValueError("denoise_step needs the LMMSE outputs (u, mu_z)")
    if not state.mu_z > 0:
        raise FloatingPointError("mu_z must be positive")
    z = prox.apply(state.u, state.mu_z)
    upsilon_z = prox.divergence(state.u, state.mu_z) / state.mu_z
    clamps = state.clamps
    if upsilon_z <= 0.0:
        upsilon_z = config.mu_floor
        clamps += 1
    mu_x_new = 1.0 / upsilon_z - state.mu_z
    if mu_x_new <= config.mu_floor:
        mu_x_new = config.mu_floor
        clamps += 1
    r_new = (z / upsilon_z - state.mu_z * state.u) / mu_x_new
    d = config.damping
    return replace(state, r=d * r_new + (1.0 - d) * state.r,
                   mu_x=d * mu_x_new + (1.0 - d) * state.mu_x, z=z, upsilon_z=upsilon_z,
                   clamps=clamps)


VAMP_COLUMNS = ("iteration", "mu_x", "mu_z", "upsilon_x", "upsilon_z", "nmse", "clamps")


def run_vamp(op: VampOperator, prox, config: VampConfig | None = None, reference=None):
    """Alternate LMMSE and denoising half-steps for max_iters iterations.

    Returns (x, diagnostics), x reshaped to op.shape.  Never aborts on clamp
    events; they are counted per iteration in the diagnostics.
    """
    config = config or VampConfig()
    state = VampState(r=np.zeros_like(op.rhs), mu_x=1.0)
    ref = reference_vector(reference)
    diags = Diagnostics(VAMP_COLUMNS)
    x = state.r
    for it in range(config.max_iters):
        mu_x_used = state.mu_x
        state = lmmse_step(op, state, config, seed=2 * it)
        state = denoise_step(prox, state, config)
        x = state.x
        # the row reports the mu_x the LMMSE half-step consumed, so the
        # precision identity 1/v_x = mu_x + mu_z reads off directly
        diags.record(it, mu_x_used, state.mu_z, state.upsilon_x, state.upsilon_z,
                     None if ref is None else nmse(ref, x), state.clamps)
        if not np.all(np.isfinite(x)):
            break
    return x.reshape(op.shape), diags
