"""Vector approximate message passing: alternating LMMSE and denoising
estimators, each followed by its Onsager correction.

The LMMSE half-step solves (E^H E + mu_x I) x = E^H y + mu_x r by CG and
turns the trace of the resolvent into the outgoing message (mu_z, u); the
denoising half-step applies a proximal map and its normalized divergence to
send (mu_x, r) back.  Precisions are clamped at a small floor instead of
aborting; clamp events are counted in the diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import LinearMap, cg_solve, estimate_trace_inverse, from_dense, shifted, to_dense
from .prox import mc_divergence
from .signal_model import ComplexImage, EncodingOperator, KSpaceData
from .unroll import Diagnostics

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


class VampOperator:
    """Adapter giving VAMP a uniform view of a measurement operator: the
    Gram map, the adjoint-applied data, and the mean trace of the shifted
    resolvent (exact via eigenvalues up to EXACT_TRACE_LIMIT unknowns,
    Hutchinson probes beyond)."""

    def __init__(self, gram: LinearMap, rhs: np.ndarray, domain_shape=None):
        self.gram = gram
        self.rhs = rhs
        self.dim = gram.dim
        self.domain_shape = domain_shape
        self._eigvals = None

    @classmethod
    def from_dense(cls, E, y):
        E = np.asarray(E)
        g = E.conj().T @ E
        op = cls(from_dense(g), E.conj().T @ np.asarray(y))
        if E.shape[1] <= EXACT_TRACE_LIMIT:
            op._eigvals = np.linalg.eigvalsh(g)
        return op

    @classmethod
    def from_encoding(cls, E: EncodingOperator, y: KSpaceData):
        from .linops import normal_map_of

        gram = normal_map_of(E)
        rhs = E.adjoint(y).data.ravel()
        op = cls(gram, rhs, domain_shape=E.shape)
        if gram.dim <= EXACT_TRACE_LIMIT:
            # Masks sample whole columns (checked in SamplingMask), so E^H E
            # couples pixels only within an image row: its row-major dense
            # matrix is block diagonal, H blocks of size W x W.
            h, w = E.shape
            rows = np.arange(h)
            blocks = to_dense(gram).reshape(h, w, h, w)[rows, :, rows, :]
            op._eigvals = np.linalg.eigvalsh(blocks).ravel()
        return op

    def trace_inverse_mean(self, mu, config: VampConfig, seed=0):
        if self._eigvals is not None:
            return float(np.mean(1.0 / (self._eigvals + mu)))
        return estimate_trace_inverse(
            self.gram, mu, config.trace_probes, seed, cg_iters=config.cg_iters
        )


def as_vamp_operator(E, y):
    if isinstance(E, VampOperator):
        return E
    if isinstance(E, EncodingOperator):
        return VampOperator.from_encoding(E, y)
    return VampOperator.from_dense(E, y)


def lmmse_step(op, y, state: VampState, config: VampConfig | None = None, seed=0):
    """Data-fidelity half-step: LMMSE solve plus its Onsager correction.

    x   = (E^H E + mu_x I)^{-1} (E^H y + mu_x r)
    v_x = (1/N) Tr[(E^H E + mu_x I)^{-1}]
    mu_z = 1/v_x - mu_x           u = (x / v_x - mu_x r) / mu_z
    """
    config = config or VampConfig()
    if state.mu_x <= 0:
        raise ValueError("mu_x must be positive")
    op = as_vamp_operator(op, y)
    b = op.rhs + state.mu_x * state.r
    x, _ = cg_solve(shifted(op.gram, state.mu_x), b, max_iters=config.cg_iters)
    upsilon_x = op.trace_inverse_mean(state.mu_x, config, seed=seed)
    mu_z = 1.0 / upsilon_x - state.mu_x
    clamps = state.clamps
    if mu_z <= config.mu_floor:
        mu_z = config.mu_floor
        clamps += 1
    u = (x / upsilon_x - state.mu_x * state.r) / mu_z
    return VampState(
        r=state.r,
        mu_x=state.mu_x,
        x=x,
        upsilon_x=upsilon_x,
        mu_z=mu_z,
        u=u,
        clamps=clamps,
    )


def denoise_step(prox, state: VampState, config: VampConfig | None = None, seed=0):
    """Denoising half-step with its Onsager correction.

    z   = prox(u; mu_z)
    v_z = divergence / mu_z      mu_x+ = 1/v_z - mu_z
    r+  = (z / v_z - mu_z u) / mu_x+
    with damping applied to the (r, mu_x) updates.
    """
    config = config or VampConfig()
    if state.mu_z is None or state.u is None:
        raise ValueError("denoise_step needs the LMMSE outputs (u, mu_z)")
    if state.mu_z <= 0:
        raise ValueError("mu_z must be positive")
    z = prox.apply(state.u, state.mu_z)
    if hasattr(prox, "divergence"):
        div = prox.divergence(state.u, state.mu_z)
    else:
        div = mc_divergence(prox, state.u, state.mu_z, epsilon=1e-4, seed=seed)
    upsilon_z = div / state.mu_z
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
    return VampState(
        r=d * r_new + (1.0 - d) * state.r,
        mu_x=d * mu_x_new + (1.0 - d) * state.mu_x,
        x=state.x,
        upsilon_x=state.upsilon_x,
        mu_z=state.mu_z,
        u=state.u,
        z=z,
        upsilon_z=upsilon_z,
        clamps=clamps,
    )


VAMP_COLUMNS = ("iteration", "mu_x", "mu_z", "upsilon_x", "upsilon_z", "nmse", "clamps")


def run_vamp(E, y, prox, config: VampConfig | None = None, init=None, reference=None):
    """Alternate LMMSE and denoising half-steps for max_iters iterations.

    Returns (x, diagnostics).  x matches the domain of E: an image array for
    encoding operators, a vector for dense matrices.  Never aborts on clamp
    events; they are counted per iteration in the diagnostics.
    """
    config = config or VampConfig()
    op = as_vamp_operator(E, y)
    if init is None:
        state = VampState(r=np.zeros(op.dim, dtype=op.rhs.dtype), mu_x=1.0)
    else:
        state = init
    ref_vec = None
    if reference is not None:
        ref_vec = np.asarray(
            reference.data if isinstance(reference, ComplexImage) else reference
        ).ravel()
    diags = Diagnostics(VAMP_COLUMNS)
    x = state.r
    for it in range(config.max_iters):
        mu_x_used = state.mu_x
        state = lmmse_step(op, y, state, config, seed=2 * it)
        state = denoise_step(prox, state, config, seed=2 * it + 1)
        x = state.x
        nmse = None
        if ref_vec is not None:
            nmse = float(
                np.linalg.norm(x - ref_vec) ** 2 / np.linalg.norm(ref_vec) ** 2
            )
        # the row reports the mu_x the LMMSE half-step consumed, so the
        # precision identity 1/v_x = mu_x + mu_z reads off directly
        diags.record(it, mu_x_used, state.mu_z, state.upsilon_x, state.upsilon_z, nmse,
                     state.clamps)
        if not np.all(np.isfinite(x)):
            break
    if op.domain_shape is not None:
        return x.reshape(op.domain_shape), diags
    return x, diags
