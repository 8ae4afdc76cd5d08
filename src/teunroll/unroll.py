"""Unrolled reconstruction engines.

Four families over a shared CG data-fidelity core:

  vsqp    x = (E^H E + mu I)^{-1}(E^H y + mu z);        z = prox(x)
  admm    x = (E^H E + mu I)^{-1}(E^H y + mu (z - u));  z = prox(x + u);
          u = u + lam (x - z)
  alg1    x = (E^H E + mu_t I)^{-1}(E^H y + mu_t r);    u = x + rho_t (x - r);
          r = prox(u, t)

vsqp_te / admm_te are the same recursions with per-unroll mu_t and a
t-aware prox; they run through the identical code path, so constant
schedules reduce to the static baselines bit for bit.  Initialization is
x0 = r0 = z0 = E^H y and u0 = 0.

The recursion is written once, in ``unroll_steps``: ``run_unrolled`` runs
it on complex ndarrays and ``nn.TrainableEngine.forward`` on tape Tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linops import cg_solve, normal_map_of, shifted
from .signal_model import ComplexImage, EncodingOperator, KSpaceData

ALGORITHMS = ("vsqp", "admm", "alg1", "vsqp_te", "admm_te")
SHARING_MODES = ("shared", "unshared", "time_embedded")


@dataclass
class UnrollConfig:
    algorithm: str
    T: int
    cg_iters: int = 15
    sharing: str = "shared"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.sharing not in SHARING_MODES:
            raise ValueError(f"unknown sharing mode {self.sharing!r}")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.cg_iters < 1:
            raise ValueError("cg_iters must be >= 1")

    @property
    def family(self):
        if self.algorithm in ("vsqp", "vsqp_te"):
            return "vsqp"
        if self.algorithm in ("admm", "admm_te"):
            return "admm"
        return "alg1"


@dataclass
class ScalarSchedule:
    """One scalar per unroll (mu_t, rho_t or lambda_t)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("schedule values must be 1-D")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("schedule contains non-finite values")

    @classmethod
    def constant(cls, value, T):
        return cls(np.full(T, float(value)))


def _wrap_prox(p, shape):
    """Uniform (flat complex vector, t) -> flat vector view of a proximal map."""
    if hasattr(p, "apply_complex"):
        return lambda v, t: p.apply_complex(v.reshape(shape), t).ravel()
    if hasattr(p, "apply"):
        return lambda v, t: p.apply(v, 1.0)
    raise TypeError(f"cannot use {type(p).__name__} as a proximal operator")


def unroll_steps(family, T, rhs0, zero, solve, prox, mu, rho, lam):
    """The vsqp / admm / alg1 recursion, one step per yield.

    Only +, - and * touch the iterates, so the same code runs on complex
    ndarrays (inference) and on tape Tensors (training).  rhs0 = E^H y
    starts z and r, zero starts u.  solve(t, b) returns (x, info) for
    (E^H E + mu_t I) x = b; prox(v, t) is the unroll-t proximal map; mu,
    rho and lam are indexed by t.  Yields (t, x, u, info) after each unroll.
    """
    z = r = rhs0
    u = zero
    for t in range(T):
        if family == "vsqp":
            x, info = solve(t, rhs0 + mu[t] * z)
            z = prox(x, t)
        elif family == "admm":
            x, info = solve(t, rhs0 + mu[t] * (z - u))
            z = prox(x + u, t)
            u = u + lam[t] * (x - z)
        else:
            x, info = solve(t, rhs0 + mu[t] * r)
            u = x + rho[t] * (x - r)
            r = prox(u, t)
        yield t, x, u, info


def _csv_field(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


@dataclass
class Diagnostics:
    """Per-step rows over a fixed column order, written out as CSV."""

    columns: tuple
    rows: list = field(default_factory=list)

    def record(self, *values):
        self.rows.append(dict(zip(self.columns, values)))

    def to_csv(self):
        lines = [",".join(self.columns)]
        lines += [",".join(_csv_field(row[c]) for c in self.columns) for row in self.rows]
        return "\n".join(lines) + "\n"


UNROLL_COLUMNS = ("unroll_index", "mu_t", "rho_t", "cg_residual", "x_u_nmse", "nmse_vs_ref")


def run_unrolled(
    config: UnrollConfig,
    E: EncodingOperator,
    y: KSpaceData,
    schedules,
    prox_bank,
    reference=None,
):
    """Run T unrolls of the configured algorithm.

    schedules: dict with a 'mu' ScalarSchedule (length T) plus 'rho' for
    alg1 and 'lam' for the ADMM family.  prox_bank holds one prox for
    shared/time_embedded sharing or T proxes for unshared.

    Returns (ComplexImage, Diagnostics).  The diagnostics carry the
    per-unroll CG residual, the normalized gap ||x - u||^2 / ||x||^2 of the
    Onsager-corrected estimate (alg1 only) and NMSE against an optional
    reference.
    """
    T = config.T
    if len(schedules["mu"].values) != T:
        raise ValueError("mu schedule length must equal T")
    if config.sharing == "unshared":
        if len(prox_bank) != T:
            raise ValueError("unshared mode needs T proximal operators")
    elif len(prox_bank) != 1:
        raise ValueError("shared/time-embedded modes use a single proximal operator")
    shape = E.shape
    proxes = [_wrap_prox(p, shape) for p in prox_bank] * (T // len(prox_bank))

    gram = normal_map_of(E)
    rhs0 = E.adjoint(y).data.ravel()
    ref = None
    if reference is not None:
        ref = np.asarray(
            reference.data if isinstance(reference, ComplexImage) else reference
        ).ravel()

    family = config.family
    mu = [float(v) for v in schedules["mu"].values]
    # alg1's Onsager weight or the ADMM dual step; both fill the rho_t column
    step = {"alg1": "rho", "admm": "lam"}.get(family)
    steps = [float(v) for v in schedules[step].values] if step else None

    def solve(t, b):
        return cg_solve(shifted(gram, mu[t]), b, max_iters=config.cg_iters, tol=1e-12)

    diags = Diagnostics(UNROLL_COLUMNS)
    for t, x, u, rep in unroll_steps(family, T, rhs0, np.zeros_like(rhs0), solve,
                                     lambda v, t: proxes[t](v, t), mu, steps, steps):
        x_u_nmse = None
        if family == "alg1":
            x_u_nmse = float(
                np.linalg.norm(x - u) ** 2 / max(np.linalg.norm(x) ** 2, 1e-300)
            )
        nmse_vs_ref = None
        if ref is not None:
            nmse_vs_ref = float(
                np.linalg.norm(x - ref) ** 2 / np.linalg.norm(ref) ** 2
            )
        diags.record(t, mu[t], steps[t] if steps else None, rep.final_residual_norm,
                     x_u_nmse, nmse_vs_ref)

    return ComplexImage(x.reshape(shape)), diags
