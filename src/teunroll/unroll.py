"""Unrolled reconstruction engines.

Three families over a shared CG data-fidelity core:

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
it on H x W complex images and ``nn.TrainableEngine.forward`` on tape
Tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linops import cg_solve, shifted
from .metrics import nmse
from .signal_model import ComplexImage, EncodingOperator, KSpaceData

# each algorithm's recursion; the _te variants differ only in their schedules
FAMILIES = {"vsqp": "vsqp", "admm": "admm", "alg1": "alg1", "vsqp_te": "vsqp",
            "admm_te": "admm"}
ALGORITHMS = tuple(FAMILIES)


def check_unrolls(algorithm, T, cg_iters):
    """Validate an unrolled run's shape; returns the algorithm's family."""
    if algorithm not in FAMILIES:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if T < 1:
        raise ValueError("T must be >= 1")
    if cg_iters < 1:
        raise ValueError("cg_iters must be >= 1")
    return FAMILIES[algorithm]


def _schedule(name, values, T):
    """One finite float per unroll."""
    values = [float(v) for v in values] if values is not None else []
    if len(values) != T:
        raise ValueError(f"{name} schedule length must equal T")
    if not all(map(math.isfinite, values)):
        raise ValueError("schedule contains non-finite values")
    return values


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


def reference_array(reference):
    """A ComplexImage or array reference as an array, or None."""
    if isinstance(reference, ComplexImage):
        return reference.data
    return None if reference is None else np.asarray(reference)


UNROLL_COLUMNS = ("unroll_index", "mu_t", "rho_t", "cg_residual", "x_u_nmse", "nmse_vs_ref",
                  "cg_iters", "cg_converged", "cg_rel_residual")


def run_unrolled(algorithm, E: EncodingOperator, y: KSpaceData, mu, prox, rho=None,
                 lam=None, cg_iters=15, reference=None):
    """Run T = len(mu) unrolls of ``algorithm``.

    mu holds one data-fidelity weight per unroll; alg1 also needs one
    Onsager weight per unroll in rho and the ADMM family one dual step per
    unroll in lam.  prox(image, t) is unroll t's proximal map on a 2-D
    complex image.

    Returns (ComplexImage, Diagnostics).  The diagnostics carry, per
    unroll, the CG solve's absolute residual ||r||, the normalized gap
    ||x - u||^2 / ||x||^2 of the Onsager-corrected estimate (alg1 only),
    NMSE against an optional reference, then the solve's CgReport: the
    iterations run, whether ||r|| reached the tolerance and ||r|| / ||b||
    (0 for a zero b).

    The CG solves run on the image and apply the unchecked Gram
    ``E.normal_array``; a non-finite prox output reaches the next solve's
    right-hand side, and ``cg_solve`` raises FloatingPointError on it.
    """
    T = len(mu)
    family = check_unrolls(algorithm, T, cg_iters)
    mu = _schedule("mu", mu, T)
    # alg1's Onsager weight or the ADMM dual step; both fill the rho_t column
    step = {"alg1": ("rho", rho), "admm": ("lam", lam)}.get(family)
    steps = _schedule(*step, T) if step else None

    rhs0 = E.adjoint(y).data
    ref = reference_array(reference)

    def solve(t, b):
        x, rep = cg_solve(shifted(E.normal_array, mu[t]), b, max_iters=cg_iters, tol=1e-12)
        b_norm = np.linalg.norm(b)
        return x, (rep, rep.final_residual_norm / b_norm if b_norm > 0 else 0.0)

    diags = Diagnostics(UNROLL_COLUMNS)
    for t, x, u, (rep, rel_residual) in unroll_steps(family, T, rhs0, np.zeros_like(rhs0),
                                                     solve, prox, mu, steps, steps):
        x_u_nmse = None
        if family == "alg1":
            x_u_nmse = float(
                np.linalg.norm(x - u) ** 2 / max(np.linalg.norm(x) ** 2, 1e-300)
            )
        diags.record(t, mu[t], steps[t] if steps else None, rep.final_residual_norm,
                     x_u_nmse, None if ref is None else nmse(ref, x),
                     rep.iterations_run, rep.converged, rel_residual)

    return ComplexImage(x), diags
