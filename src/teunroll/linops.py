"""Linear-operator plumbing: the Gram map, conjugate gradients on the
regularized normal equations and Hutchinson trace estimation.

All inner products are conjugate-linear in the first argument.  LinearMap
closures must be immutable; every routine here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class LinearMap:
    """A matrix-free linear map on complex (or real) vectors of length dim."""

    apply: Callable[[np.ndarray], np.ndarray]
    dim: int


@dataclass
class CgReport:
    iterations_run: int
    final_residual_norm: float
    converged: bool


def shifted(A: LinearMap, mu):
    """The map v -> A v + mu v."""
    return LinearMap(lambda v: A.apply(v) + mu * v, A.dim)


def to_dense(A: LinearMap):
    """Materialize the matrix by probing with unit basis vectors."""
    out = np.empty((A.dim, A.dim), dtype=np.complex128)
    probe = np.zeros(A.dim, dtype=np.complex128)
    for i in range(A.dim):
        probe[i] = 1.0
        out[:, i] = A.apply(probe.copy())
        probe[i] = 0.0
    return out


def normal_map_of(E):
    """E^H E of an EncodingOperator on flat image vectors, unchecked: the
    map of every CG solve in ``run_unrolled`` and VAMP.  ``cg_solve``
    checks finiteness itself."""
    shape = E.shape
    return LinearMap(lambda v: E.normal_array(v.reshape(shape)).ravel(), shape[0] * shape[1])


def cg_solve(A: LinearMap, b, max_iters=15, tol=1e-12):
    """Conjugate gradients for self-adjoint PSD A from a zero initial
    guess.  Stops early once ||r|| <= tol * ||b||.

    Returns (x, CgReport).  Raises FloatingPointError on a non-finite
    right-hand side, curvature or residual, which signal broken inputs or
    an indefinite or broken operator; A itself need not check its values.

    x, r and p are updated in place: all three are allocated here, and
    nothing returned by A.apply is written to.
    """
    b = np.asarray(b)
    if b.shape != (A.dim,):
        raise ValueError(f"rhs length {b.shape} != operator dim {A.dim}")
    b_norm = np.linalg.norm(b)
    if not np.isfinite(b_norm):
        raise FloatingPointError("CG right-hand side is not finite")
    r = b.astype(np.result_type(b, 1.0))
    x = np.zeros_like(r)
    if b_norm == 0.0:
        return x, CgReport(0, 0.0, True)
    p = r.copy()
    rs = np.vdot(r, r).real
    it = 0
    for it in range(1, max_iters + 1):
        if np.sqrt(rs) <= tol * b_norm:
            it -= 1
            break
        Ap = A.apply(p)
        if Ap.dtype != x.dtype:
            # e.g. a complex A under a real b: the iterates take A's type
            dtype = np.result_type(x, Ap)
            x, r, p = x.astype(dtype), r.astype(dtype), p.astype(dtype)
        pAp = np.vdot(p, Ap).real
        if not np.isfinite(pAp) or pAp <= 0.0:
            if rs <= (tol * b_norm) ** 2 or pAp == 0.0:
                break
            raise FloatingPointError(f"CG hit non-positive curvature ({pAp})")
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        rs_new = np.vdot(r, r).real
        if not np.isfinite(rs_new):
            raise FloatingPointError("CG residual became non-finite")
        p *= rs_new / rs
        p += r
        rs = rs_new
    resid = float(np.sqrt(rs))
    return x, CgReport(it, resid, resid <= tol * b_norm or resid == 0.0)


def estimate_trace_inverse(A: LinearMap, mu, num_probes, seed, cg_iters=100):
    """Hutchinson estimate of (1/N) Tr[(A + mu I)^{-1}] with Rademacher
    probes, each solved by CG.  Deterministic given the seed."""
    if num_probes < 1:
        raise ValueError("need at least one probe")
    rng = np.random.default_rng(seed)
    shifted_A = shifted(A, mu)
    total = 0.0
    for _ in range(num_probes):
        v = rng.integers(0, 2, size=A.dim).astype(np.float64) * 2.0 - 1.0
        sol, _ = cg_solve(shifted_A, v.astype(np.complex128), max_iters=cg_iters)
        total += np.vdot(v, sol).real
    return float(total / (num_probes * A.dim))

