"""Linear-operator plumbing: conjugate gradients on the regularized normal
equations and Hutchinson trace estimation.

A linear map is a plain function from an array to an array of the same
shape, such as ``EncodingOperator.normal_array`` on an H x W image; inner
products and norms read the array in C order, as they would its ravel.
All inner products are conjugate-linear in the first argument.  Maps must
not keep or change what they are given; every routine here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CgReport:
    iterations_run: int
    final_residual_norm: float
    converged: bool


def shifted(A, mu):
    """The map v -> A v + mu v."""
    return lambda v: A(v) + mu * v


def to_dense(A, n):
    """Materialize the n x n matrix of a map on length-n vectors by probing
    with unit basis vectors."""
    out = np.empty((n, n), dtype=np.complex128)
    probe = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        probe[i] = 1.0
        out[:, i] = A(probe.copy())
        probe[i] = 0.0
    return out


def cg_solve(A, b, max_iters=15, tol=1e-12):
    """Conjugate gradients for self-adjoint PSD A from a zero initial
    guess, on a right-hand side b of any shape.  Stops early once
    ||r|| <= tol * ||b||.

    Returns (x, CgReport).  Raises FloatingPointError on a non-finite
    right-hand side, curvature or residual, which signal broken inputs or
    an indefinite or broken operator; A itself need not check its values.
    Raises ValueError if A(v) comes back in another shape than v's.

    x, r and p are updated in place: all three are allocated here, and
    nothing returned by A is written to.
    """
    b = np.asarray(b)
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
        Ap = A(p)
        if Ap.shape != p.shape:
            raise ValueError(f"operator maps shape {p.shape} to {Ap.shape}")
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


def estimate_trace_inverse(A, shape, mu, num_probes, seed, cg_iters=100):
    """Hutchinson estimate of (1/N) Tr[(A + mu I)^{-1}] for a map A on
    arrays of ``shape`` (N entries), with Rademacher probes, each solved by
    CG.  Deterministic given the seed."""
    if num_probes < 1:
        raise ValueError("need at least one probe")
    rng = np.random.default_rng(seed)
    shifted_A = shifted(A, mu)
    total = 0.0
    for _ in range(num_probes):
        v = rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
        sol, _ = cg_solve(shifted_A, v.astype(np.complex128), max_iters=cg_iters)
        total += np.vdot(v, sol).real
    return float(total / (num_probes * v.size))

