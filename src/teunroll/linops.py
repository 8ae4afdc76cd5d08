"""Linear-operator plumbing: conjugate gradients on the regularized normal
equations and Hutchinson trace estimation.

A linear map is a plain function from an array to an array of the same
shape, such as ``EncodingOperator.normal_array`` on an H x W image; inner
products and norms read the array in C order, as they would its ravel.
All inner products are conjugate-linear in the first argument.  Maps must
not keep or change what they are given; every routine here is pure.
CG solves (A + mu I) x = b with the shift mu given apart from A (mu = 0
is A x = b), keeps its scalars as Python floats and allocates only its
iterates and two buffers, so an iteration costs little beyond A's apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class CgReport:
    iterations_run: int
    final_residual_norm: float
    converged: bool


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


def cg_solve(A, b, mu, max_iters=15, tol=1e-12):
    """Conjugate gradients on (A + mu I) x = b for self-adjoint PSD A and a
    real shift mu >= 0 (mu = 0 is the plain system A x = b), from a zero
    initial guess, on a right-hand side b of any shape.  Stops early once
    ||r|| <= tol * ||b||, a test made before each iteration: a zero b
    meets it at once and returns zeros and CgReport(0, 0.0, True) without
    applying A.

    Returns (x, CgReport); the report's final_residual_norm is the
    absolute ||r||, and ||r|| / ||b|| the relative residual.  Raises
    FloatingPointError on a non-finite right-hand side, curvature or
    residual, which signal broken inputs or an indefinite or broken
    operator; A itself need not check its values.
    Raises ValueError if A(v) itself, before mu v is added, comes back in
    another shape or dtype than v's, which is b's (an integer b is taken
    as float64): a complex A needs a complex b.

    The scalars (||b||, squared residual norms, curvature, step length)
    are Python floats.  Besides x, r and p, one buffer holds mu p and then
    A p + mu p, another alpha p and then alpha (A p + mu p); all are
    updated in place, and nothing returned by A is written to.
    """
    b = np.asarray(b)
    b_norm = float(np.linalg.norm(b))
    if not math.isfinite(b_norm):
        raise FloatingPointError("CG right-hand side is not finite")
    goal = tol * b_norm
    goal_sq = goal * goal
    r = b.astype(np.result_type(b, 1.0))
    x = np.zeros_like(r)
    p = r.copy()
    Mp = np.empty_like(r)
    step = np.empty_like(r)
    rs = float(np.vdot(r, r).real)
    it = 0
    for it in range(1, max_iters + 1):
        if math.sqrt(rs) <= goal:
            it -= 1
            break
        Ap = A(p)
        if Ap.shape != p.shape:
            raise ValueError(f"operator maps shape {p.shape} to {Ap.shape}")
        if Ap.dtype != p.dtype:
            raise ValueError(f"operator maps dtype {p.dtype} to {Ap.dtype}")
        np.multiply(mu, p, out=Mp)
        np.add(Ap, Mp, out=Mp)
        pMp = float(np.vdot(p, Mp).real)
        if not math.isfinite(pMp) or pMp <= 0.0:
            if rs <= goal_sq or pMp == 0.0:
                break
            raise FloatingPointError(f"CG hit non-positive curvature ({pMp})")
        alpha = rs / pMp
        np.multiply(p, alpha, out=step)
        x += step
        np.multiply(Mp, alpha, out=step)
        r -= step
        rs_new = float(np.vdot(r, r).real)
        if not math.isfinite(rs_new):
            raise FloatingPointError("CG residual became non-finite")
        p *= rs_new / rs
        p += r
        rs = rs_new
    resid = math.sqrt(rs)
    return x, CgReport(it, resid, resid <= goal or resid == 0.0)


def estimate_trace_inverse(A, shape, mu, num_probes, seed, cg_iters=100):
    """Hutchinson estimate of (1/N) Tr[(A + mu I)^{-1}] for a map A on
    arrays of ``shape`` (N entries), with Rademacher probes, each solved by
    CG.  Deterministic given the seed."""
    if num_probes < 1:
        raise ValueError("need at least one probe")
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(num_probes):
        v = rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
        sol, _ = cg_solve(A, v.astype(np.complex128), mu, max_iters=cg_iters)
        total += np.vdot(v, sol).real
    return float(total / (num_probes * v.size))

