"""Independent oracles used by the test suite.

Everything here is deliberately naive (dense probes, double loops, long
first-order methods) and never calls the code paths it is used to check.
"""

from dataclasses import dataclass

import numpy as np

from teunroll.linops import LinearMap
from teunroll.nn import engine as en
from teunroll.nn.engine import Tensor
from teunroll.prox import soft_threshold, soft_threshold_divergence


def dense_from_probes(apply_fn, n, dtype=np.complex128):
    """Materialize a linear map column by column with unit basis vectors."""
    probe = np.zeros(n, dtype=dtype)
    cols = []
    for i in range(n):
        probe[i] = 1.0
        cols.append(np.asarray(apply_fn(probe.copy())))
        probe[i] = 0.0
    return np.stack(cols, axis=1)


def identity_map(dim):
    return LinearMap(lambda v: v.copy(), dim)


@dataclass(frozen=True)
class ScaledSoftThreshold:
    """Soft threshold at c * sqrt(1/mu), i.e. proportional to the current
    effective noise level, the classic message-passing schedule."""

    c: float

    def apply(self, u, noise_precision):
        return soft_threshold(np.asarray(u), self.c / np.sqrt(noise_precision))

    def divergence(self, u, noise_precision):
        return soft_threshold_divergence(u, self.c / np.sqrt(noise_precision))


def power_iteration_norm(A, iters, seed):
    """Rayleigh-quotient estimate of the largest eigenvalue of self-adjoint A."""
    if iters < 1:
        raise ValueError("need at least one iteration")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = A.apply(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        lam = np.vdot(v, w).real
        v = w / norm
    return float(lam)


def haar_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def spd_with_clusters(n, num_clusters, cond, rng):
    """Random SPD matrix with at most num_clusters distinct eigenvalues in
    [1, cond]; CG converges within num_clusters iterations on these."""
    vals = np.exp(rng.uniform(0.0, np.log(cond), num_clusters))
    vals[0], vals[-1] = 1.0, cond
    lam = rng.choice(vals, size=n)
    lam[:num_clusters] = vals
    q = haar_orthogonal(n, rng)
    return q @ np.diag(lam) @ q.T


def fd_divergence(apply_fn, u, h=1e-6):
    """Central-difference normalized divergence over all real coordinates
    present (real and imaginary parts for complex input)."""
    u = np.asarray(u)
    flat = u.ravel()
    total = 0.0
    count = 0
    directions = [1.0, 1j] if np.iscomplexobj(u) else [1.0]
    for i in range(flat.size):
        for d in directions:
            up = flat.copy()
            um = flat.copy()
            up[i] += h * d
            um[i] -= h * d
            fp = np.asarray(apply_fn(up.reshape(u.shape))).ravel()[i]
            fm = np.asarray(apply_fn(um.reshape(u.shape))).ravel()[i]
            deriv = (fp - fm) / (2 * h)
            total += (deriv / d).real if d == 1j else deriv.real
            count += 1
    return total / count


def fista_lasso(A, y, lam, iters=10_000):
    """Plain FISTA on 0.5||y - Ax||^2 + lam ||x||_1 with a fixed 1/L step."""
    L = np.linalg.norm(A, 2) ** 2
    n = A.shape[1]
    x = np.zeros(n)
    v = x.copy()
    t = 1.0
    for _ in range(iters):
        grad = A.T @ (A @ v - y)
        w = v - grad / L
        x_new = np.sign(w) * np.maximum(np.abs(w) - lam / L, 0.0)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        v = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
    return x


def ssim_reference(ref, test, k1=0.01, k2=0.03, size=11, sigma=1.5, data_range=None):
    """Straightforward double-loop windowed SSIM."""
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if data_range is None:
        data_range = ref.max() - ref.min()
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords**2) / (2 * sigma**2))
    w = np.outer(g, g)
    w /= w.sum()
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    h, wd = ref.shape
    vals = []
    for i in range(h - size + 1):
        for j in range(wd - size + 1):
            a = ref[i : i + size, j : j + size]
            b = test[i : i + size, j : j + size]
            mu_a = (w * a).sum()
            mu_b = (w * b).sum()
            va = (w * a * a).sum() - mu_a**2
            vb = (w * b * b).sum() - mu_b**2
            cov = (w * a * b).sum() - mu_a * mu_b
            vals.append(
                ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2))
            )
    return float(np.mean(vals))


def group_norm_reference(x, groups, eps=1e-5):
    """Loop-based GroupNorm for checking the vectorized implementation."""
    x = np.asarray(x, dtype=np.float64)
    c = x.shape[0]
    per = c // groups
    out = np.empty_like(x)
    for g in range(groups):
        chunk = x[g * per : (g + 1) * per]
        m = chunk.mean()
        v = ((chunk - m) ** 2).mean()
        out[g * per : (g + 1) * per] = (chunk - m) / np.sqrt(v + eps)
    return out


def conv2d_reference(x, w, b, g):
    """Zero-padded stride-1 2-D convolution by direct loops over output
    pixels and taps, plus its VJPs for cotangent ``g``.

    x: (C_in, H, W), w: (C_out, C_in, k, k), b: (C_out,), g: (C_out, H, W).
    Returns (out, grad_x, grad_w, grad_b).
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    cout, cin, k, _ = w.shape
    _, h, wd = x.shape
    pad = (k - 1) // 2
    out = np.zeros((cout, h, wd))
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for i in range(h):
        for j in range(wd):
            out[:, i, j] = b
            for di in range(k):
                for dj in range(k):
                    p, q = i + di - pad, j + dj - pad
                    if not (0 <= p < h and 0 <= q < wd):
                        continue
                    out[:, i, j] += w[:, :, di, dj] @ x[:, p, q]
                    gx[:, p, q] += w[:, :, di, dj].T @ g[:, i, j]
                    gw[:, :, di, dj] += np.outer(g[:, i, j], x[:, p, q])
    return out, gx, gw, g.sum(axis=(1, 2))


def cg_tape_reference(apply_A, b, iters):
    """The taped fixed-budget CG composed from elementwise and reduction
    primitives only (no fused ``dot``/``axpy`` nodes)."""
    guard = 1e-30
    x = Tensor(np.zeros_like(b.data))
    r = b
    p = r
    rs = en.sum_all(en.mul(r, r))
    for _ in range(iters):
        Ap = apply_A(p)
        alpha = en.div(rs, en.add(en.sum_all(en.mul(p, Ap)), Tensor(guard)))
        x = en.add(x, en.mul(alpha, p))
        r = en.sub(r, en.mul(alpha, Ap))
        rs_new = en.sum_all(en.mul(r, r))
        beta = en.div(rs_new, en.add(rs, Tensor(guard)))
        p = en.add(r, en.mul(beta, p))
        rs = rs_new
    return x


def cg_out_of_place_reference(apply_A, b, iters):
    """Conjugate gradients from a zero start with a fresh array for every
    update and no stopping test; the in-place ``linops.cg_solve`` must
    reproduce its bits while it runs the same iterations."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = np.vdot(r, r).real
    for _ in range(iters):
        Ap = apply_A(p)
        alpha = rs / np.vdot(p, Ap).real
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = np.vdot(r, r).real
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x
