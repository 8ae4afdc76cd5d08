"""Independent oracles used by the test suite.

Everything here is deliberately naive (dense probes, double loops, long
first-order methods) and never calls the code paths it is used to check.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from teunroll import signal_model as sm
from teunroll import vamp
from teunroll.nn import engine as en
from teunroll.nn.engine import Tensor
from teunroll.nn.networks import ResNetProx, UNetProx
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


def dense_row_blocks(E):
    """The H diagonal W x W blocks of an EncodingOperator's Gram, cut out
    of the dense (HW) x (HW) matrix probed through the checked
    ``E.normal`` one flat unit image at a time."""
    h, w = E.shape
    dense = dense_from_probes(lambda v: E.normal(sm.ComplexImage(v.reshape(h, w))).data.ravel(),
                              h * w)
    rows = np.arange(h)
    return dense.reshape(h, w, h, w)[rows, :, rows, :]


def exact_shifted_solve(E, b, mu):
    """(E^H E + mu I)^{-1} b for an H x W image b: one dense
    ``np.linalg.solve`` of (A_h + mu I) x_h = b_h per row block A_h of
    ``dense_row_blocks(E)``."""
    eye = np.eye(E.shape[1])
    return np.stack([np.linalg.solve(a + mu * eye, row)
                     for a, row in zip(dense_row_blocks(E), b)])


def stacked_forward(E, x):
    """E x with every coil image in one (C, H, W) stack and one 2-D FFT
    over it."""
    coil_imgs = E.sens.maps * x.data[None, :, :]
    k = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(coil_imgs), norm="ortho"))
    k[:, ~E.mask.pattern] = 0.0
    return k


def stacked_adjoint(E, y):
    """E^H y as a sum over the coil axis of a (C, H, W) stack."""
    masked = np.where(E.mask.pattern[None, :, :], y.data, 0.0)
    imgs = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(masked), norm="ortho"))
    return np.sum(np.conj(E.sens.maps) * imgs, axis=0)


def stacked_gram(E, img):
    """The 1-D FFT form of E^H E (see ``EncodingOperator.normal_array``) on
    one (C, H, W) stack, summed over the coil axis."""
    maps = E.sens.maps
    z = np.multiply(maps, img)
    np.fft.fft(z, axis=-1, out=z)
    z *= np.fft.ifftshift(E.mask.pattern[0])
    np.fft.ifft(z, axis=-1, out=z)
    np.conj(z, out=z)
    z *= maps
    out = z.sum(axis=0)
    return np.conj(out, out=out)


def stacked_add_noise(y, sigma, seed, mask):
    """``add_noise`` drawing one (C, H, W) real and one imaginary array."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=y.data.shape) + 1j * rng.normal(
        0.0, sigma, size=y.data.shape)
    return y.data + np.where(mask.pattern[None, :, :], noise, 0.0)


def identity_map():
    return lambda v: v.copy()


def from_dense(matrix):
    """A square matrix as a map on vectors."""
    m = np.asarray(matrix)
    if m.shape[0] != m.shape[1]:
        raise ValueError("from_dense needs a square matrix")
    return lambda v: m @ v


def flat_gram(E):
    """E^H E of an EncodingOperator on flat image vectors, for dense
    probing: ``dense_from_probes(flat_gram(E), H * W)`` is its matrix."""
    return lambda v: E.normal_array(v.reshape(E.shape)).ravel()


def ridge_by_rows(E, b, lam):
    """(E^H E + lam I)^{-1} b for an H x W image b, as H solves of size
    W x W.  Whole columns are sampled, so the 2-D FFT's row transform
    cancels and image row h meets only its own block
    sum_c diag(conj(s_ch)) P diag(s_ch), with P = Fᴴ diag(m) F for the
    centred, orthonormal 1-D DFT matrix F along a row and the column mask m.
    """
    h, w = E.shape
    eye = np.eye(w)
    F = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(eye, axes=0), axis=0, norm="ortho"),
                        axes=0)
    P = F.conj().T @ (E.mask.pattern[0][:, None] * F)
    x = np.empty((h, w), dtype=np.complex128)
    for row in range(h):
        s = E.sens.maps[:, row, :]
        block = sum(np.conj(s_c)[:, None] * P * s_c[None, :] for s_c in s)
        x[row] = np.linalg.solve(block + lam * eye, b[row])
    return x


def dense_vamp_operator(A):
    """The VampOperator of a dense measurement matrix A: the Gram A^H A as
    a matrix product on vectors and its exact eigenvalues.  The data term
    A^H y goes to ``lmmse_step`` and ``run_vamp`` beside it."""
    A = np.asarray(A)
    g = A.conj().T @ A
    return vamp.VampOperator(from_dense(g), (A.shape[1],), np.linalg.eigvalsh(g))


@st.composite
def encodings(draw, max_side=33, max_coils=5, step=1):
    """Odd, even and non-square shapes from 8 to max_side (multiples of
    ``step``), 1 to max_coils coils, equispaced or random masks at
    R = 1..4."""
    h, w = (step * draw(st.integers(-(-8 // step), max_side // step)) for _ in range(2))
    coils = draw(st.integers(1, max_coils))
    R = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        mask = sm.make_equispaced_mask(h, w, R, draw(st.integers(0, w)))
    else:
        mask = sm.make_random_mask(h, w, R, draw(st.integers(0, int(round(w / R)))), seed)
    sens = sm.make_smooth_sensitivities(h, w, coils, seed=seed + 1)
    return sm.EncodingOperator(mask, sens)


@st.composite
def problems(draw, max_side=20, max_coils=4, step=1):
    """An encoding operator drawn by ``encodings`` with noisy k-space data
    of a random phantom."""
    E = draw(encodings(max_side, max_coils, step))
    seed = draw(st.integers(0, 10_000))
    truth = sm.make_phantom(*E.shape, 5, seed=seed)
    return E, sm.add_noise(E.forward(truth), 0.01, seed=seed + 1, mask=E.mask)


@dataclass(frozen=True)
class ScaledSoftThreshold:
    """Soft threshold at c * sqrt(1/mu), i.e. proportional to the current
    effective noise level, the classic message-passing schedule."""

    c: float

    def apply(self, u, noise_precision):
        return soft_threshold(np.asarray(u), self.c / np.sqrt(noise_precision))

    def divergence(self, u, noise_precision):
        return soft_threshold_divergence(u, self.c / np.sqrt(noise_precision))


def power_iteration_norm(A, dim, iters, seed):
    """Rayleigh-quotient estimate of the largest eigenvalue of a self-adjoint
    map A on length-dim vectors."""
    if iters < 1:
        raise ValueError("need at least one iteration")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = A(v)
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


def conv2d_scatter_reference(x, w, b, g):
    """The engine's earlier conv2d, forward and VJPs for cotangent ``g``,
    on plain arrays.  The forward gathers one GEMM per tap over a
    zero-padded, flattened copy of ``x``; the input gradient scatter-adds
    ``w_tap.T @ g`` into a second padded buffer, tap by tap.  The engine
    computes the same sums in the same order, so it must match every bit.

    Returns (out, grad_x, grad_w, grad_b).
    """
    cout, cin, k, _ = w.shape
    _, h, wd = x.shape
    pad = (k - 1) // 2
    hp, wp = h + 2 * pad, wd + 2 * pad
    n = h * wp
    xf = np.zeros((cin, hp * wp + 2 * pad))
    xf[:, :hp * wp] = np.pad(x, ((0, 0), (pad, pad), (pad, pad))).reshape(cin, -1)
    offsets = [di * wp + dj for di in range(k) for dj in range(k)]
    w_taps = w.transpose(2, 3, 0, 1).reshape(-1, cout, cin)
    wide = w_taps[0] @ xf[:, :n]
    for wk, off in zip(w_taps[1:], offsets[1:]):
        wide += wk @ xf[:, off:off + n]
    out = wide.reshape(cout, h, wp)[:, :, :wd] + b[:, None, None]
    g_wide = np.zeros((cout, h, wp))
    g_wide[:, :, :wd] = g
    g_wide = g_wide.reshape(cout, n)
    gw = np.stack([g_wide @ xf[:, off:off + n].T for off in offsets])
    gxf = np.zeros_like(xf)
    for wk, off in zip(w_taps, offsets):
        gxf[:, off:off + n] += wk.T @ g_wide
    gx = gxf[:, :hp * wp].reshape(cin, hp, wp)[:, pad:pad + h, pad:pad + wd]
    return out, gx, gw.reshape(k, k, cout, cin).transpose(2, 3, 0, 1), g.sum(axis=(1, 2))


def sum_all(a):
    """``sum(a)`` as one tape node, built the way the engine builds its ops."""
    a = en._as_tensor(a)
    ta, shape = en._target(a), a.shape

    def backward(g):
        en._accumulate(ta, np.full(shape, float(g)))

    return en._make(a.data.sum(), (ta,), backward)


def count_parameters(params):
    """The number of scalars in a name -> Tensor map such as ``parameters()``."""
    return sum(int(t.data.size) for t in params.values())


def resnet_full(time_embedded=False, seed=0):
    """Full-size residual network (15 blocks x 64 channels)."""
    return ResNetProx(blocks=15, channels=64, time_embedded=time_embedded, seed=seed)


def unet_full(time_embedded=False, seed=0):
    """Full-size U-Net (base 32, two residual blocks per stage)."""
    return UNetProx(base_channels=32, res_blocks=2, time_embedded=time_embedded, seed=seed)


def cg_tape_reference(apply_A, b, iters):
    """The taped fixed-budget CG composed from elementwise and reduction
    primitives only (no fused ``dot``/``axpy`` nodes)."""
    guard = 1e-30
    x = Tensor(np.zeros_like(b.data))
    r = b
    p = r
    rs = sum_all(en.mul(r, r))
    for _ in range(iters):
        Ap = apply_A(p)
        alpha = en.div(rs, en.add(sum_all(en.mul(p, Ap)), Tensor(guard)))
        x = en.add(x, en.mul(alpha, p))
        r = en.sub(r, en.mul(alpha, Ap))
        rs_new = sum_all(en.mul(r, r))
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
