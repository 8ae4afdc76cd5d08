"""Reverse-mode autodiff over double-precision numpy arrays.

Every op has the same shape: it computes its output ``data`` from its
``inputs``' arrays and defines one closure, ``backward(g)``, that turns the
output's gradient ``g`` into contributions to each input's ``.grad``; then
it returns ``_make(data, inputs, backward)``.  Inside a ``Tape`` context
``_make`` records the output (with its closure as ``backward_rule``) when
some input is a trainable leaf or an already recorded node.  Recording
follows creation order, which is a topological order, so
``Tape.backward`` sweeps the list once in reverse.  Outside a tape the
same ops run eagerly and record nothing.

The op set is deliberately small: arithmetic with broadcasting, matmul,
3x3/1x1 convolution, ReLU/SiLU, GroupNorm, reductions, concat, 2x pooling
and nearest-neighbor upsampling, plus a hook for self-adjoint linear
operators (used to push encoding-operator physics through the tape).
Two fused nodes serve the taped CG solve: ``dot`` (``sum(a * b)``) and
``axpy`` (``alpha * x + y`` for a scalar ``alpha``).

``conv2d`` keeps no im2col matrix: its closure holds one zero-padded,
flattened copy of the input, and each of the k*k taps is a GEMM on a
contiguous slice of that copy.

Only leaves keep gradients: ``Tape.backward`` sets a recorded node's
``.grad`` to None once its closure has passed it on, so a finished sweep
holds no intermediate gradient.  Gradients are never written in place:
every backward closure and every caller rebinds ``.grad`` to a new
array.  A gradient may therefore alias another node's gradient (the first
one a tensor receives is stored without a copy), and code that needs to
modify one must copy it first.
"""

from __future__ import annotations

import numpy as np

_ACTIVE_TAPE = None


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "backward_rule")
    # mixed ndarray/Tensor arithmetic raises instead of building object arrays
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.backward_rule = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


class Tape:
    """Ordered op record; also a context manager enabling recording."""

    def __init__(self):
        self.nodes = []
        self._outer = None

    def __enter__(self):
        global _ACTIVE_TAPE
        self._outer = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._outer
        return False

    def backward(self, loss: Tensor):
        """Populate .grad for every leaf reachable from ``loss``.

        Only leaves keep a gradient: a recorded node's ``.grad`` is set to
        None as soon as its rule has passed it on, so at most the
        gradients of the nodes still waiting for their rule are alive.
        """
        if loss.data.size != 1:
            raise ValueError("loss must be a scalar")
        if loss.backward_rule is None and not loss.requires_grad:
            raise ValueError("loss is not connected to this tape")
        for node in self.nodes:
            node.grad = None
        loss.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            if node.grad is not None:
                node.backward_rule(node.grad)
                node.grad = None


def _as_tensor(v):
    return v if isinstance(v, Tensor) else Tensor(v)


def _make(data, inputs, backward):
    out = Tensor(data)
    if _ACTIVE_TAPE is not None and any(
            t.requires_grad or t.backward_rule is not None for t in inputs):
        out.backward_rule = backward
        _ACTIVE_TAPE.nodes.append(out)
    return out


def _accumulate(t: Tensor, g):
    # no copy: gradients are never written in place (see the module docstring)
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to ``shape``."""
    if grad.shape == shape:
        return grad
    if not shape:
        return grad.sum()
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * bd, a.shape))
        _accumulate(b, _unbroadcast(g * ad, b.shape))

    return _make(ad * bd, (a, b), backward)


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g / bd, a.shape))
        _accumulate(b, _unbroadcast(-g * ad / (bd * bd), b.shape))

    return _make(ad / bd, (a, b), backward)


def dot(a, b):
    """``sum(a * b)`` over two tensors of one shape, as a single node."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"dot needs equal shapes, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def backward(g):
        _accumulate(a, g * bd)
        _accumulate(b, g * ad)

    return _make((ad * bd).sum(), (a, b), backward)


def axpy(alpha, x, y):
    """``alpha * x + y`` for a scalar ``alpha`` and equal-shaped ``x`` and
    ``y``, as a single node."""
    alpha, x, y = _as_tensor(alpha), _as_tensor(x), _as_tensor(y)
    if alpha.data.ndim != 0:
        raise ValueError("axpy needs a scalar alpha")
    if x.shape != y.shape:
        raise ValueError(f"axpy needs equal shapes, got {x.shape} and {y.shape}")
    ad, xd = alpha.data, x.data

    def backward(g):
        _accumulate(alpha, (g * xd).sum())
        _accumulate(x, ad * g)
        _accumulate(y, g)

    return _make(ad * xd + y.data, (alpha, x, y), backward)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim not in (1, 2):
        raise ValueError("matmul supports (m,n)@(n,) and (m,n)@(n,k)")

    def backward(g):
        if bd.ndim == 1:
            _accumulate(a, np.outer(g, bd))
            _accumulate(b, ad.T @ g)
        else:
            _accumulate(a, g @ bd.T)
            _accumulate(b, ad.T @ g)

    return _make(ad @ bd, (a, b), backward)


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0

    def backward(g):
        _accumulate(a, g * mask)

    return _make(a.data * mask, (a,), backward)


def silu(a):
    a = _as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    val = a.data * s

    def backward(g):
        _accumulate(a, g * (s * (1.0 + a.data * (1.0 - s))))

    return _make(val, (a,), backward)


def mean(a):
    a = _as_tensor(a)
    n = a.data.size

    def backward(g):
        _accumulate(a, np.full(a.shape, float(g) / n))

    return _make(a.data.mean(), (a,), backward)


def sum_all(a):
    a = _as_tensor(a)

    def backward(g):
        _accumulate(a, np.full(a.shape, float(g)))

    return _make(a.data.sum(), (a,), backward)


def mse(a, b):
    """Mean squared error, composed from primitives."""
    d = sub(a, b)
    return mean(mul(d, d))


def reshape(a, shape):
    a = _as_tensor(a)
    old = a.shape

    def backward(g):
        _accumulate(a, g.reshape(old))

    return _make(a.data.reshape(shape), (a,), backward)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def _pad_flat(data, pad):
    """A (C, H, W) array zero-padded by ``pad`` on each side and flattened
    to (C, (H+2*pad)*(W+2*pad) + 2*pad).  The tail keeps the last tap's
    slice in bounds.  Tap (di, dj) of a stride-1 stencil is then the
    contiguous slice starting at ``di*(W+2*pad) + dj``."""
    c, h, w = data.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    flat = np.zeros((c, hp * wp + 2 * pad))
    flat[:, :hp * wp].reshape(c, hp, wp)[:, pad:pad + h, pad:pad + w] = data
    return flat


def conv2d(x, w, b=None, kernel=3):
    """2-D convolution, stride 1, zero padding to keep the spatial shape.

    x: (C_in, H, W), w: (C_out, C_in, k, k), optional b: (C_out,).
    Kernel sizes 1 and 3.  One zero-padded, flattened copy of ``x`` is the
    only array kept for the backward: each of the k*k taps is a GEMM of the
    tap's (C_out, C_in) weight against a contiguous slice of that copy.
    The output rows come out W+k-1 wide; their k-1 junk columns are
    dropped.  The backward sums ``g @ slice.T`` per tap for ``w`` and
    scatter-adds ``w_tap.T @ g`` into a padded buffer for ``x``.
    """
    x = _as_tensor(x)
    w = _as_tensor(w)
    if kernel not in (1, 3):
        raise ValueError("conv2d supports kernel sizes 1 and 3")
    if w.shape[2] != kernel or w.shape[3] != kernel:
        raise ValueError("weight shape disagrees with kernel size")
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"weight takes {w.shape[1]} input channels, input has {x.shape[0]}")
    cin, h, wd = x.shape
    cout = w.shape[0]
    pad = (kernel - 1) // 2
    wp = wd + 2 * pad
    n = h * wp
    offsets = [di * wp + dj for di in range(kernel) for dj in range(kernel)]
    xf = _pad_flat(x.data, pad)
    w_taps = w.data.transpose(2, 3, 0, 1).reshape(-1, cout, cin)
    wide = w_taps[0] @ xf[:, :n]
    for wk, off in zip(w_taps[1:], offsets[1:]):
        wide += wk @ xf[:, off:off + n]
    val = wide.reshape(cout, h, wp)[:, :, :wd].copy()
    inputs = [x, w]
    if b is not None:
        b = _as_tensor(b)
        val += b.data[:, None, None]
        inputs.append(b)

    def backward(g):
        if b is not None:
            _accumulate(b, g.sum(axis=(1, 2)))
        g_wide = np.zeros((cout, h, wp))
        g_wide[:, :, :wd] = g
        g_wide = g_wide.reshape(cout, n)
        gw = np.stack([g_wide @ xf[:, off:off + n].T for off in offsets])
        _accumulate(w, gw.reshape(kernel, kernel, cout, cin).transpose(2, 3, 0, 1))
        gxf = np.zeros_like(xf)
        for wk, off in zip(w_taps, offsets):
            gxf[:, off:off + n] += wk.T @ g_wide
        hp = h + 2 * pad
        _accumulate(x, gxf[:, :hp * wp].reshape(cin, hp, wp)[:, pad:pad + h, pad:pad + wd].copy())

    return _make(val, inputs, backward)


def group_norm(x, groups, eps=1e-5):
    """Normalize to zero mean / unit variance within channel groups of a
    (C, H, W) tensor.  No learned affine; FiLM supplies scale and shift."""
    x = _as_tensor(x)
    c = x.shape[0]
    if c % groups != 0:
        raise ValueError(f"{c} channels not divisible into {groups} groups")
    xg = x.data.reshape(groups, -1)
    m = xg.mean(axis=1, keepdims=True)
    centered = xg - m
    var = (centered**2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    yg = centered * inv

    def backward(g):
        gg = g.reshape(groups, -1)
        gy_mean = gg.mean(axis=1, keepdims=True)
        gyy_mean = (gg * yg).mean(axis=1, keepdims=True)
        gx = inv * (gg - gy_mean - yg * gyy_mean)
        _accumulate(x, gx.reshape(x.shape))

    return _make(yg.reshape(x.shape), (x,), backward)


def avg_pool2(x):
    """2x2 average pooling of a (C, H, W) tensor; H and W must be even."""
    x = _as_tensor(x)
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError("avg_pool2 needs even spatial dims")
    val = x.data.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))

    def backward(g):
        up = np.repeat(np.repeat(g, 2, axis=1), 2, axis=2) * 0.25
        _accumulate(x, up)

    return _make(val, (x,), backward)


def upsample_nearest2(x):
    """Nearest-neighbor 2x upsampling of a (C, H, W) tensor."""
    x = _as_tensor(x)
    val = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)

    def backward(g):
        c, h2, w2 = g.shape
        _accumulate(x, g.reshape(c, h2 // 2, 2, w2 // 2, 2).sum(axis=(2, 4)))

    return _make(val, (x,), backward)


def linear_selfadjoint(x, fn):
    """Apply a fixed self-adjoint linear operator given as a plain
    ndarray -> ndarray function; its VJP is the operator itself.  Used to
    route measurement-operator physics (e.g. E^H E) through the tape."""
    x = _as_tensor(x)

    def backward(g):
        _accumulate(x, fn(g))

    return _make(fn(x.data), (x,), backward)
