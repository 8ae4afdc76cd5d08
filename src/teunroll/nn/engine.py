"""Reverse-mode autodiff over double-precision numpy arrays.

Every op has the same shape: it computes its output ``data`` from its
inputs' arrays and defines one closure, ``backward(g)``, that turns the
output's gradient ``g`` into contributions to its inputs' gradients; then
it returns ``_make(data, targets, backward)``.  Inside a ``Tape`` context
``_make`` records the output when some input is a trainable leaf or an
already recorded output.  Recording follows creation order, which is a
topological order, so ``Tape.backward`` sweeps the list once in reverse.
Outside a tape the same ops run eagerly and record nothing.

The tape keeps no op output.  A recorded output gets a ``Node`` that
holds only its ``grad`` and its ``backward_rule``, and ``Tape.nodes``
lists these.  A closure may hold three kinds of thing: its inputs'
gradient targets (a trainable leaf Tensor or an input's ``Node``; None
for a constant), the arrays its rule reads (``mul``'s operands,
``conv2d``'s padded input, ``relu``'s mask, ...) and shapes.  It holds no
Tensor that an op made, and ``mul`` keeps no operand that only a
constant's gradient would read.  So an intermediate output whose array
no rule reads is freed as soon as the forward drops its last reference
to it, and the tape holds what the backward needs, not every value the
forward made.

The op set is deliberately small: arithmetic with broadcasting, matmul,
3x3/1x1 convolution, ReLU/SiLU, GroupNorm, the mean, concat, 2x pooling
and nearest-neighbor upsampling, plus a hook for self-adjoint linear
operators (used to push encoding-operator physics through the tape).
Two fused nodes serve the taped CG solve: ``dot`` (``sum(a * b)``) and
``axpy`` (``alpha * x + y`` for a scalar ``alpha``).

``conv2d`` keeps no im2col matrix.  Its forward runs one GEMM per tap
(k*k of them) on a contiguous slice of a zero-padded, flattened copy of
the input, the only array the closure holds.  The input gradient
scatter-adds each tap's transposed product with the output gradient into
a padded buffer.  The kernel size (1 or 3) is the weight's.

Only leaves keep gradients: ``Tape.backward`` sets a node's ``grad`` to
None once its closure has passed it on, so a finished sweep holds no
intermediate gradient.  Gradients are never written in place: every
backward closure and every caller rebinds ``.grad`` to a new array.  A
gradient may therefore alias another node's gradient (the first one a
target receives is stored without a copy), and code that needs to modify
one must copy it first.
"""

from __future__ import annotations

import numpy as np

_ACTIVE_TAPE = None


class Tensor:
    """An array with, for a trainable leaf, its gradient; ``node`` is the
    tape's record when a taped op made it, else None."""

    __slots__ = ("data", "grad", "requires_grad", "node")
    # mixed ndarray/Tensor arithmetic raises instead of building object arrays
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.node = None

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


class Node:
    """The tape's record of one op output: the gradient flowing into it and
    the rule that passes that gradient on to the op's inputs."""

    __slots__ = ("grad", "backward_rule")

    def __init__(self, backward_rule):
        self.grad = None
        self.backward_rule = backward_rule


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

        The sweep runs each recorded ``Node``'s rule in reverse order.  A
        rule reads only the arrays and targets its closure holds, never an
        output Tensor, so the forward's intermediate values need not be
        alive.  Only leaves keep a gradient: a node's ``grad`` is set to
        None as soon as its rule has passed it on, so at most the
        gradients of the nodes still waiting for their rule are alive.
        """
        if loss.data.size != 1:
            raise ValueError("loss must be a scalar")
        start = _target(loss)
        if start is None:
            raise ValueError("loss is not connected to this tape")
        for node in self.nodes:
            node.grad = None
        start.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            if node.grad is not None:
                node.backward_rule(node.grad)
                node.grad = None


def _as_tensor(v):
    return v if isinstance(v, Tensor) else Tensor(v)


def _target(t: Tensor):
    """Where gradients for ``t`` go: its ``Node`` if a taped op made it,
    ``t`` itself if it is a trainable leaf, None for a constant."""
    if t.node is not None:
        return t.node
    return t if t.requires_grad else None


def _make(data, targets, backward):
    out = Tensor(data)
    if _ACTIVE_TAPE is not None and any(t is not None for t in targets):
        out.node = Node(backward)
        _ACTIVE_TAPE.nodes.append(out.node)
    return out


def _accumulate(target, g):
    # no copy: gradients are never written in place (see the module docstring)
    if target is None:
        return
    if target.grad is None:
        target.grad = g
    else:
        target.grad = target.grad + g


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
    ta, tb, sa, sb = _target(a), _target(b), a.shape, b.shape

    def backward(g):
        _accumulate(ta, _unbroadcast(g, sa))
        _accumulate(tb, _unbroadcast(g, sb))

    return _make(a.data + b.data, (ta, tb), backward)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    ta, tb, sa, sb = _target(a), _target(b), a.shape, b.shape

    def backward(g):
        _accumulate(ta, _unbroadcast(g, sa))
        _accumulate(tb, _unbroadcast(-g, sb))

    return _make(a.data - b.data, (ta, tb), backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    ta, tb, ad, bd = _target(a), _target(b), a.data, b.data
    # each operand is read only for the other's gradient, so a feature map
    # scaled by a constant is not kept
    ka = ad if tb is not None else None
    kb = bd if ta is not None else None
    sa, sb = ad.shape, bd.shape

    def backward(g):
        if ta is not None:
            _accumulate(ta, _unbroadcast(g * kb, sa))
        if tb is not None:
            _accumulate(tb, _unbroadcast(g * ka, sb))

    return _make(ad * bd, (ta, tb), backward)


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    ta, tb, ad, bd = _target(a), _target(b), a.data, b.data

    def backward(g):
        _accumulate(ta, _unbroadcast(g / bd, ad.shape))
        _accumulate(tb, _unbroadcast(-g * ad / (bd * bd), bd.shape))

    return _make(ad / bd, (ta, tb), backward)


def dot(a, b):
    """``sum(a * b)`` over two tensors of one shape, as a single node."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"dot needs equal shapes, got {a.shape} and {b.shape}")
    ta, tb, ad, bd = _target(a), _target(b), a.data, b.data

    def backward(g):
        _accumulate(ta, g * bd)
        _accumulate(tb, g * ad)

    return _make((ad * bd).sum(), (ta, tb), backward)


def axpy(alpha, x, y):
    """``alpha * x + y`` for a scalar ``alpha`` and equal-shaped ``x`` and
    ``y``, as a single node."""
    alpha, x, y = _as_tensor(alpha), _as_tensor(x), _as_tensor(y)
    if alpha.data.ndim != 0:
        raise ValueError("axpy needs a scalar alpha")
    if x.shape != y.shape:
        raise ValueError(f"axpy needs equal shapes, got {x.shape} and {y.shape}")
    targets = ta, tx, ty = _target(alpha), _target(x), _target(y)
    ad, xd = alpha.data, x.data

    def backward(g):
        _accumulate(ta, (g * xd).sum())
        _accumulate(tx, ad * g)
        _accumulate(ty, g)

    return _make(ad * xd + y.data, targets, backward)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    ta, tb, ad, bd = _target(a), _target(b), a.data, b.data
    if ad.ndim != 2 or bd.ndim not in (1, 2):
        raise ValueError("matmul supports (m,n)@(n,) and (m,n)@(n,k)")

    def backward(g):
        if bd.ndim == 1:
            _accumulate(ta, np.outer(g, bd))
            _accumulate(tb, ad.T @ g)
        else:
            _accumulate(ta, g @ bd.T)
            _accumulate(tb, ad.T @ g)

    return _make(ad @ bd, (ta, tb), backward)


def relu(a):
    a = _as_tensor(a)
    ta = _target(a)
    mask = a.data > 0

    def backward(g):
        _accumulate(ta, g * mask)

    return _make(a.data * mask, (ta,), backward)


def silu(a):
    a = _as_tensor(a)
    ta, ad = _target(a), a.data
    s = 1.0 / (1.0 + np.exp(-ad))

    def backward(g):
        _accumulate(ta, g * (s * (1.0 + ad * (1.0 - s))))

    return _make(ad * s, (ta,), backward)


def mean(a):
    a = _as_tensor(a)
    ta, shape, n = _target(a), a.shape, a.size

    def backward(g):
        _accumulate(ta, np.full(shape, float(g) / n))

    return _make(a.data.mean(), (ta,), backward)


def mse(a, b):
    """Mean squared error, composed from primitives."""
    d = sub(a, b)
    return mean(mul(d, d))


def reshape(a, shape):
    a = _as_tensor(a)
    ta, old = _target(a), a.shape

    def backward(g):
        _accumulate(ta, g.reshape(old))

    return _make(a.data.reshape(shape), (ta,), backward)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    targets = [_target(t) for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward(g):
        for t, lo, hi in zip(targets, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), targets, backward)


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


def conv2d(x, w, b=None):
    """2-D convolution, stride 1, zero padding to keep the spatial shape.

    x: (C_in, H, W), w: (C_out, C_in, k, k) with k 1 or 3, read from ``w``;
    optional b: (C_out,).  The forward sums one GEMM per tap over a
    padded copy of ``x``, the only array kept for the backward; its output
    rows come out W+k-1 wide, and their k-1 junk columns are dropped.  The
    input gradient scatter-adds ``w_tap.T @ g`` into a flat buffer in the
    padded layout, tap by tap.  (A gather of the transposed taps at
    mirrored offsets of a padded ``g`` takes the same sums, but not the
    same bits: with one input channel each product is a GEMV, whose
    rounding of an entry depends on its position in the row.)  The weight
    gradient sums ``g @ slice.T`` per tap, with ``g`` read from its padded
    copy in the forward's wide-row layout (the junk columns read padding
    zeros).
    """
    x = _as_tensor(x)
    w = _as_tensor(w)
    if len(w.shape) != 4 or w.shape[2] != w.shape[3] or w.shape[2] not in (1, 3):
        raise ValueError(f"conv2d needs a square 1x1 or 3x3 kernel, got weight shape {w.shape}")
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"weight takes {w.shape[1]} input channels, input has {x.shape[0]}")
    cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    pad = (k - 1) // 2
    wp = wd + 2 * pad
    n = h * wp
    offsets = [di * wp + dj for di in range(k) for dj in range(k)]
    xf = _pad_flat(x.data, pad)
    w_taps = w.data.transpose(2, 3, 0, 1).reshape(-1, cout, cin)
    wide = w_taps[0] @ xf[:, :n]
    for wk, off in zip(w_taps[1:], offsets[1:]):
        wide += wk @ xf[:, off:off + n]
    val = wide.reshape(cout, h, wp)[:, :, :wd].copy()
    tb = None
    if b is not None:
        b = _as_tensor(b)
        val += b.data[:, None, None]
        tb = _target(b)
    tx, tw = _target(x), _target(w)

    def backward(g):
        _accumulate(tb, g.sum(axis=(1, 2)))
        start = pad * wp + pad
        g_wide = _pad_flat(g, pad)[:, start:start + n]
        gw = np.stack([g_wide @ xf[:, off:off + n].T for off in offsets])
        _accumulate(tw, gw.reshape(k, k, cout, cin).transpose(2, 3, 0, 1))
        # each product fills the first n columns of rows as wide as xf's, so
        # one flat add per tap scatters it; the zero tail adds nothing
        cols = xf.shape[1]
        prod = np.zeros((cin, cols))
        gxf = np.zeros(cin * cols + offsets[-1])
        for wk, off in zip(w_taps, offsets):
            np.matmul(wk.T, g_wide, out=prod[:, :n])
            gxf[off:off + cin * cols] += prod.ravel()
        gx = gxf[:cin * cols].reshape(cin, cols)[:, start:start + n]
        _accumulate(tx, gx.reshape(cin, h, wp)[:, :, :wd].copy())

    return _make(val, (tx, tw, tb), backward)


def group_norm(x, groups, eps=1e-5):
    """Normalize to zero mean / unit variance within channel groups of a
    (C, H, W) tensor.  No learned affine; FiLM supplies scale and shift."""
    x = _as_tensor(x)
    tx, shape = _target(x), x.shape
    c = shape[0]
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
        _accumulate(tx, gx.reshape(shape))

    return _make(yg.reshape(shape), (tx,), backward)


def avg_pool2(x):
    """2x2 average pooling of a (C, H, W) tensor; H and W must be even."""
    x = _as_tensor(x)
    tx = _target(x)
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError("avg_pool2 needs even spatial dims")
    val = x.data.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))

    def backward(g):
        up = np.repeat(np.repeat(g, 2, axis=1), 2, axis=2) * 0.25
        _accumulate(tx, up)

    return _make(val, (tx,), backward)


def upsample_nearest2(x):
    """Nearest-neighbor 2x upsampling of a (C, H, W) tensor."""
    x = _as_tensor(x)
    tx = _target(x)
    val = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)

    def backward(g):
        c, h2, w2 = g.shape
        _accumulate(tx, g.reshape(c, h2 // 2, 2, w2 // 2, 2).sum(axis=(2, 4)))

    return _make(val, (tx,), backward)


def linear_selfadjoint(x, fn):
    """Apply a fixed self-adjoint linear operator given as a plain
    ndarray -> ndarray function; its VJP is the operator itself.  Used to
    route measurement-operator physics (e.g. E^H E) through the tape."""
    x = _as_tensor(x)
    tx = _target(x)

    def backward(g):
        _accumulate(tx, fn(g))

    return _make(fn(x.data), (tx,), backward)
