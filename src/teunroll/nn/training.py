"""End-to-end training of unrolled reconstruction networks.

The unrolled forward pass runs the inference recursion (``unroll_steps``)
on tape tensors: complex images travel as (2, H, W) real tensors, the
encoding physics enters through a self-adjoint linear-op hook, and the CG
data-fidelity solve is unrolled onto the tape for its fixed iteration
budget so gradients reach both the proximal networks and the per-unroll
scalars.
"""

from __future__ import annotations

import numpy as np

from ..signal_model import EncodingOperator, KSpaceData
from ..unroll import check_unrolls, run_unrolled, unroll_steps
from . import engine as en
from .engine import Tape, Tensor
from .networks import build_network, complex_to_channels, channels_to_complex

MU_FLOOR = 1e-6
SHARING_MODES = ("shared", "unshared", "time_embedded")
_DENOM_GUARD = 1e-30


class TrainingError(RuntimeError):
    pass


def normal_fn(E: EncodingOperator):
    """E^H E as a function on 2-channel real arrays."""

    def fn(arr):
        return complex_to_channels(E.normal_array(channels_to_complex(arr)))

    return fn


def cg_tape(gram, b, mu, iters):
    """Differentiable CG on (gram + mu I) x = b, fixed budget, zero start.

    gram is a self-adjoint PSD ndarray -> ndarray function and mu a scalar
    (a Tensor to train it).  (gram + mu I) p is a ``linear_selfadjoint`` and
    an ``axpy`` node; the inner products and x and p updates are single
    ``dot``/``axpy`` nodes.  The tiny denominator guard only matters once
    the residual is at round-off.
    """
    x = Tensor(np.zeros_like(b.data))
    r = b
    p = r
    rs = en.dot(r, r)
    for _ in range(iters):
        Ap = en.axpy(mu, p, en.linear_selfadjoint(p, gram))
        alpha = en.div(rs, en.add(en.dot(p, Ap), Tensor(_DENOM_GUARD)))
        x = en.axpy(alpha, p, x)
        r = en.sub(r, en.mul(alpha, Ap))
        rs_new = en.dot(r, r)
        beta = en.div(rs_new, en.add(rs, Tensor(_DENOM_GUARD)))
        p = en.axpy(beta, p, r)
        rs = rs_new
    return x


def default_mu(algorithm):
    return 5e-2 if algorithm == "vsqp" else 1.5e-2


def _name_list(names):
    """The first four names, plainly, with "..." only when more were cut."""
    return ", ".join(names[:4]) + (", ..." if len(names) > 4 else "")


def _scalar(value, trainable=True):
    return Tensor(np.float64(value), requires_grad=trainable)


def _distinct(items):
    """Each object of ``items`` once, in order of first appearance."""
    return list({id(item): item for item in items}.values())


class TrainableEngine:
    """An unrolled reconstruction network, held as its per-unroll schedule.

    algorithm in {vsqp, admm, alg1, vsqp_te, admm_te}.  ``net_t`` holds the
    network of each of the T-1 network calls (the last unroll makes none,
    see ``_prox``); ``mu_t``, ``rho_t`` (alg1 only, else empty) and
    ``lam_t`` (ADMM family only, else empty) hold one scalar tensor per
    unroll.  A shared value is the same object at every index: one static
    network (shared), one per call (unshared) or one time-embedded network
    (time_embedded); static algorithms share one mu and the ADMM family one
    dual step.  A value that reaches no output is a constant: alg1's last
    Onsager weight feeds only a diagnostic, and at T=1 the dual step.
    """

    def __init__(self, algorithm, T, cg_iters=15, sharing="shared", arch="resnet",
                 seed=0, mu_init=None, rho_init=0.1, lam_init=0.1, **arch_kwargs):
        self.family = check_unrolls(algorithm, T, cg_iters)
        if sharing not in SHARING_MODES:
            raise ValueError(f"unknown sharing mode {sharing!r}")
        self.algorithm = algorithm
        self.T = T
        self.cg_iters = cg_iters
        time_embedded = sharing == "time_embedded"
        n_nets = T - 1 if sharing == "unshared" else min(T - 1, 1)
        nets = [build_network(arch, time_embedded=time_embedded, seed=seed + i, **arch_kwargs)
                for i in range(n_nets)]
        self.net_t = [nets[min(t, n_nets - 1)] for t in range(T - 1)]
        if mu_init is None:
            mu_init = default_mu(algorithm)
        n_mu = T if algorithm in ("alg1", "vsqp_te", "admm_te") else 1
        self.mu_t = [_scalar(mu_init) for _ in range(n_mu)] * (T // n_mu)
        self.rho_t = ([_scalar(rho_init) for _ in range(T - 1)] + [_scalar(rho_init, False)]
                      if self.family == "alg1" else [])
        # the ADMM family's one dual step reaches x only through a later unroll
        self.lam_t = [_scalar(lam_init, T > 1)] * T if self.family == "admm" else []

    # -- parameter plumbing --------------------------------------------------
    def parameters(self):
        """Each distinct trainable object once: networks, mu, rho, then lam."""
        params = {}
        nets = _distinct(self.net_t)
        for i, net in enumerate(nets):
            prefix = f"net{i}" if len(nets) > 1 else "net"
            for name, t in net.parameters().items():
                params[f"{prefix}.{name}"] = t
        for kind, values in (("mu", self.mu_t), ("rho", self.rho_t), ("lam", self.lam_t)):
            for i, t in enumerate(v for v in _distinct(values) if v.requires_grad):
                params[f"{kind}.{i:04d}"] = t
        return params

    def load_state(self, state):
        """Install a checkpoint's arrays.  Its parameter names must be
        exactly the engine's and each shape must match."""
        params = self.parameters()
        missing = sorted(set(params) - set(state))
        if missing:
            raise ValueError(f"checkpoint is missing parameters: {_name_list(missing)}")
        unknown = sorted(set(state) - set(params))
        if unknown:
            raise ValueError(
                f"checkpoint has parameters this engine lacks: {_name_list(unknown)}")
        for name, t in params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"parameter {name!r} shape {arr.shape} != expected {t.data.shape}"
                )
            t.data = arr.copy()

    def project(self):
        for t in self.mu_t:
            if t.data < MU_FLOOR:
                t.data = np.float64(MU_FLOOR)

    def _prox(self, call):
        """The per-unroll prox(v, t) of either backend: call(network, v, t)
        for t < T-1, and v itself at the last unroll.  The returned estimate
        is the final CG output and no diagnostic reads the last prox's
        output, so that network call would be dead and is skipped."""

        def prox(v, t):
            return v if t == self.T - 1 else call(self.net_t[t], v, t)

        return prox

    # -- forward -------------------------------------------------------------
    def forward(self, E: EncodingOperator, y: KSpaceData):
        """Unrolled reconstruction as a (2, H, W) tape tensor.

        Runs ``unroll_steps`` with a taped CG solve.  The last unroll's
        network call is skipped (see ``_prox``), not taped.
        """
        fn = normal_fn(E)
        rhs0 = Tensor(complex_to_channels(E.adjoint(y).data))

        def solve(t, b):
            return cg_tape(fn, b, self.mu_t[t], self.cg_iters), None

        prox = self._prox(lambda net, v, t: net.forward(v, t))
        for _, x, _, _ in unroll_steps(self.family, self.T, rhs0,
                                       Tensor(np.zeros_like(rhs0.data)), solve, prox,
                                       self.mu_t, self.rho_t, self.lam_t):
            pass
        return x

    def run(self, E, y, reference=None):
        """Inference (no tape): ``run_unrolled`` with the engine's scalars and
        networks.  Returns (ComplexImage, Diagnostics).

        Like ``forward``, it calls the networks at unrolls 0..T-2 only (see
        ``_prox``); the image and every diagnostic equal those of a run
        that also makes the last, dead network call."""
        mu, rho, lam = ([float(v.data) for v in vals]
                        for vals in (self.mu_t, self.rho_t, self.lam_t))
        prox = self._prox(lambda net, img, t: net.apply_complex(img, t))
        return run_unrolled(self.algorithm, E, y, mu, prox, rho=rho, lam=lam,
                            cg_iters=self.cg_iters, reference=reference)

    def reconstruct(self, E, y):
        """Inference pass returning a ComplexImage."""
        return self.run(E, y)[0]


class Adam:
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr):
        self.params = dict(params)
        self.lr = lr
        self.m = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.t = 0

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def step(self):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        b1c = 1.0 - b1**self.t
        b2c = 1.0 - b2**self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * g * g
            mhat = self.m[k] / b1c
            vhat = self.v[k] / b2c
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.EPS)


def _train_step(engine, optimizer, E, y, reference):
    """One optimizer step on one sample; returns the sample's loss.  A
    non-finite loss is returned without a step.  The sample's graph is
    local to this call, so it is freed before the next forward runs."""
    target = Tensor(complex_to_channels(reference.data))
    optimizer.zero_grad()
    with Tape() as tape:
        loss = en.mse(engine.forward(E, y), target)
    value = float(loss.data)
    if np.isfinite(value):
        tape.backward(loss)
        optimizer.step()
        engine.project()
    return value


def train(engine: TrainableEngine, dataset, epochs, lr, seed=0):
    """Minimize the MSE between reconstructions and references.

    dataset: sequence of (EncodingOperator, KSpaceData, ComplexImage).
    Each epoch visits the samples in a seeded random order.  Returns the
    per-epoch mean training loss; epochs=0 leaves the engine untouched.
    Aborts with the offending sample index if a loss goes non-finite.
    """
    optimizer = Adam(engine.parameters(), lr)
    rng = np.random.default_rng(seed)
    curve = []
    for epoch in range(epochs):
        total = 0.0
        for idx in rng.permutation(len(dataset)):
            value = _train_step(engine, optimizer, *dataset[idx])
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss at sample {int(idx)} (epoch {epoch})")
            total += value
        curve.append(total / len(dataset))
    return curve
