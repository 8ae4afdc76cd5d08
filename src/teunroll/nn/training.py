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


def cg_tape(apply_A, b, iters):
    """Differentiable CG with a fixed iteration budget and zero start.

    apply_A maps Tensor -> Tensor and must be self-adjoint PSD.  The inner
    products and the x and p updates are single ``dot``/``axpy`` nodes.
    The tiny denominator guard only matters once the residual is at
    round-off.
    """
    x = Tensor(np.zeros_like(b.data))
    r = b
    p = r
    rs = en.dot(r, r)
    for _ in range(iters):
        Ap = apply_A(p)
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


class TrainableEngine:
    """An unrolled reconstruction network with trainable proximal operators
    and scalar schedules.

    algorithm in {vsqp, admm, alg1, vsqp_te, admm_te}; sharing selects one
    static network (shared), T independent networks (unshared) or one
    time-embedded network (time_embedded).  Static algorithms train a
    single data-fidelity weight; the time-embedded ones train one per
    unroll, plus per-unroll Onsager weights for alg1 and a dual step size
    for the ADMM family.
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
        n_nets = T if sharing == "unshared" else 1
        self.networks = [
            build_network(arch, time_embedded=time_embedded, seed=seed + i, **arch_kwargs)
            for i in range(n_nets)
        ]
        if mu_init is None:
            mu_init = default_mu(algorithm)
        n_mu = T if algorithm in ("alg1", "vsqp_te", "admm_te") else 1
        self.mu = [Tensor(np.float64(mu_init), requires_grad=True) for _ in range(n_mu)]
        self.rho = []
        if self.family == "alg1":
            self.rho = [Tensor(np.float64(rho_init), requires_grad=True) for _ in range(T)]
        self.lam = []
        if self.family == "admm":
            self.lam = [Tensor(np.float64(lam_init), requires_grad=True)]

    # -- parameter plumbing --------------------------------------------------
    def parameters(self):
        params = {}
        for i, net in enumerate(self.networks):
            prefix = f"net{i}" if len(self.networks) > 1 else "net"
            for name, t in net.parameters().items():
                params[f"{prefix}.{name}"] = t
        for i, t in enumerate(self.mu):
            params[f"mu.{i:04d}"] = t
        for i, t in enumerate(self.rho):
            params[f"rho.{i:04d}"] = t
        for i, t in enumerate(self.lam):
            params[f"lam.{i:04d}"] = t
        return params

    def count_parameters(self):
        return sum(int(t.data.size) for t in self.parameters().values())

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
        for t in self.mu:
            if t.data < MU_FLOOR:
                t.data = np.float64(MU_FLOOR)

    def _per_unroll(self):
        """(mu, rho, lam) with one scalar tensor per unroll; rho is empty
        outside alg1 and lam outside the ADMM family.  Static algorithms
        repeat their one mu, and the ADMM family shares one dual step."""
        mu = self.mu if len(self.mu) > 1 else self.mu * self.T
        return mu, self.rho, self.lam * self.T

    def _net_at(self, t):
        return self.networks[t] if len(self.networks) > 1 else self.networks[0]

    def _prox(self, call):
        """The per-unroll prox(v, t) of either backend: call(network, v, t)
        for t < T-1, and v itself at the last unroll.  The returned estimate
        is the final CG output and no diagnostic reads the last prox's
        output, so that network call would be dead and is skipped."""

        def prox(v, t):
            return v if t == self.T - 1 else call(self._net_at(t), v, t)

        return prox

    # -- forward -------------------------------------------------------------
    def forward(self, E: EncodingOperator, y: KSpaceData):
        """Unrolled reconstruction as a (2, H, W) tape tensor.

        Runs ``unroll_steps`` with a taped CG solve.  The last unroll's
        network call is skipped (see ``_prox``), not taped.
        """
        fn = normal_fn(E)
        rhs0 = Tensor(complex_to_channels(E.adjoint(y).data))
        mu, rho, lam = self._per_unroll()

        def solve(t, b):
            def apply_A(v):
                return en.axpy(mu[t], v, en.linear_selfadjoint(v, fn))

            return cg_tape(apply_A, b, self.cg_iters), None

        prox = self._prox(lambda net, v, t: net.forward(v, t))
        for _, x, _, _ in unroll_steps(self.family, self.T, rhs0,
                                       Tensor(np.zeros_like(rhs0.data)), solve, prox,
                                       mu, rho, lam):
            pass
        return x

    def run(self, E, y, reference=None):
        """Inference (no tape): ``run_unrolled`` with the engine's scalars and
        networks.  Returns (ComplexImage, Diagnostics).

        Like ``forward``, it calls the networks at unrolls 0..T-2 only (see
        ``_prox``); the image and every diagnostic equal those of a run
        that also makes the last, dead network call."""
        mu, rho, lam = ([float(v.data) for v in vals] for vals in self._per_unroll())
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


def train(engine: TrainableEngine, dataset, epochs, lr, seed=0, shuffle=True):
    """Minimize the MSE between reconstructions and references.

    dataset: sequence of (EncodingOperator, KSpaceData, ComplexImage).
    Returns the per-epoch mean training loss; epochs=0 leaves the engine
    untouched.  Aborts with the offending sample index if a loss goes
    non-finite.
    """
    optimizer = Adam(engine.parameters(), lr)
    rng = np.random.default_rng(seed)
    curve = []
    for epoch in range(epochs):
        order = rng.permutation(len(dataset)) if shuffle else np.arange(len(dataset))
        total = 0.0
        for idx in order:
            value = _train_step(engine, optimizer, *dataset[idx])
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss at sample {int(idx)} (epoch {epoch})")
            total += value
        curve.append(total / len(dataset))
    return curve
