"""Spans and counts recorded from outside the program.

The tracer wraps the public functions and methods of each teunroll layer.
A function is patched wherever a module holds a reference to it, so a name
brought in with ``from ... import`` is wrapped as well as its definition.
Nothing under ``src/`` knows about the tracer; when the wrappers are
removed the program runs exactly as shipped.

A span is ``[name, start, end, parent, info]``: start and end come from
``time.perf_counter``, parent is the index of the enclosing span in the
same op (-1 for a top-level span) and info is an optional number taken
from the call's arguments or result (CG iterations, bytes read, ...).
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np


def _cg_info(args, kwargs, out):
    b = kwargs.get("b", args[1] if len(args) > 1 else None)
    report = out[1]
    b_norm = float(np.linalg.norm(b))
    rel = report.final_residual_norm / b_norm if b_norm > 0 else 0.0
    return (report.iterations_run, rel)


def _ktn_bytes(args, kwargs, out):
    return out.nbytes + 12 + 8 * out.ndim


def _tape_nodes(args, kwargs, out):
    return len(args[0].nodes)


def _vamp_clamps(args, kwargs, out):
    rows = out[1].rows
    return rows[-1]["clamps"] if rows else 0


# (defining module, attribute, span name, info function)
FUNCTIONS = [
    ("teunroll.linops", "cg_solve", "linops.cg_solve", _cg_info),
    ("teunroll.linops", "to_dense", "linops.to_dense", None),
    ("teunroll.linops", "estimate_trace_inverse", "linops.trace_estimate", None),
    ("teunroll.prox", "mc_divergence", "prox.divergence", None),
    ("teunroll.vamp", "as_vamp_operator", "vamp.setup", None),
    ("teunroll.vamp", "lmmse_step", "vamp.lmmse", None),
    ("teunroll.vamp", "denoise_step", "vamp.denoise", None),
    ("teunroll.vamp", "run_vamp", "vamp.run", _vamp_clamps),
    ("teunroll.unroll", "run_unrolled", "unroll.run", None),
    ("teunroll.nn.training", "train", "nn.train", None),
    ("teunroll.nn.training", "cg_tape", "nn.cg_tape", None),
    ("teunroll.nn.engine", "conv2d", "nn.conv2d", None),
    ("teunroll.nn.engine", "linear_selfadjoint", "nn.gram_tape", None),
    ("teunroll.nn.networks", "load_checkpoint", "cli.checkpoint_load", None),
    ("teunroll.metrics", "psnr", "metrics.psnr", None),
    ("teunroll.metrics", "ssim", "metrics.ssim", None),
    ("teunroll.metrics", "nmse", "metrics.nmse", None),
    ("teunroll.config", "load_config", "cli.config", None),
    ("teunroll.ktn", "read_ktn", "cli.ktn_read", _ktn_bytes),
    ("teunroll.ktn", "write_ktn", "cli.ktn_write", None),
    ("teunroll.pngout", "write_png", "cli.png", None),
]

# (defining module, class, method, span name, info function)
METHODS = [
    ("teunroll.signal_model", "EncodingOperator", "normal_array", "signal_model.gram", None),
    ("teunroll.signal_model", "EncodingOperator", "normal", "signal_model.gram_check", None),
    ("teunroll.signal_model", "EncodingOperator", "forward", "signal_model.forward", None),
    ("teunroll.signal_model", "EncodingOperator", "adjoint", "signal_model.adjoint", None),
    ("teunroll.prox", "AnalyticProx", "apply", "prox.apply", None),
    ("teunroll.prox", "AnalyticProx", "divergence", "prox.divergence", None),
    ("teunroll.nn.training", "TrainableEngine", "forward", "nn.forward", None),
    ("teunroll.nn.training", "Adam", "step", "nn.adam", None),
    ("teunroll.nn.engine", "Tape", "backward", "nn.backward", _tape_nodes),
    ("teunroll.nn.networks", "ResNetProx", "forward", "nn.net_forward", None),
    ("teunroll.nn.networks", "UNetProx", "forward", "nn.net_forward", None),
]

# Bindings made by ``from ... import`` that the program calls through; a
# tracer that missed one of them would undercount its layer.
REQUIRED_BINDINGS = [
    "teunroll.unroll.cg_solve",
    "teunroll.vamp.cg_solve",
    "teunroll.vamp.to_dense",
    "teunroll.vamp.estimate_trace_inverse",
    "teunroll.cli.run_unrolled",
    "teunroll.cli.run_vamp",
    "teunroll.cli.train",
    "teunroll.cli.load_checkpoint",
    "teunroll.cli.load_config",
    "teunroll.cli.write_png",
    "teunroll.nn.training.cg_tape",
]


class Tracer:
    """Records spans for one op at a time while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._wrapped = set()
        self._build_patches()

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, out)
            return out

        self._wrapped.add(wrapper)
        return wrapper

    def _build_patches(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "teunroll" or n.startswith("teunroll.")) and m is not None]
        for modname, attr, name, info in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig, wrapper))
        for modname, clsname, attr, name, info in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig, self._wrap(name, orig, info)))

    def install(self):
        for owner, key, _orig, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, orig, _wrapper in self._patches:
            setattr(owner, key, orig)

    def missing_bindings(self):
        """Required bindings that are not wrapped while installed."""
        missing = []
        for path in REQUIRED_BINDINGS:
            modname, attr = path.rsplit(".", 1)
            if getattr(sys.modules[modname], attr, None) not in self._wrapped:
                missing.append(path)
        return missing

    # -- one op --------------------------------------------------------------
    def run_op(self, fn):
        """Run ``fn`` traced under a root ``op`` span; returns (result, spans)."""
        self.spans.clear()
        self._stack[:] = [0]
        root = ["op", 0.0, 0.0, -1, None]
        self.spans.append(root)
        self.install()
        try:
            root[1] = time.perf_counter()
            out = fn()
        finally:
            root[2] = time.perf_counter()
            self.uninstall()
            self._stack.clear()
        return out, [list(s) for s in self.spans]


def self_times(spans):
    """Duration of each span minus the part its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans):
    """Per-layer numbers of one traced op (times in ms)."""
    own = self_times(spans)
    total = {}
    self_ms = {}
    calls = {}
    for s, o in zip(spans, own):
        name = s[0]
        total[name] = total.get(name, 0.0) + (s[2] - s[1]) * 1e3
        self_ms[name] = self_ms.get(name, 0.0) + o * 1e3
        calls[name] = calls.get(name, 0) + 1

    def ms(name):
        return total.get(name, 0.0)

    def infos(name):
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    cg = infos("linops.cg_solve")
    nodes = infos("nn.backward")
    gram_calls = calls.get("signal_model.gram", 0)
    op_ms = ms("op")
    dense_applies = sum(
        1 for s in spans
        if s[0] == "signal_model.gram_check" and s[3] >= 0
        and spans[s[3]][0] == "linops.to_dense"
    )
    return {
        "signal_model.gram_calls": gram_calls,
        "signal_model.gram_ms": ms("signal_model.gram"),
        "signal_model.gram_us_per_call": ms("signal_model.gram") * 1e3 / gram_calls
        if gram_calls else 0.0,
        "signal_model.gram_check_ms": self_ms.get("signal_model.gram_check", 0.0),
        "signal_model.forward_ms": ms("signal_model.forward"),
        "signal_model.adjoint_ms": ms("signal_model.adjoint"),
        "linops.cg_calls": len(cg),
        "linops.cg_iters": sum(it for it, _ in cg),
        "linops.cg_self_ms": self_ms.get("linops.cg_solve", 0.0),
        "linops.cg_rel_residual_p50": statistics.median(r for _, r in cg) if cg else 0.0,
        "linops.to_dense_ms": ms("linops.to_dense"),
        "linops.to_dense_applies": dense_applies,
        "linops.trace_estimate_ms": ms("linops.trace_estimate"),
        "prox.calls": calls.get("prox.apply", 0),
        "prox.ms": ms("prox.apply"),
        "prox.divergence_ms": ms("prox.divergence"),
        "vamp.setup_ms": ms("vamp.setup"),
        "vamp.eig_ms": self_ms.get("vamp.setup", 0.0),
        "vamp.lmmse_ms": ms("vamp.lmmse"),
        "vamp.denoise_ms": ms("vamp.denoise"),
        "vamp.setup_share": ms("vamp.setup") / op_ms if op_ms else 0.0,
        "vamp.clamps": sum(infos("vamp.run")),
        "unroll.run_ms": ms("unroll.run"),
        "unroll.self_ms": self_ms.get("unroll.run", 0.0),
        "nn.forward_ms": ms("nn.forward"),
        "nn.backward_ms": ms("nn.backward"),
        "nn.backward_calls": len(nodes),
        "nn.adam_ms": ms("nn.adam"),
        "nn.adam_calls": calls.get("nn.adam", 0),
        "nn.cg_tape_ms": ms("nn.cg_tape"),
        "nn.net_forward_ms": ms("nn.net_forward"),
        "nn.conv2d_calls": calls.get("nn.conv2d", 0),
        "nn.conv2d_ms": ms("nn.conv2d"),
        "nn.gram_tape_calls": calls.get("nn.gram_tape", 0),
        "nn.tape_nodes": max(nodes) if nodes else 0,
        "nn.tape_nodes_min": min(nodes) if nodes else 0,
        "metrics.ssim_ms": ms("metrics.ssim"),
        "metrics.calls": sum(calls.get(k, 0) for k in
                             ("metrics.psnr", "metrics.ssim", "metrics.nmse")),
        "cli.config_ms": ms("cli.config"),
        "cli.ktn_read_ms": ms("cli.ktn_read"),
        "cli.ktn_bytes_read": sum(infos("cli.ktn_read")),
        "cli.ktn_write_ms": ms("cli.ktn_write"),
        "cli.checkpoint_loads": calls.get("cli.checkpoint_load", 0),
        "cli.png_ms": ms("cli.png"),
        "op.ms": op_ms,
        "op.unaccounted_ms": self_ms["op"],
    }
