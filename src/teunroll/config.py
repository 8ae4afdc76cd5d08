"""Experiment configuration: an INI document with sections [data], [mask],
[model], [unroll], [train] and [eval].

Every key has a documented default (see SCHEMA); unknown sections or keys
are rejected with their full key path, and so is every value the engines
would reject or silently misread: non-finite reals, negative seeds,
regularization weights, learning rates, block and epoch counts and crops,
zero widths, unroll counts and iteration budgets, and a non-positive
``unroll.mu`` other than its -1 default sentinel.  Relative paths resolve
against the directory containing the config file, and the fully resolved
document can be echoed back out so a run is reproducible from its own
artifacts.
"""

from __future__ import annotations

import configparser
import math
import os

from .metrics import SSIM_WINDOW
from .nn.training import SHARING_MODES, default_mu
from .unroll import ALGORITHMS

ALGORITHM_CHOICES = ALGORITHMS + ("vamp",)
PROX_CHOICES = ("identity", "soft_threshold", "tikhonov", "resnet", "unet")
MASK_CHOICES = ("equispaced", "random")


class ConfigError(ValueError):
    pass


def _choice(options):
    def parse(raw, key):
        if raw not in options:
            raise ConfigError(f"{key}: {raw!r} is not one of {options}")
        return raw

    return parse


def _typed(cast, kind, valid=lambda value: True):
    def parse(raw, key):
        try:
            value = cast(raw)
            if valid(value):
                return value
        except ValueError:
            pass
        raise ConfigError(f"{key}: {raw!r} is not a valid {kind}")

    return parse


def _path(raw, key):
    return raw  # resolved later against the config directory


_INT = _typed(int, "integer")
_NONNEG_INT = _typed(int, "non-negative integer", lambda v: v >= 0)
_POSITIVE_INT = _typed(int, "positive integer", lambda v: v > 0)
_FLOAT = _typed(float, "finite real number", math.isfinite)
_NONNEG_FLOAT = _typed(float, "finite non-negative real number",
                       lambda v: math.isfinite(v) and v >= 0)
_POSITIVE_FLOAT = _typed(float, "finite positive real number",
                         lambda v: math.isfinite(v) and v > 0)
_DAMPING = _typed(float, "real number in (0, 1]", lambda v: 0 < v <= 1)
_MU_DEFAULT = -1.0
_MU = _typed(float, "finite positive real number or -1 (per-algorithm default)",
             lambda v: v == _MU_DEFAULT or (math.isfinite(v) and v > 0))

# (parser, default); a key is a path exactly when its parser is _path
SCHEMA = {
    "data": {
        "dir": (_path, "."),
        "index": (_INT, "0"),
        "noise_sigma": (_NONNEG_FLOAT, "0.01"),
        "noise_seed": (_NONNEG_INT, "0"),
    },
    "mask": {
        "kind": (_choice(MASK_CHOICES), "equispaced"),
        "accel": (_POSITIVE_INT, "4"),
        "acs": (_INT, "4"),
        "seed": (_NONNEG_INT, "0"),
    },
    "model": {
        "prox": (_choice(PROX_CHOICES), "tikhonov"),
        "theta": (_NONNEG_FLOAT, "0.05"),
        "gamma": (_NONNEG_FLOAT, "1.0"),
        "blocks": (_NONNEG_INT, "3"),
        "channels": (_POSITIVE_INT, "16"),
        "base_channels": (_POSITIVE_INT, "16"),
        "res_blocks": (_POSITIVE_INT, "1"),
        "net_seed": (_NONNEG_INT, "0"),
        "checkpoint": (_path, ""),
    },
    "unroll": {
        "algorithm": (_choice(ALGORITHM_CHOICES), "alg1"),
        "t": (_POSITIVE_INT, "5"),
        "cg_iters": (_POSITIVE_INT, "15"),
        "sharing": (_choice(SHARING_MODES), "time_embedded"),
        "mu": (_MU, "-1"),  # -1 = per-algorithm default
        "rho": (_FLOAT, "0.1"),
        "lam": (_FLOAT, "0.1"),
        "damping": (_DAMPING, "0.9"),
        "max_iters": (_POSITIVE_INT, "20"),
        "mu_floor": (_POSITIVE_FLOAT, "1e-8"),
        "out": (_path, "runs/recon"),
    },
    "train": {
        "epochs": (_NONNEG_INT, "10"),
        "lr": (_NONNEG_FLOAT, "5e-4"),
        "seed": (_NONNEG_INT, "0"),
        "out": (_path, "runs/train"),
    },
    "eval": {
        "out": (_path, "runs/eval"),
        "crop": (_NONNEG_INT, "0"),
    },
}


def load_config(path):
    """Parse and validate an experiment config file.

    Returns a {section: {key: value}} dict with every default resolved and
    all paths made absolute relative to the config file's directory.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    base = os.path.dirname(os.path.abspath(path))

    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    out = {}
    for section, keys in SCHEMA.items():
        out[section] = {}
        for key, (parse, default) in keys.items():
            raw = parser.get(section, key, fallback=default)
            value = parse(raw, f"{section}.{key}")
            if parse is _path and value:
                value = os.path.normpath(os.path.join(base, value))
            out[section][key] = value
    if 0 < out["eval"]["crop"] < SSIM_WINDOW:
        raise ConfigError(
            f"eval.crop: {out['eval']['crop']} is below the {SSIM_WINDOW}-pixel SSIM window "
            "(use 0 for no crop)"
        )
    if out["unroll"]["mu"] == _MU_DEFAULT:
        out["unroll"]["mu"] = default_mu(out["unroll"]["algorithm"])
    return out


def echo_config(config, path):
    """Write the fully resolved config so the run can be reproduced from it."""
    parser = configparser.ConfigParser()
    for section, keys in config.items():
        parser[section] = {}
        for key, value in keys.items():
            parser[section][key] = repr(value) if isinstance(value, float) else str(value)
    with open(path, "w") as fh:
        parser.write(fh)
