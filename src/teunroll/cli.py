"""Experiment runner: phantom generation, reconstruction, training and
evaluation, all driven by an INI config (see config.SCHEMA for defaults).

Subcommands: phantom | recon | train | eval.
Exit codes: 0 ok, 2 config error, 3 numeric failure.

recon, train and eval read and measure dataset slices through ``_problem``
alone: y = E x + n, with E from [mask] and sens.ktn.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

import numpy as np

from . import ktn, metrics
from .config import ConfigError, echo_config, load_config
from .nn import TrainableEngine, TrainingError, save_checkpoint, load_checkpoint, train
from .pngout import write_png
from .prox import AnalyticProx
from .signal_model import (
    ComplexImage,
    CoilSensitivities,
    EncodingOperator,
    add_noise,
    make_equispaced_mask,
    make_phantom,
    make_random_mask,
    make_smooth_sensitivities,
)
from .unroll import Diagnostics, run_unrolled
from .vamp import VampConfig, as_vamp_operator, run_vamp

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

METRIC_COLUMNS = ("psnr_db", "ssim", "nmse")
NETWORK_PROXES = ("resnet", "unet")


# -- dataset helpers ---------------------------------------------------------

def _scan_dataset(dirpath):
    """(image paths, sens.ktn path, image shape) of a data dir, checked from
    the KTN headers alone: every file must be valid KTN1 and every image
    must have the maps' H x W shape.  No payload is read."""
    files = sorted(glob.glob(os.path.join(glob.escape(dirpath), "img_*.ktn")))
    if not files:
        raise ConfigError(f"data.dir: no img_*.ktn files in {dirpath}")
    sens_path = os.path.join(dirpath, "sens.ktn")
    if not os.path.isfile(sens_path):
        raise ConfigError(f"data.dir: missing sens.ktn in {dirpath}")
    _, sens_shape = ktn.read_header(sens_path)
    if len(sens_shape) != 3:
        raise ConfigError(f"data.dir: sens.ktn holds a {sens_shape} array, not (coils, H, W)")
    for f in files:
        _, shape = ktn.read_header(f)
        if shape != sens_shape[1:]:
            raise ConfigError(
                f"data.dir: {f} holds a {shape} image but sens.ktn maps "
                f"are {sens_shape[1:]}")
    return files, sens_path, sens_shape[1:]


def _scan_for_reconstruction(cfg):
    """``_scan_dataset`` for recon and eval, after the checks that need no
    payload: VAMP runs an analytic prox only, and every slice is scored with
    SSIM, which needs the whole window."""
    if cfg["unroll"]["algorithm"] == "vamp" and cfg["model"]["prox"] in NETWORK_PROXES:
        raise ConfigError(
            "unroll.algorithm: vamp needs an analytic model.prox "
            "(identity, soft_threshold or tikhonov), not a network"
        )
    dirpath = cfg["data"]["dir"]
    files, sens_path, shape = _scan_dataset(dirpath)
    side = min(shape)
    if side < metrics.SSIM_WINDOW:
        raise ConfigError(
            f"data.dir: images in {dirpath} are {side} pixels on their short side, "
            f"below the {metrics.SSIM_WINDOW}-pixel SSIM window"
        )
    return files, sens_path


def _build_mask(cfg, shape):
    mask_cfg = cfg["mask"]
    rows, cols = shape
    try:
        if mask_cfg["kind"] == "equispaced":
            return make_equispaced_mask(rows, cols, mask_cfg["accel"], mask_cfg["acs"])
        return make_random_mask(rows, cols, mask_cfg["accel"], mask_cfg["acs"],
                                mask_cfg["seed"])
    except ValueError as exc:
        raise ConfigError(
            f"mask.acs: {exc} (mask.accel = {mask_cfg['accel']}, {cols} columns)") from None


def _problem(cfg, files, sens_path, indices):
    """E, from sens.ktn and [mask], and an iterator over (truth, y = E x + n)
    of each index, with noise seed data.noise_seed + index; it reads a
    slice's payload only when it reaches that slice."""
    sens = CoilSensitivities(ktn.read_ktn(sens_path))
    E = EncodingOperator(_build_mask(cfg, sens.maps.shape[1:]), sens)
    data = cfg["data"]

    def slices():
        for i in indices:
            truth = ComplexImage(ktn.read_ktn(files[i]))
            yield truth, add_noise(E.forward(truth), data["noise_sigma"],
                                   data["noise_seed"] + i, mask=E.mask)

    return E, slices()


def _load_engine(cfg):
    """The configured TrainableEngine, with model.checkpoint's parameters
    when the key is set."""
    model = cfg["model"]
    un = cfg["unroll"]
    if model["prox"] == "resnet":
        kwargs = {"blocks": model["blocks"], "channels": model["channels"]}
    else:
        kwargs = {"base_channels": model["base_channels"], "res_blocks": model["res_blocks"]}
    engine = TrainableEngine(
        un["algorithm"],
        T=un["t"],
        cg_iters=un["cg_iters"],
        sharing=un["sharing"],
        arch=model["prox"],
        seed=model["net_seed"],
        mu_init=un["mu"],
        rho_init=un["rho"],
        lam_init=un["lam"],
        **kwargs,
    )
    if model["checkpoint"]:
        try:
            engine.load_state(load_checkpoint(model["checkpoint"]))
        except (ValueError, OSError) as exc:
            raise ConfigError(f"model.checkpoint: {exc}") from None
    return engine


def _reconstructor(cfg, E):
    """The configured algorithm as ``reconstruct(y, reference=None)``, which
    returns (image, diags) for one slice measured through E.  A learned
    engine is built, and its checkpoint read, per slice.  VAMP's set-up
    depends on E alone: it runs once, here, and each slice brings only its
    own E^H y.  A VAMP config has an analytic prox
    (``_scan_for_reconstruction``)."""
    un, model = cfg["unroll"], cfg["model"]
    if model["prox"] in NETWORK_PROXES:
        return lambda y, reference=None: _load_engine(cfg).run(E, y, reference=reference)
    p = AnalyticProx(model["prox"], theta=model["theta"], gamma=model["gamma"])
    if un["algorithm"] != "vamp":
        T = un["t"]
        return lambda y, reference=None: run_unrolled(
            un["algorithm"], E, y, [un["mu"]] * T, lambda img, t: p.apply(img),
            rho=[un["rho"]] * T, lam=[un["lam"]] * T, cg_iters=un["cg_iters"],
            reference=reference)
    vcfg = VampConfig(max_iters=un["max_iters"], damping=un["damping"],
                      mu_floor=un["mu_floor"], cg_iters=max(un["cg_iters"], 50))
    op = as_vamp_operator(E)

    def vamp(y, reference=None):
        x, diags = run_vamp(op, E.adjoint(y).data, p, vcfg, reference=reference)
        return ComplexImage(x), diags

    return vamp


def _metric_row(reference, test, crop):
    ref = np.abs(reference.data)
    tst = np.abs(test.data)
    if crop > 0:
        ref = _center_crop(ref, crop)
        tst = _center_crop(tst, crop)
    return (
        metrics.psnr(ref, tst),
        metrics.ssim(ref, tst),
        metrics.nmse(ref, tst),
    )


def _write_csv(path, table):
    with open(path, "w") as fh:
        fh.write(table.to_csv())


def _center_crop(arr, size):
    h, w = arr.shape
    size = min(size, h, w)
    top = (h - size) // 2
    left = (w - size) // 2
    return arr[top : top + size, left : left + size]


# -- subcommands ---------------------------------------------------------

def _check_seeds(args):
    """A global or subcommand --seed must be a non-negative integer."""
    for seed in (args.seed, getattr(args, "sub_seed", None)):
        if seed is not None and seed < 0:
            raise ConfigError(f"--seed: {seed} is not a non-negative integer")


def cmd_phantom(args):
    for flag, value, least in (("--size", args.size, 8), ("--coils", args.coils, 1),
                               ("--count", args.count, 1)):
        if value < least:
            raise ConfigError(f"{flag}: must be at least {least}, not {value}")
    seed = args.sub_seed if args.sub_seed is not None else (args.seed or 0)
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        img = make_phantom(args.size, args.size, 6, seed=seed + i)
        ktn.write_ktn(os.path.join(args.out, f"img_{i:04d}.ktn"), img.data)
    sens = make_smooth_sensitivities(args.size, args.size, args.coils, seed=seed)
    ktn.write_ktn(os.path.join(args.out, "sens.ktn"), sens.maps)
    return EXIT_OK


def cmd_recon(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["data"]["noise_seed"] = args.seed
    # every slice's header is checked, but only this slice's payload is read
    files, sens_path = _scan_for_reconstruction(cfg)
    index = cfg["data"]["index"]
    if not 0 <= index < len(files):
        raise ConfigError(f"data.index: {index} out of range (0..{len(files) - 1})")
    E, slices = _problem(cfg, files, sens_path, [index])
    [(truth, y)] = slices
    recon, diags = _reconstructor(cfg, E)(y, reference=truth)

    out = cfg["unroll"]["out"]
    os.makedirs(out, exist_ok=True)
    ktn.write_ktn(os.path.join(out, "recon.ktn"), recon.data)
    write_png(os.path.join(out, "recon.png"), np.abs(recon.data))
    _write_csv(os.path.join(out, "diagnostics.csv"), diags)
    table = Diagnostics(("which",) + METRIC_COLUMNS)
    for which, img in (("recon", recon), ("zero_filled", E.adjoint(y))):
        table.record(which, *_metric_row(truth, img, cfg["eval"]["crop"]))
    _write_csv(os.path.join(out, "metrics.csv"), table)
    echo_config(cfg, os.path.join(out, "config.echo.ini"))
    return EXIT_OK


def cmd_train(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["train"]["seed"] = args.seed
    un = cfg["unroll"]
    if un["algorithm"] == "vamp":
        raise ConfigError("unroll.algorithm: vamp has no trainable parameters")
    if cfg["model"]["prox"] not in NETWORK_PROXES:
        raise ConfigError("model.prox: training needs a network prox (resnet or unet)")
    files, sens_path, _ = _scan_dataset(cfg["data"]["dir"])
    E, slices = _problem(cfg, files, sens_path, range(len(files)))
    dataset = [(E, y, truth) for truth, y in slices]
    engine = _load_engine(cfg)
    curve = train(engine, dataset, cfg["train"]["epochs"], cfg["train"]["lr"],
                  seed=cfg["train"]["seed"])
    out = cfg["train"]["out"]
    os.makedirs(out, exist_ok=True)
    save_checkpoint(os.path.join(out, "checkpoint"), engine.parameters())
    loss = Diagnostics(("epoch", "train_mse"))
    for i, v in enumerate(curve):
        loss.record(i, v)
    _write_csv(os.path.join(out, "loss.csv"), loss)
    echo_config(cfg, os.path.join(out, "config.echo.ini"))
    return EXIT_OK


def cmd_eval(args):
    cfg = load_config(args.config)
    files, sens_path = _scan_for_reconstruction(cfg)
    E, slices = _problem(cfg, files, sens_path, range(len(files)))
    reconstruct = _reconstructor(cfg, E)
    # one slice is held at a time; nothing is written unless every slice scores
    rows = [_metric_row(truth, reconstruct(y)[0], cfg["eval"]["crop"])
            for truth, y in slices]

    out = cfg["eval"]["out"]
    os.makedirs(out, exist_ok=True)
    arr = np.array(rows, dtype=np.float64)
    finite = np.isfinite(arr[:, 0])
    table = Diagnostics(("slice",) + METRIC_COLUMNS)
    for i, row in enumerate(rows):
        table.record(i, *row)
    table.record("mean", float(np.mean(arr[finite, 0])) if finite.any() else float("inf"),
                 float(np.mean(arr[:, 1])), float(np.mean(arr[:, 2])))
    table.record("std", float(np.std(arr[finite, 0])) if finite.any() else 0.0,
                 float(np.std(arr[:, 1])), float(np.std(arr[:, 2])))
    _write_csv(os.path.join(out, "metrics.csv"), table)
    echo_config(cfg, os.path.join(out, "config.echo.ini"))
    return EXIT_OK


# -- entry point -----------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="teunroll",
        description="Time-embedded algorithm unrolling experiment runner.",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="phantom: generator seed (its own --seed wins); recon: sets "
             "data.noise_seed; train: sets train.seed; eval: ignored, its noise seeds "
             "come from data.noise_seed only")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate phantom images + coil maps")
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--coils", type=int, default=4)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, dest="sub_seed")
    p.set_defaults(fn=cmd_phantom)

    p = sub.add_parser("recon", help="reconstruct one slice per the config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_recon)

    p = sub.add_parser("train", help="train an unrolled network end to end")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a config over a dataset")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_seeds(args)
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
