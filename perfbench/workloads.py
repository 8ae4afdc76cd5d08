"""The benchmark workloads: inputs, one op, output checks and the
counts the traced run must reproduce.

Each workload makes its dataset and configs with the program's own CLI
(``teunroll phantom``, and ``teunroll train`` for the eval checkpoint),
then runs one CLI command per op.  Checks read the artifacts the op wrote,
outside the timed region.
"""

from __future__ import annotations

import math
import os

T = 5
CG_ITERS = 15
TRAIN_SAMPLES = 8
EVAL_SLICES = 16
VAMP_ITERS = 20  # the CLI's VAMP default
PRECISION_RTOL = 1e-9


class CheckFailed(Exception):
    pass


def run_cli(cli, argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"teunroll {' '.join(argv)} exited {code}")


def write_ini(path, sections):
    with open(path, "w") as fh:
        for section, keys in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


def make_phantoms(cli, out, size, coils, count, seed):
    run_cli(cli, ["phantom", "--out", out, "--size", str(size), "--coils", str(coils),
                  "--count", str(count), "--seed", str(seed)])


def read_csv(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def finite(value, what):
    try:
        v = float(value)
    except ValueError:
        raise CheckFailed(f"{what}: {value!r} is not a number") from None
    if not math.isfinite(v):
        raise CheckFailed(f"{what} is not finite ({v})")
    return v


def expect(errors, what, got, want):
    if got != want:
        errors.append(f"{what} = {got}, expected {want}")


RESNET = {"prox": "resnet", "blocks": 3, "channels": 16}
TE_UNROLL = {"algorithm": "alg1", "t": T, "cg_iters": CG_ITERS, "sharing": "time_embedded"}


class Recon:
    """``teunroll recon`` on one slice per op, cycling through the slices."""

    items_per_op = 1
    cycle = 8

    def __init__(self, size, coils, model, unroll, vamp):
        self.size, self.coils = size, coils
        self.model, self.unroll, self.vamp = model, unroll, vamp

    def setup(self, cli, work, data_seed, seed):
        data = os.path.join(work, "data")
        self.out = os.path.join(work, "out")
        make_phantoms(cli, data, self.size, self.coils, self.cycle, data_seed)
        self.configs = []
        for i in range(self.cycle):
            path = os.path.join(work, f"recon_{i}.ini")
            write_ini(path, {
                "data": {"dir": data, "index": i},
                "mask": {"kind": "equispaced", "accel": 4},
                "model": self.model,
                "unroll": {**self.unroll, "out": self.out},
            })
            self.configs.append(path)

    def argv(self, i, seed):
        return ["--seed", str(seed), "recon", "--config", self.configs[i % self.cycle]]

    def check(self, i):
        import numpy as np
        from teunroll import ktn

        rows = {r["which"]: r for r in read_csv(os.path.join(self.out, "metrics.csv"))}
        recon_nmse = finite(rows["recon"]["nmse"], "recon nmse")
        zf_nmse = finite(rows["zero_filled"]["nmse"], "zero-filled nmse")
        recon = ktn.read_ktn(os.path.join(self.out, "recon.ktn"))
        if recon.shape != (self.size, self.size) or not np.all(np.isfinite(recon)):
            raise CheckFailed("recon.ktn has the wrong shape or non-finite values")
        quality = {"psnr_db": finite(rows["recon"]["psnr_db"], "recon psnr"),
                   "zero_filled_psnr_db": finite(rows["zero_filled"]["psnr_db"], "zf psnr")}
        if self.vamp:
            diags = read_csv(os.path.join(self.out, "diagnostics.csv"))
            if len(diags) != VAMP_ITERS:
                raise CheckFailed(f"{len(diags)} VAMP diagnostics rows, expected {VAMP_ITERS}")
            for row in diags:
                lhs = 1.0 / finite(row["upsilon_x"], "upsilon_x")
                rhs = finite(row["mu_x"], "mu_x") + finite(row["mu_z"], "mu_z")
                if abs(lhs - rhs) > PRECISION_RTOL * abs(lhs):
                    raise CheckFailed(
                        f"iteration {row['iteration']}: 1/upsilon_x = {lhs!r} "
                        f"!= mu_x + mu_z = {rhs!r}")
            quality["clamps"] = int(diags[-1]["clamps"])
        elif recon_nmse >= zf_nmse:
            raise CheckFailed(f"recon nmse {recon_nmse} is not below zero-filled {zf_nmse}")
        return quality

    def count_errors(self, m):
        errors = []
        expect(errors, "signal_model.gram_calls", m["signal_model.gram_calls"],
               m["linops.cg_iters"] + m["linops.to_dense_applies"])
        if self.vamp:
            expect(errors, "linops.to_dense_applies", m["linops.to_dense_applies"],
                   self.size * self.size)
            expect(errors, "linops.cg_calls", m["linops.cg_calls"], VAMP_ITERS)
        else:
            expect(errors, "linops.cg_calls", m["linops.cg_calls"], T)
            expect(errors, "prox.calls", m["prox.calls"], T)
            if m["linops.cg_iters"] > T * CG_ITERS:
                errors.append(f"linops.cg_iters = {m['linops.cg_iters']} > {T * CG_ITERS}")
        return errors


class Train:
    """``teunroll train`` for one epoch per op, each with a fresh shuffle seed."""

    items_per_op = TRAIN_SAMPLES
    cycle = TRAIN_SAMPLES

    def setup(self, cli, work, data_seed, seed):
        self.data = os.path.join(work, "data")
        self.out = os.path.join(work, "out")
        make_phantoms(cli, self.data, 32, 4, TRAIN_SAMPLES, data_seed)
        self.config = os.path.join(work, "train.ini")
        write_ini(self.config, {
            "data": {"dir": self.data},
            "mask": {"kind": "equispaced", "accel": 4},
            "model": RESNET,
            "unroll": TE_UNROLL,
            "train": {"epochs": 1, "out": self.out},
        })
        self._slices = {}

    def argv(self, i, seed):
        return ["--seed", str(seed), "train", "--config", self.config]

    def _slice(self, index):
        """(E, y, truth) of one training slice, measured as the CLI does."""
        if index not in self._slices:
            from teunroll import ktn, signal_model as sm

            sens = sm.CoilSensitivities(ktn.read_ktn(os.path.join(self.data, "sens.ktn")))
            truth = sm.ComplexImage(
                ktn.read_ktn(os.path.join(self.data, f"img_{index:04d}.ktn")))
            mask = sm.make_equispaced_mask(32, 32, 4, 4)
            E = sm.EncodingOperator(mask, sens)
            y = sm.add_noise(E.forward(truth), 0.01, seed=index, mask=mask)
            self._slices[index] = (E, y, truth)
        return self._slices[index]

    def check(self, i):
        import numpy as np
        from teunroll import metrics, nn

        rows = read_csv(os.path.join(self.out, "loss.csv"))
        if len(rows) != 1:
            raise CheckFailed(f"loss.csv has {len(rows)} epochs, expected 1")
        loss = finite(rows[0]["train_mse"], "train loss")
        engine = nn.TrainableEngine("alg1", T=T, cg_iters=CG_ITERS, sharing="time_embedded",
                                    arch="resnet", blocks=3, channels=16)
        try:
            engine.load_state(nn.load_checkpoint(os.path.join(self.out, "checkpoint")))
        except (KeyError, ValueError, OSError) as exc:
            raise CheckFailed(f"checkpoint does not load: {exc}") from None
        E, y, truth = self._slice(i % TRAIN_SAMPLES)
        recon = engine.reconstruct(E, y)
        if not np.all(np.isfinite(recon.data)):
            raise CheckFailed("trained engine reconstructs non-finite values")
        psnr = metrics.psnr(np.abs(truth.data), np.abs(recon.data))
        return {"psnr_db": finite(psnr, "trained psnr"), "train_loss": loss}

    def count_errors(self, m):
        errors = []
        expect(errors, "nn.gram_tape_calls", m["nn.gram_tape_calls"],
               TRAIN_SAMPLES * T * CG_ITERS)
        expect(errors, "nn.backward_calls", m["nn.backward_calls"], TRAIN_SAMPLES)
        expect(errors, "nn.adam_calls", m["nn.adam_calls"], TRAIN_SAMPLES)
        expect(errors, "nn.tape_nodes (min over steps)", m["nn.tape_nodes_min"],
               m["nn.tape_nodes"])
        return errors


class Eval:
    """``teunroll eval`` over 16 slices with a checkpoint trained in setup."""

    items_per_op = EVAL_SLICES
    cycle = 1

    def setup(self, cli, work, data_seed, seed):
        trainer = Train()
        trainer.setup(cli, os.path.join(work, "train"), data_seed, seed)
        run_cli(cli, ["--seed", str(seed), "train", "--config", trainer.config])
        data = os.path.join(work, "data")
        self.out = os.path.join(work, "out")
        make_phantoms(cli, data, 32, 4, EVAL_SLICES, data_seed + 1000)
        self.config = os.path.join(work, "eval.ini")
        write_ini(self.config, {
            "data": {"dir": data},
            "mask": {"kind": "equispaced", "accel": 4},
            "model": {**RESNET, "checkpoint": os.path.join(trainer.out, "checkpoint")},
            "unroll": TE_UNROLL,
            "eval": {"out": self.out},
        })

    def argv(self, i, seed):
        # eval reads its noise seeds from the config; --seed does not reach it
        return ["--seed", str(seed), "eval", "--config", self.config]

    def check(self, i):
        rows = read_csv(os.path.join(self.out, "metrics.csv"))
        slices = [r for r in rows if r["slice"] not in ("mean", "std")]
        if len(slices) != EVAL_SLICES or [r["slice"] for r in rows[-2:]] != ["mean", "std"]:
            raise CheckFailed(f"metrics.csv needs {EVAL_SLICES} slice rows then mean and std")
        for r in rows:
            for key in ("psnr_db", "ssim", "nmse"):
                finite(r[key], f"eval {r['slice']} {key}")
        return {"psnr_db": float(rows[-2]["psnr_db"])}

    def count_errors(self, m):
        errors = []
        # one reload per slice: the checkpoint is not cached across slices
        expect(errors, "cli.checkpoint_loads", m["cli.checkpoint_loads"], EVAL_SLICES)
        return errors


def make(name):
    if name == "recon-alg1-128":
        return Recon(128, 8, {"prox": "soft_threshold"},
                     {"algorithm": "alg1", "t": T, "cg_iters": CG_ITERS, "sharing": "shared"},
                     vamp=False)
    if name == "vamp-exact-32":
        return Recon(32, 4, {"prox": "soft_threshold"}, {"algorithm": "vamp"}, vamp=True)
    if name == "train-te-32":
        return Train()
    if name == "eval-learned-32":
        return Eval()
    raise KeyError(name)
