import contextlib
import csv
import io
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teunroll import cli, ktn
from teunroll import signal_model as sm
from teunroll.config import SCHEMA, ConfigError, _path, load_config
from teunroll.nn.networks import load_checkpoint, save_checkpoint
from teunroll.unroll import UNROLL_COLUMNS, Diagnostics

from oracles import dense_from_probes, flat_gram


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run_cli("phantom", "--out", out, "--size", "32", "--coils", "4",
                   "--count", "3") == 0
    return out


def write_cfg(tmp_path, body, name="exp.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path


def test_phantom_outputs_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("phantom", "--out", a, "--size", "16", "--coils", "4", "--count", "2") == 0
    assert run_cli("phantom", "--out", b, "--size", "16", "--coils", "4", "--count", "2") == 0
    for name in ("img_0000.ktn", "img_0001.ktn", "sens.ktn"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert ktn.read_ktn(a / "sens.ktn").shape == (4, 16, 16)
    img = ktn.read_ktn(a / "img_0000.ktn")
    assert img.shape == (16, 16) and img.dtype == np.dtype("<c16")


def test_phantom_seed_flag_positions(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli("phantom", "--out", a, "--size", "16", "--count", "1", "--seed", "9") == 0
    assert run_cli("--seed", "9", "phantom", "--out", b, "--size", "16", "--count", "1") == 0
    assert run_cli("phantom", "--out", c, "--size", "16", "--count", "1", "--seed", "3") == 0
    assert (a / "img_0000.ktn").read_bytes() == (b / "img_0000.ktn").read_bytes()
    assert (a / "img_0000.ktn").read_bytes() != (c / "img_0000.ktn").read_bytes()


def test_mask_command_header(tmp_path):
    out = tmp_path / "m.ktn"
    assert run_cli("mask", "--out", out, "--rows", "8", "--cols", "16",
                   "--accel", "4", "--acs", "4") == 0
    pattern = ktn.read_ktn(out)
    assert pattern.dtype == np.dtype("<f4") and pattern.shape == (8, 16)
    cols = np.flatnonzero(pattern.all(axis=0))
    assert set(cols.tolist()) == set(range(0, 16, 4)) | {6, 7, 8, 9}


def test_recon_beats_zero_filled(tmp_path, dataset):
    cfg = write_cfg(tmp_path, """
[data]
dir = data
index = 0
[mask]
accel = 4
acs = 4
[model]
prox = tikhonov
gamma = 0.5
[unroll]
algorithm = alg1
t = 5
sharing = shared
out = out_recon
""")
    assert run_cli("recon", "--config", cfg) == 0
    out = tmp_path / "out_recon"
    rows = (out / "metrics.csv").read_text().strip().split("\n")[1:]
    vals = {r.split(",")[0]: float(r.split(",")[3]) for r in rows}
    assert vals["recon"] < vals["zero_filled"]
    assert (out / "recon.ktn").exists()
    assert (out / "recon.png").read_bytes().startswith(b"\x89PNG")
    assert (out / "diagnostics.csv").read_text().startswith("unroll_index,")


def test_recon_runs_each_analytic_prox(tmp_path, dataset):
    # model.prox names the AnalyticProx kind; theta and gamma reach every
    # kind, and each kind reads only its own weight
    recons = {}
    for prox in ("identity", "soft_threshold", "tikhonov"):
        cfg = write_cfg(tmp_path, f"[data]\ndir = data\n[model]\nprox = {prox}\ngamma = 0\n"
                                  f"[unroll]\nalgorithm = alg1\nsharing = shared\nout = {prox}\n")
        assert run_cli("recon", "--config", cfg) == cli.EXIT_OK
        recons[prox] = ktn.read_ktn(tmp_path / prox / "recon.ktn")
        assert recons[prox].shape == (32, 32) and np.all(np.isfinite(recons[prox]))
    # tikhonov at gamma = 0 has gain 1, so it reconstructs as identity does
    assert np.array_equal(recons["tikhonov"], recons["identity"])
    assert not np.array_equal(recons["soft_threshold"], recons["identity"])


def _diagnostics(out):
    with open(out / "diagnostics.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == UNROLL_COLUMNS
        return list(reader)


def test_cg_columns_show_a_solve_that_reaches_its_tolerance(tmp_path, dataset):
    cfg = write_cfg(tmp_path, "[data]\ndir = data\n[model]\nprox = tikhonov\n"
                              "[unroll]\nalgorithm = alg1\nsharing = shared\ncg_iters = 200\n")
    assert run_cli("recon", "--config", cfg) == cli.EXIT_OK
    rows = _diagnostics(tmp_path / "runs" / "recon")
    assert len(rows) == 5
    for row in rows:
        assert row["cg_converged"] == "True"
        assert 0 < int(row["cg_iters"]) < 200
        assert float(row["cg_rel_residual"]) <= 1e-12


def test_cg_columns_show_a_diverging_run_whose_cg15_stops_short(tmp_path, dataset):
    # rho = 50 makes alg1 diverge: the run still exits 0, but every CG-15
    # stops at its budget, short of its 1e-12 tolerance
    cfg = write_cfg(tmp_path, "[data]\ndir = data\n[model]\nprox = soft_threshold\n"
                              "[unroll]\nalgorithm = alg1\nsharing = shared\nrho = 50\n")
    assert run_cli("recon", "--config", cfg) == cli.EXIT_OK
    out = tmp_path / "runs" / "recon"
    psnr = float((out / "metrics.csv").read_text().split("\n")[1].split(",")[1])
    assert psnr < -80
    rows = _diagnostics(out)
    assert [row["cg_iters"] for row in rows] == ["15"] * 5
    assert [row["cg_converged"] for row in rows] == ["False"] * 5
    assert all(float(row["cg_rel_residual"]) > 1e-6 for row in rows)
    # the absolute residual grows with the iterates
    assert float(rows[-1]["cg_residual"]) > 1e4 * float(rows[0]["cg_residual"])


def test_recon_vamp_matches_dense_ridge(tmp_path):
    data = tmp_path / "data"
    assert run_cli("phantom", "--out", data, "--size", "32", "--coils", "1",
                   "--count", "1") == 0
    gamma = 1.0
    cfg = write_cfg(tmp_path, f"""
[data]
dir = data
index = 0
noise_sigma = 0.01
noise_seed = 3
[mask]
accel = 2
acs = 4
[model]
prox = tikhonov
gamma = {gamma}
[unroll]
algorithm = vamp
max_iters = 25
out = out_vamp
""")
    assert run_cli("recon", "--config", cfg) == 0
    recon = ktn.read_ktn(tmp_path / "out_vamp" / "recon.ktn")

    # rebuild the exact same measurement and solve the ridge system densely
    truth = sm.ComplexImage(ktn.read_ktn(data / "img_0000.ktn"))
    sens = sm.CoilSensitivities(ktn.read_ktn(data / "sens.ktn"))
    mask = sm.make_equispaced_mask(32, 32, 2, 4)
    E = sm.EncodingOperator(mask, sens)
    y = sm.add_noise(E.forward(truth), 0.01, seed=3, mask=mask)
    G = dense_from_probes(flat_gram(E), 32 * 32)
    ridge = np.linalg.solve(G + gamma * np.eye(32 * 32), E.adjoint(y).data.ravel())
    assert np.linalg.norm(recon.ravel() - ridge) <= 1e-6 * np.linalg.norm(ridge)


def test_invalid_algorithm_exit_code_and_message(tmp_path, dataset, capsys):
    cfg = write_cfg(tmp_path, "[unroll]\nalgorithm = pgd\n")
    assert run_cli("recon", "--config", cfg) == cli.EXIT_CONFIG
    assert "unroll.algorithm" in capsys.readouterr().err


def test_recon_vamp_with_network_prox_is_config_error(tmp_path, dataset, monkeypatch, capsys):
    reads = _count_payload_reads(monkeypatch)
    for net in ("resnet", "unet"):
        cfg = write_cfg(tmp_path, f"[data]\ndir = data\n[model]\nprox = {net}\n"
                                  "[unroll]\nalgorithm = vamp\n")
        for command in ("recon", "eval"):
            assert run_cli(command, "--config", cfg) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert "unroll.algorithm" in err and "model.prox" in err
    # rejected from the config alone, before any payload is read
    assert reads == []
    assert not (tmp_path / "runs").exists()


def test_eval_crop_below_ssim_window_is_config_error(tmp_path, dataset, capsys):
    for crop in (1, 10):
        cfg = write_cfg(tmp_path, f"[data]\ndir = data\n[eval]\ncrop = {crop}\n")
        assert run_cli("eval", "--config", cfg) == cli.EXIT_CONFIG
        assert "eval.crop" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, "[data]\ndir = data\n[eval]\ncrop = 11\n")
    assert run_cli("eval", "--config", cfg) == cli.EXIT_OK
    mean = (tmp_path / "runs" / "eval" / "metrics.csv").read_text().split("\n")[-3]
    assert mean.startswith("mean,") and np.isfinite(float(mean.split(",")[2]))


def test_images_below_ssim_window_are_config_error(tmp_path, monkeypatch, capsys):
    assert run_cli("phantom", "--out", tmp_path / "data", "--size", "8") == 0
    cfg = write_cfg(tmp_path, "[data]\ndir = data\n[model]\nprox = tikhonov\n"
                              "[unroll]\nalgorithm = vsqp\n")
    reads = _count_payload_reads(monkeypatch)
    for command in ("eval", "recon"):
        assert run_cli(command, "--config", cfg) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "data.dir" in err and "11-pixel SSIM window" in err
    # the window is checked against the KTN headers, before any payload
    assert reads == []
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command, prox, algorithm, key, value", [
    ("recon", "resnet", "alg1", "model.channels", "0"),
    ("train", "resnet", "alg1", "model.channels", "0"),
    ("recon", "unet", "alg1", "model.base_channels", "0"),
    ("train", "unet", "alg1", "model.base_channels", "0"),
    ("recon", "tikhonov", "vamp", "unroll.mu_floor", "nan"),
    ("recon", "tikhonov", "alg1", "unroll.mu", "inf"),
    # only the sentinel -1 selects the per-algorithm default
    ("recon", "tikhonov", "vsqp", "unroll.mu", "0"),
    ("recon", "tikhonov", "alg1", "unroll.mu", "-3.5"),
    ("train", "resnet", "alg1", "train.lr", "-inf"),
    # a negative rate trained uphill and exited 0
    ("train", "resnet", "alg1", "train.lr", "-0.05"),
    ("recon", "tikhonov", "alg1", "data.noise_seed", "-1"),
    ("recon", "tikhonov", "alg1", "mask.seed", "-1"),
    ("train", "resnet", "alg1", "model.net_seed", "-1"),
    ("train", "resnet", "alg1", "train.seed", "-1"),
    ("recon", "tikhonov", "alg1", "data.noise_sigma", "-0.01"),
    ("recon", "soft_threshold", "alg1", "model.theta", "-0.05"),
    ("recon", "tikhonov", "alg1", "model.gamma", "-1"),
    ("recon", "tikhonov", "alg1", "mask.accel", "0"),
    ("recon", "tikhonov", "alg1", "unroll.t", "0"),
    ("train", "resnet", "alg1", "unroll.cg_iters", "0"),
    ("recon", "tikhonov", "vamp", "unroll.max_iters", "0"),
    # no longer a key (the probe count is vamp.TRACE_PROBES), so an unknown-key error
    ("recon", "tikhonov", "vamp", "unroll.trace_probes", "0"),
    ("recon", "tikhonov", "vamp", "unroll.damping", "0"),
    ("recon", "tikhonov", "vamp", "unroll.damping", "1.5"),
    ("recon", "tikhonov", "vamp", "unroll.mu_floor", "0"),
    # a zero-block U-Net would feed its output conv the wrong channel count
    ("recon", "unet", "alg1", "model.res_blocks", "0"),
    ("train", "unet", "alg1", "model.res_blocks", "0"),
    # 40 ACS columns on a 32-column image; 9 beyond the random mask's 8-column budget
    ("recon", "tikhonov", "alg1", "mask.acs", "40"),
    pytest.param("recon", "tikhonov", "alg1", "mask.acs", "9\nkind = random",
                 id="recon-tikhonov-alg1-mask.acs-random"),
    ("train", "resnet", "alg1", "mask.acs", "-1"),
    # a negative block count built a block-less ResNet, negative epochs a
    # checkpoint with an empty loss curve
    ("recon", "resnet", "alg1", "model.blocks", "-2"),
    ("train", "resnet", "alg1", "train.epochs", "-3"),
    ("recon", "tikhonov", "alg1", "eval.crop", "-1"),
])
def test_zero_width_or_non_finite_value_is_config_error(tmp_path, dataset, capsys, command,
                                                        prox, algorithm, key, value):
    section, name = key.split(".")
    body = {"data": "dir = data", "model": f"prox = {prox}", "unroll": f"algorithm = {algorithm}"}
    body[section] = body.get(section, "") + f"\n{name} = {value}"
    cfg = write_cfg(tmp_path, "".join(f"[{s}]\n{lines}\n" for s, lines in body.items()))
    assert run_cli(command, "--config", cfg) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "data"
    assert run_cli("phantom", "--out", out, "--size", "16", "--coils", "2", "--count", "2") == 0
    return out


# (section, key, int or float), read off each key's parsed default
NUMERIC_KEYS = [(section, key, type(parse(default, key)))
                for section, keys in SCHEMA.items()
                for key, (parse, default) in keys.items()
                if isinstance(parse(default, key), (int, float))]
SETUPS = [("recon", "tikhonov", "alg1"), ("recon", "soft_threshold", "vamp"),
          ("recon", "resnet", "admm_te"), ("recon", "unet", "vsqp"),
          ("train", "resnet", "alg1"), ("train", "unet", "admm")]
SMALL_REALS = [-1.0, 0.0, 0.5, 1.0, 2.0, math.nan, math.inf, -math.inf]
# keys that 0 leaves legal but no negative does
NON_NEGATIVE_KEYS = [("model", "blocks"), ("train", "epochs"), ("train", "lr"), ("eval", "crop")]


@settings(max_examples=60, deadline=None)
@given(setup=st.sampled_from(SETUPS), data=st.data())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_config_fuzz_ends_with_a_documented_exit_code(small_dataset, setup, data):
    command, prox, algorithm = setup
    values = {("data", "dir"): small_dataset, ("model", "prox"): prox,
              ("unroll", "algorithm"): algorithm, ("model", "channels"): 2,
              ("model", "base_channels"): 2, ("unroll", "t"): 2, ("unroll", "max_iters"): 3,
              ("train", "epochs"): 1}
    drawn = data.draw(st.lists(st.sampled_from(NUMERIC_KEYS), min_size=1, max_size=3,
                               unique=True))
    for section, key, kind in drawn:
        values[section, key] = data.draw(
            st.integers(-1, 3) if kind is int else st.sampled_from(SMALL_REALS))
    if data.draw(st.booleans()):
        values[data.draw(st.sampled_from(NON_NEGATIVE_KEYS))] = data.draw(st.integers(-3, -1))
    with tempfile.TemporaryDirectory() as tmp:
        values["unroll", "out"] = values["train", "out"] = values["eval", "out"] = tmp
        sections = {}
        for (section, key), value in values.items():
            sections.setdefault(section, []).append(f"{key} = {value}\n")
        path = os.path.join(tmp, "fuzz.ini")
        with open(path, "w") as fh:
            fh.writelines(f"[{s}]\n" + "".join(lines) for s, lines in sections.items())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(command, "--config", path)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC)
    if code == cli.EXIT_CONFIG:
        assert any(f"{s}.{k}" in err.getvalue() for s in SCHEMA for k in SCHEMA[s]), err.getvalue()
    if any(isinstance(v, float) and not math.isfinite(v) for v in values.values()):
        assert code == cli.EXIT_CONFIG
    if any(values.get(key, 0) < 0 for key in NON_NEGATIVE_KEYS):
        assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("command", ["recon", "train"])
def test_negative_seed_flag_is_config_error(tmp_path, dataset, capsys, command):
    cfg = write_cfg(tmp_path, "[data]\ndir = data\n[model]\nprox = resnet\n")
    assert run_cli("--seed", "-1", command, "--config", cfg) == cli.EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    # a subcommand's own --seed is checked the same way
    assert run_cli("phantom", "--out", tmp_path / "p", "--seed", "-2") == cli.EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_seed_flag_sets_the_recon_noise_seed(tmp_path, dataset):
    body = ("[data]\ndir = data\nnoise_seed = {seed}\n[model]\nprox = tikhonov\n"
            "[unroll]\nalgorithm = vsqp\nt = 2\nout = {out}\n")
    for out, seed, flag in (("flag", 0, ["--seed", "7"]), ("key", 7, []), ("base", 0, [])):
        cfg = write_cfg(tmp_path, body.format(seed=seed, out=out), name=f"{out}.ini")
        assert run_cli(*flag, "recon", "--config", cfg) == cli.EXIT_OK
    for name in ("recon.ktn", "diagnostics.csv", "metrics.csv"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "key" / name).read_bytes()
    assert (tmp_path / "flag" / "recon.ktn").read_bytes() != (
        tmp_path / "base" / "recon.ktn").read_bytes()
    assert load_config(tmp_path / "flag" / "config.echo.ini")["data"]["noise_seed"] == 7


def test_seed_flag_sets_the_train_seed(tmp_path):
    assert run_cli("phantom", "--out", tmp_path / "data", "--size", "16", "--coils", "2",
                   "--count", "4") == 0
    body = ("[data]\ndir = data\n[mask]\naccel = 2\n[model]\nprox = resnet\nblocks = 1\n"
            "channels = 4\n[unroll]\nalgorithm = alg1\nt = 2\ncg_iters = 5\n"
            "[train]\nepochs = 1\nseed = {seed}\nout = {out}\n")
    for out, seed, flag in (("flag", 0, ["--seed", "7"]), ("key", 7, []), ("base", 0, [])):
        cfg = write_cfg(tmp_path, body.format(seed=seed, out=out), name=f"{out}.ini")
        assert run_cli(*flag, "train", "--config", cfg) == cli.EXIT_OK

    def artifacts(out):
        ckpt = tmp_path / out / "checkpoint"
        return [(tmp_path / out / "loss.csv").read_bytes()] + [
            f.read_bytes() for f in sorted(ckpt.iterdir())]

    assert artifacts("flag") == artifacts("key")
    assert artifacts("flag") != artifacts("base")
    assert load_config(tmp_path / "flag" / "config.echo.ini")["train"]["seed"] == 7


def test_zero_learning_rate_is_legal(tmp_path):
    # like epochs = 0, lr = 0 leaves the weights where they start
    cfg = write_cfg(tmp_path, "[train]\nlr = 0\n")
    assert load_config(cfg)["train"]["lr"] == 0.0


def test_unknown_key_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "[unroll]\nwarp_speed = 9\n")
    with pytest.raises(ConfigError, match="unroll.warp_speed"):
        load_config(cfg)
    # the Hutchinson probe count is vamp.TRACE_PROBES, not a key
    cfg1 = write_cfg(tmp_path, "[unroll]\nalgorithm = vamp\ntrace_probes = 0\n",
                     name="exp1.ini")
    with pytest.raises(ConfigError, match="unknown key unroll.trace_probes"):
        load_config(cfg1)
    cfg2 = write_cfg(tmp_path, "[warp]\nx = 1\n", name="exp2.ini")
    with pytest.raises(ConfigError, match=r"\[warp\]"):
        load_config(cfg2)


def test_path_keys_and_no_others_resolve_against_the_config_directory(tmp_path):
    """A key is a path exactly when its parser is ``_path``; a relative one
    resolves against the config file's directory, an absolute one stays."""
    sub = tmp_path / "sub"
    sub.mkdir()
    raw = {("data", "dir"): "data", ("model", "checkpoint"): "../runs/ckpt",
           ("unroll", "out"): "out", ("train", "out"): "t/./run",
           ("eval", "out"): str(tmp_path / "abs_eval")}
    assert [(s, k) for s, keys in SCHEMA.items() for k, (parse, _) in keys.items()
            if parse is _path] == list(raw)
    strings = {("mask", "kind"): "random", ("model", "prox"): "resnet",
               ("unroll", "algorithm"): "admm", ("unroll", "sharing"): "unshared"}
    sections = {}
    for (section, key), value in {**raw, **strings}.items():
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    cfg = load_config(write_cfg(sub, "".join(
        f"[{s}]\n" + "".join(lines) for s, lines in sections.items())))
    for (section, key), value in raw.items():
        assert cfg[section][key] == os.path.normpath(os.path.join(sub, value))
    for (section, key), value in strings.items():
        assert cfg[section][key] == value
    # defaults: the data dir is the config's own, and an unset checkpoint stays empty
    cfg = load_config(write_cfg(sub, "[model]\nprox = resnet\n", name="defaults.ini"))
    assert cfg["data"]["dir"] == str(sub)
    assert cfg["unroll"]["out"] == str(sub / "runs" / "recon")
    assert cfg["model"]["checkpoint"] == ""
    assert cfg["model"]["prox"] == "resnet"


def test_readme_config_schema_lists_exactly_the_schema_keys():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    block = readme.split("## Config schema", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    documented = {}
    section = None
    for line in block.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
            documented[section] = []
        elif line and not line[0].isspace() and not line.startswith(";"):
            documented[section].append(line.split("=", 1)[0].strip())
    assert documented == {s: list(keys) for s, keys in SCHEMA.items()}


def test_recon_determinism_and_echo_round_trip(tmp_path, dataset):
    body = """
[data]
dir = data
index = 1
[model]
prox = tikhonov
[unroll]
algorithm = vsqp
t = 4
sharing = shared
out = out_a
"""
    cfg = write_cfg(tmp_path, body)
    assert run_cli("recon", "--config", cfg) == 0
    first = (tmp_path / "out_a" / "recon.ktn").read_bytes()
    assert run_cli("recon", "--config", cfg) == 0
    assert (tmp_path / "out_a" / "recon.ktn").read_bytes() == first

    # re-running from the echoed config reproduces the output bytes
    echo = tmp_path / "out_a" / "config.echo.ini"
    echoed = load_config(echo)
    assert echoed["unroll"]["algorithm"] == "vsqp"
    assert run_cli("recon", "--config", echo) == 0
    assert (tmp_path / "out_a" / "recon.ktn").read_bytes() == first


def test_eval_ground_truth_sentinel(tmp_path, dataset, monkeypatch):
    cfg = write_cfg(tmp_path, """
[data]
dir = data
[model]
prox = identity
[unroll]
algorithm = vsqp
t = 1
sharing = shared
[eval]
out = out_eval
""")
    config = load_config(cfg)

    def fake_reconstructor(cfg_, E):
        slices = iter(images)
        return lambda y, reference=None: (next(slices), None)

    files, sens_path, _ = cli._scan_dataset(config["data"]["dir"])
    images, _ = cli._read_dataset(files, sens_path)
    monkeypatch.setattr(cli, "_reconstructor", fake_reconstructor)
    assert run_cli("eval", "--config", cfg) == 0
    lines = (tmp_path / "out_eval" / "metrics.csv").read_text().strip().split("\n")
    per_slice = [l for l in lines[1:] if l.split(",")[0].isdigit()]
    assert len(per_slice) == 3
    for line in per_slice:
        _, psnr_s, ssim_s, nmse_s = line.split(",")
        assert float(psnr_s) == float("inf")
        assert float(ssim_s) == 1.0
        assert float(nmse_s) == 0.0


def test_eval_summary_consistent_with_rows(tmp_path, dataset):
    cfg = write_cfg(tmp_path, """
[data]
dir = data
[model]
prox = tikhonov
gamma = 0.5
[unroll]
algorithm = vsqp
t = 3
sharing = shared
[eval]
out = out_eval2
""")
    assert run_cli("eval", "--config", cfg) == 0
    lines = (tmp_path / "out_eval2" / "metrics.csv").read_text().strip().split("\n")
    rows = [list(map(float, l.split(",")[1:])) for l in lines[1:] if l.split(",")[0].isdigit()]
    arr = np.array(rows)
    mean_line = [l for l in lines if l.startswith("mean,")][0]
    std_line = [l for l in lines if l.startswith("std,")][0]
    mean_vals = list(map(float, mean_line.split(",")[1:]))
    std_vals = list(map(float, std_line.split(",")[1:]))
    np.testing.assert_allclose(arr.mean(axis=0), mean_vals, atol=1e-10)
    np.testing.assert_allclose(arr.std(axis=0), std_vals, atol=1e-10)


def test_vamp_eval_sets_up_once_and_scores_each_slice_as_its_own_set_up_would(
        tmp_path, monkeypatch):
    """VAMP's set-up depends on E alone: an eval over 4 slices makes one,
    and each slice's row is byte for byte that of a run with its own."""
    data = tmp_path / "data"
    assert run_cli("phantom", "--out", data, "--size", "32", "--coils", "4",
                   "--count", "4") == 0
    path = write_cfg(tmp_path, """
[data]
dir = data
[model]
prox = soft_threshold
[unroll]
algorithm = vamp
[eval]
out = out_vamp
""")
    setups = []
    as_vamp_operator = cli.as_vamp_operator

    def counted(E):
        setups.append(E)
        return as_vamp_operator(E)

    monkeypatch.setattr(cli, "as_vamp_operator", counted)
    assert run_cli("eval", "--config", path) == 0
    assert len(setups) == 1
    lines = (tmp_path / "out_vamp" / "metrics.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "mean", "std"]

    cfg = load_config(path)
    images, sens = cli._read_dataset(*cli._scan_for_reconstruction(cfg))
    E = sm.EncodingOperator(cli._build_mask(cfg, images[0].data.shape), sens)
    for i, truth in enumerate(images):
        recon, _ = cli._reconstructor(cfg, E)(cli._measure(E, truth, cfg, i))
        row = Diagnostics(("slice",) + cli.METRIC_COLUMNS)
        row.record(i, *cli._metric_row(truth, recon, cfg["eval"]["crop"]))
        assert row.to_csv().splitlines()[1] == lines[1 + i]
    assert len(setups) == 1 + len(images)


def test_train_cli_round_trip(tmp_path):
    data = tmp_path / "data"
    assert run_cli("phantom", "--out", data, "--size", "16", "--coils", "2",
                   "--count", "4") == 0
    body = """
[data]
dir = data
noise_sigma = 0.01
[mask]
accel = 2
acs = 4
[model]
prox = resnet
blocks = 1
channels = 4
[unroll]
algorithm = alg1
t = 2
cg_iters = 8
sharing = time_embedded
[train]
epochs = {epochs}
lr = 5e-4
seed = 0
out = {out}
[eval]
out = {out}/eval
"""
    cfg0 = write_cfg(tmp_path, body.format(epochs=0, out="run0"), name="t0.ini")
    assert run_cli("train", "--config", cfg0) == 0
    cfg0b = write_cfg(tmp_path, body.format(epochs=0, out="run0b"), name="t0b.ini")
    assert run_cli("train", "--config", cfg0b) == 0
    m0 = (tmp_path / "run0" / "checkpoint" / "manifest.txt").read_text()
    m0b = (tmp_path / "run0b" / "checkpoint" / "manifest.txt").read_text()
    assert m0 == m0b
    for line in m0.strip().split("\n"):
        fname = line.split("\t")[-1]
        assert (tmp_path / "run0" / "checkpoint" / fname).read_bytes() == (
            tmp_path / "run0b" / "checkpoint" / fname
        ).read_bytes()

    cfg3 = write_cfg(tmp_path, body.format(epochs=3, out="run3"), name="t3.ini")
    assert run_cli("train", "--config", cfg3) == 0
    loss_lines = (tmp_path / "run3" / "loss.csv").read_text().strip().split("\n")[1:]
    losses = [float(l.split(",")[1]) for l in loss_lines]
    assert losses[-1] < losses[0]

    # identical seed reproduces checkpoint bytes
    cfg3b = write_cfg(tmp_path, body.format(epochs=3, out="run3b"), name="t3b.ini")
    assert run_cli("train", "--config", cfg3b) == 0
    for line in (tmp_path / "run3" / "checkpoint" / "manifest.txt").read_text().strip().split("\n"):
        fname = line.split("\t")[-1]
        assert (tmp_path / "run3" / "checkpoint" / fname).read_bytes() == (
            tmp_path / "run3b" / "checkpoint" / fname
        ).read_bytes()

    # evaluate the trained checkpoint over the dataset
    cfg_eval = write_cfg(tmp_path, body.format(epochs=3, out="run3").replace(
        "[model]\n", "[model]\ncheckpoint = run3/checkpoint\n"), name="e3.ini")
    assert run_cli("eval", "--config", cfg_eval) == 0
    # model.checkpoint is the one spelling: eval has no --checkpoint flag
    with pytest.raises(SystemExit):
        run_cli("eval", "--config", cfg_eval, "--checkpoint", tmp_path / "run3" / "checkpoint")
    lines = (tmp_path / "run3" / "eval" / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == "slice,psnr_db,ssim,nmse"
    assert len([l for l in lines[1:] if l.split(",")[0].isdigit()]) == 4


def test_train_rejects_vamp_and_analytic_prox(tmp_path, dataset):
    cfg = write_cfg(tmp_path, "[data]\ndir = data\n[unroll]\nalgorithm = vamp\n")
    assert run_cli("train", "--config", cfg) == cli.EXIT_CONFIG
    cfg2 = write_cfg(tmp_path, "[data]\ndir = data\n[model]\nprox = tikhonov\n",
                     name="t2.ini")
    assert run_cli("train", "--config", cfg2) == cli.EXIT_CONFIG


def test_checkpoint_architecture_mismatch(tmp_path, capsys):
    data = tmp_path / "data"
    assert run_cli("phantom", "--out", data, "--size", "16", "--coils", "2",
                   "--count", "1") == 0
    body = """
[data]
dir = data
[mask]
accel = 2
[model]
prox = resnet
blocks = 1
channels = {channels}
checkpoint = {ckpt}
[unroll]
algorithm = {algorithm}
t = 3
sharing = {sharing}
out = out_mismatch
[train]
epochs = 0
out = trained
[eval]
out = eval_mismatch
"""

    def cfg(name, channels=4, ckpt="trained/checkpoint", algorithm="alg1",
            sharing="time_embedded"):
        return write_cfg(tmp_path, body.format(channels=channels, ckpt=ckpt,
                                               algorithm=algorithm, sharing=sharing),
                         name=name)

    assert run_cli("train", "--config", cfg("a.ini", ckpt="")) == 0
    assert run_cli("recon", "--config", cfg("same.ini")) == 0
    capsys.readouterr()
    # wrong width; alg1's rho_t loaded as vsqp_te; time and FiLM weights
    # loaded into a static network: every one is a config error
    assert run_cli("recon", "--config", cfg("b.ini", channels=8)) == cli.EXIT_CONFIG
    assert run_cli("eval", "--config", cfg("c.ini", algorithm="vsqp_te")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    # both extra names are listed, plainly and without a trailing "..."
    assert "rho.0000, rho.0001" in err and "\\'" not in err
    assert not err.rstrip().endswith("...")
    assert run_cli("recon", "--config", cfg("d.ini", sharing="shared")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "model.checkpoint" in err and "net.block0.film.alpha.b" in err


@pytest.mark.parametrize("corrupt", ["complex_file", "manifest_shape"])
def test_checkpoint_file_must_match_its_manifest(tmp_path, capsys, corrupt):
    """A parameter file whose dtype or shape is not the one its manifest
    line records is a config error naming the parameter; a complex file
    would otherwise load as its real part."""
    assert run_cli("phantom", "--out", tmp_path / "data", "--size", "16", "--coils", "2",
                   "--count", "1") == 0
    body = """
[data]
dir = data
[model]
prox = resnet
blocks = 1
channels = 4
checkpoint = {ckpt}
[unroll]
algorithm = vsqp
t = 2
out = out_bad
[train]
epochs = 0
out = trained
[eval]
out = eval_bad
"""
    assert run_cli("train", "--config", write_cfg(tmp_path, body.format(ckpt=""))) == 0
    ckpt = tmp_path / "trained" / "checkpoint"
    manifest = ckpt / "manifest.txt"
    name, shape, _, fname = manifest.read_text().split("\n")[0].split("\t")
    if corrupt == "complex_file":
        arr = ktn.read_ktn(ckpt / fname)
        ktn.write_ktn(ckpt / fname, arr.astype(np.complex128))
    else:
        text = manifest.read_text()
        manifest.write_text(text.replace(f"{name}\t{shape}\t", f"{name}\t1x{shape}\t", 1))
    capsys.readouterr()
    cfg = write_cfg(tmp_path, body.format(ckpt="trained/checkpoint"), name="bad.ini")
    for command in ("recon", "eval"):
        assert run_cli(command, "--config", cfg) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "model.checkpoint" in err and name in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_checkpoint_is_numeric_failure(tmp_path, capsys):
    """A NaN network bias makes the first unroll's prox output non-finite;
    the next CG solve stops the run as a numeric failure (exit 3)."""
    assert run_cli("phantom", "--out", tmp_path / "data", "--size", "16", "--coils", "2",
                   "--count", "1") == 0
    body = """
[data]
dir = data
[model]
prox = resnet
blocks = 1
channels = 4
checkpoint = {ckpt}
[unroll]
algorithm = alg1
t = 2
sharing = time_embedded
out = out_nan
[train]
epochs = 0
out = trained
[eval]
out = eval_nan
"""
    assert run_cli("train", "--config", write_cfg(tmp_path, body.format(ckpt=""))) == 0
    ckpt = tmp_path / "trained" / "checkpoint"
    state = load_checkpoint(ckpt)
    state["net.conv_out.b"][0] = np.nan
    save_checkpoint(ckpt, state)
    cfg = write_cfg(tmp_path, body.format(ckpt="trained/checkpoint"), name="nan.ini")
    for command in ("recon", "eval"):
        assert run_cli(command, "--config", cfg) == cli.EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err
    assert not (tmp_path / "out_nan").exists() and not (tmp_path / "eval_nan").exists()


def test_missing_dataset_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[data]\ndir = nowhere\n")
    assert run_cli("recon", "--config", cfg) == cli.EXIT_CONFIG
    assert "img_*.ktn" in capsys.readouterr().err


def test_truncated_ktn_header_is_config_error(tmp_path, dataset, capsys):
    (dataset / "img_0000.ktn").write_bytes(b"KTN1\x01\x00")
    cfg = write_cfg(tmp_path, "[data]\ndir = data\n")
    assert run_cli("recon", "--config", cfg) == cli.EXIT_CONFIG
    assert "truncated header" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_image_shape_differing_from_sens_is_config_error(tmp_path, dataset, capsys):
    # one 24x24 slice among 32x32 ones: every command that reads the data
    # dir stops before building an operator, even recon of another slice
    odd = sm.make_phantom(24, 24, 6, seed=0)
    ktn.write_ktn(dataset / "img_0001.ktn", odd.data)
    cfg = write_cfg(tmp_path, "[data]\ndir = data\nindex = 0\n")
    for command in ("recon", "eval"):
        assert run_cli(command, "--config", cfg) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "data.dir" in err and "img_0001.ktn" in err, err
        assert "(24, 24)" in err and "(32, 32)" in err, err
    assert not (tmp_path / "runs").exists()


# (what breaks the run, the text its message must hold); each case is set
# up by _break below on a fresh 32x32 dataset and config
BROKEN_INPUTS = [
    ("unparsed_value", "unroll.t"),
    ("missing_config", "absent.ini"),
    ("no_section_headers", "exp.ini"),
    ("no_sens", "sens.ktn"),
    ("sens_2d", "sens.ktn"),
    ("dtype_code_9", "img_0001.ktn"),
]


def _break(case, tmp_path, data):
    """The config path of one broken setup."""
    if case == "missing_config":
        return tmp_path / "absent.ini"
    if case == "unparsed_value":
        return write_cfg(tmp_path, "[data]\ndir = data\n[unroll]\nt = five\n")
    if case == "no_section_headers":
        return write_cfg(tmp_path, "dir = data\n")
    if case == "no_sens":
        (data / "sens.ktn").unlink()
    elif case == "sens_2d":
        ktn.write_ktn(data / "sens.ktn", np.ones((32, 32), dtype=np.complex128))
    else:
        img = data / "img_0001.ktn"
        raw = bytearray(img.read_bytes())
        raw[4:8] = (9).to_bytes(4, "little")  # the u32 dtype code after the magic
        img.write_bytes(bytes(raw))
    return write_cfg(tmp_path, "[data]\ndir = data\n")


@pytest.mark.parametrize("case, named", BROKEN_INPUTS)
def test_broken_config_or_data_exits_2_naming_the_key_or_file(tmp_path, dataset, capsys,
                                                               case, named):
    cfg = _break(case, tmp_path, dataset)
    assert run_cli("recon", "--config", cfg) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err, err
    assert not (tmp_path / "runs").exists()


def _count_payload_reads(monkeypatch):
    """Record the file name of every ``ktn.read_ktn`` call, i.e. every payload read."""
    reads = []
    read_ktn = ktn.read_ktn

    def counting(path):
        reads.append(os.path.basename(path))
        return read_ktn(path)

    monkeypatch.setattr(ktn, "read_ktn", counting)
    return reads


def test_recon_reads_the_payload_of_its_slice_and_the_maps_only(tmp_path, monkeypatch):
    assert run_cli("phantom", "--out", tmp_path / "data", "--size", "16", "--count", "8") == 0
    cfg = write_cfg(tmp_path, "[data]\ndir = data\nindex = 5\n[model]\nprox = tikhonov\n"
                              "[unroll]\nalgorithm = vsqp\nt = 2\n")
    reads = _count_payload_reads(monkeypatch)
    assert run_cli("recon", "--config", cfg) == cli.EXIT_OK
    assert sorted(reads) == ["img_0005.ktn", "sens.ktn"]


def test_recon_index_out_of_range_exits_before_any_payload_is_read(tmp_path, monkeypatch,
                                                                    capsys):
    assert run_cli("phantom", "--out", tmp_path / "data", "--size", "16", "--count", "8") == 0
    cfg = write_cfg(tmp_path, "[data]\ndir = data\nindex = 8\n")
    reads = _count_payload_reads(monkeypatch)
    assert run_cli("recon", "--config", cfg) == cli.EXIT_CONFIG
    assert "data.index" in capsys.readouterr().err
    assert reads == []
    assert not (tmp_path / "runs").exists()
