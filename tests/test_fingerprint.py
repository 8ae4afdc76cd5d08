"""Committed numbers that a "same numbers, less code" change must keep.

Training: one step of the benchmark's time-embedded model.  The step is
the one ``perfbench``'s ``train-te-32`` workload repeats eight times per
epoch: alg1 with T=5 unrolls and a 15-iteration taped CG, one
time-embedded 3x16 ResNet prox, on a 32x32 phantom seen by 4 coils with
equispaced R=4 sampling.  The loss and each parameter group's gradient
norm were recorded from the engine before its ops were rewritten as one
backward closure each; a change to the tape, the networks or the taped
physics that alters any of them fails here.  The same step also mirrors
the traced benchmark's counts, so a change in the number of tape nodes,
taped Gram applies or conv calls fails the suite and not only a
``--trace 1`` run.

Inference: ``TrainableEngine.run`` for every algorithm, sharing mode and network
at T=2 on a 16x16 and a 16x24 problem, and ``run_vamp``'s diagnostics on
an encoding operator and on a dense matrix.  The values were recorded
before the VAMP half-steps and the reference NMSE were rewritten; they
hold to 1e-12 relative.

Command line: every row of the CSVs that ``recon``, ``eval`` and
``train`` write at 16x16, recorded before ``run_unrolled`` took
per-unroll scalars and one prox; they hold to 1e-12 relative, the
training loss curve to 1e-10.  The checkpoint of a 1-epoch ``train`` at
16x16: its manifest's names and shapes exactly, and each parameter's norm
to 1e-10 relative, recorded before inference stopped making the last
unroll's network call and checking every CG Gram apply.
"""

import numpy as np
import pytest

from teunroll import linops, prox, unroll, vamp
from teunroll import signal_model as sm
from teunroll.nn import TrainableEngine
from teunroll.nn import engine as en
from teunroll.nn.networks import complex_to_channels

from oracles import dense_vamp_operator

T = 5
CG_ITERS = 15
RTOL = 1e-10

LOSS = 0.19856561805199593
# sqrt of the summed squared gradients of each layer's weight and bias
# (the mu and rho groups are the per-unroll scalars)
GRAD_NORMS = {
    "net.conv_in": 0.6724802512460428,
    "net.block0.conv1": 0.3030514095495633,
    "net.block0.conv2": 0.22274397240792765,
    "net.block1.conv1": 0.2390835711139286,
    "net.block1.conv2": 0.25975545608002093,
    "net.block2.conv1": 0.3649878368137376,
    "net.block2.conv2": 0.23391969046057565,
    "net.conv_out": 2.333603716549269,
    # zero-initialized FiLM heads pass no gradient back to the time MLP
    "net.time.fc1": 0.0,
    "net.time.fc2": 0.0,
    "net.block0.film.alpha": 0.0337180093898766,
    "net.block0.film.beta": 0.03273083353113633,
    "net.block1.film.alpha": 0.0422371271158261,
    "net.block1.film.beta": 0.03174374608572239,
    "net.block2.film.alpha": 0.05923908343838126,
    "net.block2.film.beta": 0.03188741315611977,
    "mu": 5.977739152937481,
    "rho": 0.22478079562691625,
}
# every parameter reaches the final CG output: the engine keeps the last
# unroll's Onsager weight as a constant, not as a parameter
NO_GRADIENT = []

TAPE_NODES = 1157
GRAM_TAPE_CALLS = T * CG_ITERS  # 600 over the benchmark's 8-sample epoch
CONV_CALLS = (T - 1) * 8  # 8 convs per ResNet call; 256 per epoch


@pytest.fixture(scope="module")
def step():
    sens = sm.make_smooth_sensitivities(32, 32, 4, seed=0)
    truth = sm.make_phantom(32, 32, 6, seed=0)
    mask = sm.make_equispaced_mask(32, 32, 4, 4)
    E = sm.EncodingOperator(mask, sens)
    y = sm.add_noise(E.forward(truth), 0.01, seed=0, mask=mask)
    engine = TrainableEngine("alg1", T=T, cg_iters=CG_ITERS, sharing="time_embedded",
                             arch="resnet", blocks=3, channels=16)
    calls = {"linear_selfadjoint": 0, "conv2d": 0}

    def counted(name):
        op = getattr(en, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return op(*args, **kwargs)

        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(en, name, counted(name))
        with en.Tape() as tape:
            loss = en.mse(engine.forward(E, y), en.Tensor(complex_to_channels(truth.data)))
        tape.backward(loss)
    return float(loss.data), engine.parameters(), len(tape.nodes), calls


def test_step_loss_and_gradient_norms_match_recorded(step):
    loss, params, _, _ = step
    assert abs(loss - LOSS) <= RTOL * LOSS
    assert [name for name, t in params.items() if t.grad is None] == NO_GRADIENT
    sums = {}
    for name, t in params.items():
        if t.grad is not None:
            group = name.rsplit(".", 1)[0]
            sums[group] = sums.get(group, 0.0) + float(np.sum(t.grad**2))
    assert sums.keys() == GRAD_NORMS.keys()
    for group, want in GRAD_NORMS.items():
        got = np.sqrt(sums[group])
        assert abs(got - want) <= RTOL * want, (group, got, want)


def test_step_tape_counts_match_the_traced_benchmark(step):
    _, _, nodes, calls = step
    assert nodes == TAPE_NODES
    assert calls == {"linear_selfadjoint": GRAM_TAPE_CALLS, "conv2d": CONV_CALLS}


def test_recon_gram_counts_match_the_traced_benchmark():
    """The Gram and CG counts that ``perfbench``'s recon workloads check
    under ``--trace 1``, on the same 32x32, 4-coil, R=4 problem: VAMP's
    exact-trace set-up probes the checked ``E.normal`` once per pixel and
    every other Gram apply is a CG iteration; alg1 with T=5 and CG-15 makes
    one Gram apply per CG iteration, one solve and one prox call per unroll."""
    sens = sm.make_smooth_sensitivities(32, 32, 4, seed=0)
    truth = sm.make_phantom(32, 32, 6, seed=0)
    mask = sm.make_equispaced_mask(32, 32, 4, 4)
    E = sm.EncodingOperator(mask, sens)
    y = sm.add_noise(E.forward(truth), 0.01, seed=0, mask=mask)
    counts = dict.fromkeys(("normal", "normal_array", "cg_calls", "cg_iters", "prox"), 0)
    solve = linops.cg_solve
    soft = prox.soft_threshold_prox(0.05)

    def counted(name):
        method = getattr(sm.EncodingOperator, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        return call

    def counted_cg(A, b, **kwargs):
        x, report = solve(A, b, **kwargs)
        counts["cg_calls"] += 1
        counts["cg_iters"] += report.iterations_run
        return x, report

    def counted_prox(img, t):
        counts["prox"] += 1
        return soft.apply(img)

    with pytest.MonkeyPatch.context() as mp:
        for name in ("normal", "normal_array"):
            mp.setattr(sm.EncodingOperator, name, counted(name))
        for module in (linops, unroll, vamp):
            mp.setattr(module, "cg_solve", counted_cg)
        op = vamp.as_vamp_operator(E)
        assert counts == {"normal": 32 * 32, "normal_array": 32 * 32, "cg_calls": 0,
                          "cg_iters": 0, "prox": 0}
        vamp.run_vamp(op, E.adjoint(y).data, soft, vamp.VampConfig(max_iters=20, cg_iters=50))
        assert counts["normal"] == 32 * 32
        assert counts["normal_array"] == 32 * 32 + counts["cg_iters"]
        assert counts["cg_calls"] == 20

        counts.update(dict.fromkeys(counts, 0))
        unroll.run_unrolled("alg1", E, y, [1.5e-2] * T, counted_prox, rho=[0.1] * T,
                            cg_iters=CG_ITERS)
        assert counts["normal"] == 0
        assert 0 < counts["normal_array"] == counts["cg_iters"] <= T * CG_ITERS
        assert counts["cg_calls"] == counts["prox"] == T


# -- inference ---------------------------------------------------------------

INFERENCE_RTOL = 1e-12
INFERENCE_T = 2
ARCHS = {"resnet": {"blocks": 1, "channels": 4}, "unet": {"base_channels": 4, "res_blocks": 1}}

# (algorithm, sharing, network, shape): the output's norm, then per unroll
# (cg_residual, x_u_nmse, nmse_vs_ref).  With T=2 only the first unroll's
# network reaches the output, so unshared equals shared.
UNROLLED = {
    ("vsqp", "shared", "resnet", (16, 16)):
        (9.20323003000023, (1.435029550067155e-07, None, 0.001844525807902672),
         (1.6481079766238118e-07, None, 0.017201022607162345)),
    ("vsqp", "unshared", "resnet", (16, 16)):
        (9.20323003000023, (1.435029550067155e-07, None, 0.001844525807902672),
         (1.6481079766238118e-07, None, 0.017201022607162345)),
    ("vsqp", "time_embedded", "resnet", (16, 16)):
        (9.195374519466474, (1.435029550067155e-07, None, 0.001844525807902672),
         (1.6454995618864287e-07, None, 0.017428219618207366)),
    ("admm", "shared", "resnet", (16, 16)):
        (9.611710721712855, (5.811179036639826e-07, None, 0.0013898546769067668),
         (5.585845863748325e-07, None, 0.0034916343594175465)),
    ("admm", "unshared", "resnet", (16, 16)):
        (9.611710721712855, (5.811179036639826e-07, None, 0.0013898546769067668),
         (5.585845863748325e-07, None, 0.0034916343594175465)),
    ("admm", "time_embedded", "resnet", (16, 16)):
        (9.608903932691357, (5.811179036639826e-07, None, 0.0013898546769067668),
         (5.520655775073782e-07, None, 0.003519131137427334)),
    ("alg1", "shared", "resnet", (16, 16)):
        (9.63401139989792, (5.811179036639826e-07, 0.0001992384745157736, 0.0013898546769067668),
         (5.650469599947712e-07, 0.0458240010579681, 0.0032293636141294824)),
    ("alg1", "unshared", "resnet", (16, 16)):
        (9.63401139989792, (5.811179036639826e-07, 0.0001992384745157736, 0.0013898546769067668),
         (5.650469599947712e-07, 0.0458240010579681, 0.0032293636141294824)),
    ("alg1", "time_embedded", "resnet", (16, 16)):
        (9.631458135747717, (5.811179036639826e-07, 0.0001992384745157736, 0.0013898546769067668),
         (5.59451313280402e-07, 0.04675566322966592, 0.0032523851132432256)),
    ("vsqp_te", "shared", "resnet", (16, 16)):
        (9.631525761714471, (5.811179036639826e-07, None, 0.0013898546769067668),
         (5.59834615114556e-07, None, 0.0031229323857370995)),
    ("vsqp_te", "unshared", "resnet", (16, 16)):
        (9.631525761714471, (5.811179036639826e-07, None, 0.0013898546769067668),
         (5.59834615114556e-07, None, 0.0031229323857370995)),
    ("vsqp_te", "time_embedded", "resnet", (16, 16)):
        (9.628967925355322, (5.811179036639826e-07, None, 0.0013898546769067668),
         (5.538741377016946e-07, None, 0.003145646337724015)),
    ("admm_te", "shared", "resnet", (16, 16)):
        (9.611710721712855, (5.811179036639826e-07, None, 0.0013898546769067668),
         (5.585845863748325e-07, None, 0.0034916343594175465)),
    ("admm_te", "unshared", "resnet", (16, 16)):
        (9.611710721712855, (5.811179036639826e-07, None, 0.0013898546769067668),
         (5.585845863748325e-07, None, 0.0034916343594175465)),
    ("admm_te", "time_embedded", "resnet", (16, 16)):
        (9.608903932691357, (5.811179036639826e-07, None, 0.0013898546769067668),
         (5.520655775073782e-07, None, 0.003519131137427334)),
    ("vsqp", "shared", "unet", (16, 16)):
        (10.723085687637422, (1.435029550067155e-07, None, 0.001844525807902672),
         (7.547357453718261e-07, None, 0.2194880069088917)),
    ("vsqp", "unshared", "unet", (16, 16)):
        (10.723085687637422, (1.435029550067155e-07, None, 0.001844525807902672),
         (7.547357453718261e-07, None, 0.2194880069088917)),
    ("vsqp", "time_embedded", "unet", (16, 16)):
        (10.426583227718313, (1.435029550067155e-07, None, 0.001844525807902672),
         (5.074360859631828e-07, None, 0.14098263717699275)),
    ("admm", "shared", "unet", (16, 16)):
        (9.924747544103658, (5.811179036639826e-07, None, 0.0013898546769067668),
         (1.3691328575632687e-06, None, 0.03058086772254004)),
    ("admm", "unshared", "unet", (16, 16)):
        (9.924747544103658, (5.811179036639826e-07, None, 0.0013898546769067668),
         (1.3691328575632687e-06, None, 0.03058086772254004)),
    ("admm", "time_embedded", "unet", (16, 16)):
        (9.89511124751738, (5.811179036639826e-07, None, 0.0013898546769067668),
         (1.1274360933635679e-06, None, 0.019505743275474528)),
    ("alg1", "shared", "unet", (16, 16)):
        (9.899785917196171, (5.811179036639826e-07, 0.0001992384745157736, 0.0013898546769067668),
         (1.2853892443726807e-06, 0.35480568154576164, 0.025427009263082702)),
    ("alg1", "unshared", "unet", (16, 16)):
        (9.899785917196171, (5.811179036639826e-07, 0.0001992384745157736, 0.0013898546769067668),
         (1.2853892443726807e-06, 0.35480568154576164, 0.025427009263082702)),
    ("alg1", "time_embedded", "unet", (16, 16)):
        (9.882892537496314, (5.811179036639826e-07, 0.0001992384745157736, 0.0013898546769067668),
         (1.0870820796514383e-06, 0.3142197422830415, 0.016521089006344847)),
    ("vsqp_te", "shared", "unet", (16, 16)):
        (9.904915057015703, (5.811179036639826e-07, None, 0.0013898546769067668),
         (1.2838558418632065e-06, None, 0.025494782417950834)),
    ("vsqp_te", "unshared", "unet", (16, 16)):
        (9.904915057015703, (5.811179036639826e-07, None, 0.0013898546769067668),
         (1.2838558418632065e-06, None, 0.025494782417950834)),
    ("vsqp_te", "time_embedded", "unet", (16, 16)):
        (9.88246900820159, (5.811179036639826e-07, None, 0.0013898546769067668),
         (1.0853217386473105e-06, None, 0.016353085012303877)),
    ("admm_te", "shared", "unet", (16, 16)):
        (9.924747544103658, (5.811179036639826e-07, None, 0.0013898546769067668),
         (1.3691328575632687e-06, None, 0.03058086772254004)),
    ("admm_te", "unshared", "unet", (16, 16)):
        (9.924747544103658, (5.811179036639826e-07, None, 0.0013898546769067668),
         (1.3691328575632687e-06, None, 0.03058086772254004)),
    ("admm_te", "time_embedded", "unet", (16, 16)):
        (9.89511124751738, (5.811179036639826e-07, None, 0.0013898546769067668),
         (1.1274360933635679e-06, None, 0.019505743275474528)),
    ("vsqp", "shared", "resnet", (16, 24)):
        (11.267855353224153, (5.31492977936973e-07, None, 0.0015879026165282932),
         (7.027551863957862e-07, None, 0.015768296834251044)),
    ("vsqp", "unshared", "resnet", (16, 24)):
        (11.267855353224153, (5.31492977936973e-07, None, 0.0015879026165282932),
         (7.027551863957862e-07, None, 0.015768296834251044)),
    ("vsqp", "time_embedded", "resnet", (16, 24)):
        (11.25788170421825, (5.31492977936973e-07, None, 0.0015879026165282932),
         (7.018635139134142e-07, None, 0.015990375973704826)),
    ("admm", "shared", "resnet", (16, 24)):
        (11.813371273078639, (2.357505810007694e-06, None, 0.001217745507199082),
         (2.6946977966560074e-06, None, 0.003230508852957088)),
    ("admm", "unshared", "resnet", (16, 24)):
        (11.813371273078639, (2.357505810007694e-06, None, 0.001217745507199082),
         (2.6946977966560074e-06, None, 0.003230508852957088)),
    ("admm", "time_embedded", "resnet", (16, 24)):
        (11.80981694663496, (2.357505810007694e-06, None, 0.001217745507199082),
         (2.694671153520844e-06, None, 0.003257510849186192)),
    ("alg1", "shared", "resnet", (16, 24)):
        (11.84241841027539, (2.357505810007694e-06, 0.00019424599295289963, 0.001217745507199082),
         (2.7078966858228757e-06, 0.04512306170929603, 0.002993062662245552)),
    ("alg1", "unshared", "resnet", (16, 24)):
        (11.84241841027539, (2.357505810007694e-06, 0.00019424599295289963, 0.001217745507199082),
         (2.7078966858228757e-06, 0.04512306170929603, 0.002993062662245552)),
    ("alg1", "time_embedded", "resnet", (16, 24)):
        (11.839169518724232, (2.357505810007694e-06, 0.00019424599295289963, 0.001217745507199082),
         (2.7080352763963418e-06, 0.046068856624329, 0.0030163043794072084)),
    ("vsqp_te", "shared", "resnet", (16, 24)):
        (11.839512026987439, (2.357505810007694e-06, None, 0.001217745507199082),
         (2.6767145299839175e-06, None, 0.002892523247722376)),
    ("vsqp_te", "unshared", "resnet", (16, 24)):
        (11.839512026987439, (2.357505810007694e-06, None, 0.001217745507199082),
         (2.6767145299839175e-06, None, 0.002892523247722376)),
    ("vsqp_te", "time_embedded", "resnet", (16, 24)):
        (11.83627359475863, (2.357505810007694e-06, None, 0.001217745507199082),
         (2.6767574256103956e-06, None, 0.0029147378123025296)),
    ("admm_te", "shared", "resnet", (16, 24)):
        (11.813371273078639, (2.357505810007694e-06, None, 0.001217745507199082),
         (2.6946977966560074e-06, None, 0.003230508852957088)),
    ("admm_te", "unshared", "resnet", (16, 24)):
        (11.813371273078639, (2.357505810007694e-06, None, 0.001217745507199082),
         (2.6946977966560074e-06, None, 0.003230508852957088)),
    ("admm_te", "time_embedded", "resnet", (16, 24)):
        (11.80981694663496, (2.357505810007694e-06, None, 0.001217745507199082),
         (2.694671153520844e-06, None, 0.003257510849186192)),
    ("vsqp", "shared", "unet", (16, 24)):
        (14.588183818248071, (5.31492977936973e-07, None, 0.0015879026165282932),
         (2.2632375683235997e-06, None, 0.48360569655156765)),
    ("vsqp", "unshared", "unet", (16, 24)):
        (14.588183818248071, (5.31492977936973e-07, None, 0.0015879026165282932),
         (2.2632375683235997e-06, None, 0.48360569655156765)),
    ("vsqp", "time_embedded", "unet", (16, 24)):
        (12.71549519673277, (5.31492977936973e-07, None, 0.0015879026165282932),
         (1.0990571097520735e-06, None, 0.10549392407446409)),
    ("admm", "shared", "unet", (16, 24)):
        (12.44449879254793, (2.357505810007694e-06, None, 0.001217745507199082),
         (4.54970582443061e-06, None, 0.06877086659931052)),
    ("admm", "unshared", "unet", (16, 24)):
        (12.44449879254793, (2.357505810007694e-06, None, 0.001217745507199082),
         (4.54970582443061e-06, None, 0.06877086659931052)),
    ("admm", "time_embedded", "unet", (16, 24)):
        (12.186586743249828, (2.357505810007694e-06, None, 0.001217745507199082),
         (2.876453054757566e-06, None, 0.0146057311277995)),
    ("alg1", "shared", "unet", (16, 24)):
        (12.381082657689735, (2.357505810007694e-06, 0.00019424599295289963, 0.001217745507199082),
         (4.3338895175601515e-06, 0.6123044558268746, 0.05789987934878464)),
    ("alg1", "unshared", "unet", (16, 24)):
        (12.381082657689735, (2.357505810007694e-06, 0.00019424599295289963, 0.001217745507199082),
         (4.3338895175601515e-06, 0.6123044558268746, 0.05789987934878464)),
    ("alg1", "time_embedded", "unet", (16, 24)):
        (12.17458416140089, (2.357505810007694e-06, 0.00019424599295289963, 0.001217745507199082),
         (2.7796708209349286e-06, 0.26181806657222895, 0.012470391490596658)),
    ("vsqp_te", "shared", "unet", (16, 24)):
        (12.381167133592164, (2.357505810007694e-06, None, 0.001217745507199082),
         (4.314013591515822e-06, None, 0.057011257393913536)),
    ("vsqp_te", "unshared", "unet", (16, 24)):
        (12.381167133592164, (2.357505810007694e-06, None, 0.001217745507199082),
         (4.314013591515822e-06, None, 0.057011257393913536)),
    ("vsqp_te", "time_embedded", "unet", (16, 24)):
        (12.172693603466199, (2.357505810007694e-06, None, 0.001217745507199082),
         (2.806654935220042e-06, None, 0.012259328822704573)),
    ("admm_te", "shared", "unet", (16, 24)):
        (12.44449879254793, (2.357505810007694e-06, None, 0.001217745507199082),
         (4.54970582443061e-06, None, 0.06877086659931052)),
    ("admm_te", "unshared", "unet", (16, 24)):
        (12.44449879254793, (2.357505810007694e-06, None, 0.001217745507199082),
         (4.54970582443061e-06, None, 0.06877086659931052)),
    ("admm_te", "time_embedded", "unet", (16, 24)):
        (12.186586743249828, (2.357505810007694e-06, None, 0.001217745507199082),
         (2.876453054757566e-06, None, 0.0146057311277995)),
}

# the output's norm, then the first and the last diagnostics row
# (mu_x, mu_z, upsilon_x, upsilon_z, nmse, clamps)
VAMP = {
    "encoding":
        (11.852265302926478,
         (1.0, 0.5190990865135514, 0.658284906414549, 0.7671111507268847,
          0.26575146036079755, 0),
         (1.095500819071169, 0.5229382069818336, 0.6178793169853103, 0.6178517411779508,
          0.0010361549287626428, 0)),
    "dense":
        (4.03505046414209,
         (1.0, 0.48110367947108035, 0.6751721799496926, 1.7862573841563354,
          0.562175827190102, 0),
         (0.8217292454433333, 0.44172053165394287, 0.7914837757124457, 0.4598495778302065,
          0.007588112590191484, 0)),
}


def _matches(got, want):
    if want is None or isinstance(want, int):
        return got == want
    return abs(got - want) <= INFERENCE_RTOL * abs(want)


def _problem(h, w):
    sens = sm.make_smooth_sensitivities(h, w, 2, seed=1)
    truth = sm.make_phantom(h, w, 5, seed=2)
    mask = sm.make_equispaced_mask(h, w, 2, 4)
    E = sm.EncodingOperator(mask, sens)
    return E, sm.add_noise(E.forward(truth), 0.01, seed=3, mask=mask), truth


def _run_unrolled(algorithm, sharing, arch, shape):
    E, y, truth = _problem(*shape)
    engine = TrainableEngine(algorithm, T=INFERENCE_T, cg_iters=15, sharing=sharing,
                             arch=arch, seed=0, **ARCHS[arch])
    # jitter every weight so that the zero-initialized FiLM heads and the
    # residual branches move the output
    rng = np.random.default_rng(4)
    for name, t in engine.parameters().items():
        if name.startswith("net"):
            t.data = t.data + 0.05 * rng.standard_normal(t.data.shape)
    return engine.run(E, y, reference=truth)


def test_run_unrolled_matches_recorded():
    wrong = []
    for key, (norm, *rows) in UNROLLED.items():
        img, diags = _run_unrolled(*key)
        got = [float(np.linalg.norm(img.data))]
        got += [r[c] for r in diags.rows for c in ("cg_residual", "x_u_nmse", "nmse_vs_ref")]
        want = [norm] + [v for row in rows for v in row]
        if len(got) != len(want) or not all(map(_matches, got, want)):
            wrong.append((key, got, want))
    assert not wrong


def _vamp_runs():
    cfg = vamp.VampConfig(max_iters=8, cg_iters=50)
    E, y, truth = _problem(16, 24)
    yield "encoding", vamp.run_vamp(vamp.as_vamp_operator(E), E.adjoint(y).data,
                                    prox.soft_threshold_prox(0.05), cfg, reference=truth)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((40, 64)) / np.sqrt(40)
    x0 = np.where(rng.random(64) < 0.2, rng.standard_normal(64), 0.0)
    b = A @ x0 + 0.01 * rng.standard_normal(40)
    yield "dense", vamp.run_vamp(dense_vamp_operator(A), A.T @ b, prox.soft_threshold_prox(0.1),
                                 cfg, reference=x0)


def test_vamp_diagnostics_match_recorded():
    for name, (x, diags) in _vamp_runs():
        norm, first, last = VAMP[name]
        assert len(diags.rows) == 8
        got = [float(np.linalg.norm(x))]
        got += [row[c] for row in (diags.rows[0], diags.rows[-1]) for c in vamp.VAMP_COLUMNS[1:]]
        want = [norm, *first, *last]
        assert all(map(_matches, got, want)), (name, got, want)


# -- command line --------------------------------------------------------------

# ``teunroll recon | train | eval`` on two 16x16 phantoms seen by 2 coils.
# Each run overrides these base sections; the learned recon and eval use the
# networks' seeded weights (no checkpoint), so they pin inference alone.
CLI_BASE = {
    "data": {"dir": "data"},
    "mask": {"accel": "2", "acs": "4"},
    "model": {"blocks": "1", "channels": "4", "base_channels": "4"},
    "unroll": {"t": "3", "cg_iters": "10"},
}
CLI_RUNS = {
    "recon_alg1_soft": ("recon", {"model": {"prox": "soft_threshold"},
                                  "unroll": {"algorithm": "alg1", "sharing": "shared"}}),
    "recon_vamp": ("recon", {"model": {"prox": "soft_threshold"},
                             "unroll": {"algorithm": "vamp", "max_iters": "6"}}),
    "recon_learned": ("recon", {"model": {"prox": "resnet"},
                                "unroll": {"algorithm": "alg1", "sharing": "time_embedded"}}),
    "eval_learned": ("eval", {"model": {"prox": "unet"},
                              "unroll": {"algorithm": "admm_te", "sharing": "unshared"}}),
    "train": ("train", {"model": {"prox": "resnet"},
                        "unroll": {"algorithm": "alg1", "sharing": "time_embedded"},
                        "train": {"epochs": "3"}}),
}
CLI_OUTPUTS = {"recon": ("metrics.csv", "diagnostics.csv"), "eval": ("metrics.csv",),
               "train": ("loss.csv",)}

# every row after each file's header, as read back by _csv_cells
CLI_CSVS = {
    ('recon_alg1_soft', 'metrics.csv'): [
        ['recon', 42.968115324378104, 0.999506328413551, 0.0007586034565873619],
        ['zero_filled', 28.553723725991045, 0.9505712224742157, 0.020963026197852338],
    ],
    ('recon_alg1_soft', 'diagnostics.csv'): [
        [0.0, 0.015, 0.1, 0.0003679610837309628, 0.00021527252743949496, 0.0009947408203496396],
        [1.0, 0.015, 0.1, 0.00037155606250141354, 2.8512943905585425e-05, 0.00095178915549036],
        [2.0, 0.015, 0.1, 0.0003714288204998552, 2.5064927115427336e-05, 0.0009510163898627319],
    ],
    ('recon_vamp', 'metrics.csv'): [
        ['recon', 41.725886523433516, 0.9990784255048852, 0.001009805419882549],
        ['zero_filled', 28.553723725991045, 0.9505712224742157, 0.020963026197852338],
    ],
    ('recon_vamp', 'diagnostics.csv'): [
        [0.0, 1.0, 0.5677916081031698, 0.6378398728705239, 0.948651130049961, 0.26708323048842175, 0.0],
        [1.0, 0.5377030198490049, 0.5422803253179067, 0.9259402049810777, 0.7432309951089335, 0.005323817107565553, 0.0],
        [2.0, 0.7766470553805697, 0.5578471062570008, 0.7493476020703533, 0.7244996101358131, 0.002345125467488283, 0.0],
        [3.0, 0.8178390032174508, 0.5599403756826861, 0.7258056081506219, 0.7205374657207821, 0.0010866877254004593, 0.0],
        [4.0, 0.8269051580188714, 0.5603831918846952, 0.7208306766718773, 0.7162061947365675, 0.0012064763841191767, 0.0],
        [5.0, 0.8349669996565284, 0.5607717792726982, 0.7164664442204387, 0.7156726942359934, 0.0011568621282210217, 0.0],
    ],
    ('recon_learned', 'metrics.csv'): [
        ['recon', 36.9633472261132, 0.9970433276056512, 0.0030233722811719484],
        ['zero_filled', 28.553723725991045, 0.9505712224742157, 0.020963026197852338],
    ],
    ('recon_learned', 'diagnostics.csv'): [
        [0.0, 0.015, 0.1, 0.0003679610837309628, 0.00021527252743949496, 0.0009947408203496396],
        [1.0, 0.015, 0.1, 0.0004308215161713206, 0.07403682899276091, 0.0034739601124555816],
        [2.0, 0.015, 0.1, 0.00043213131030718884, 0.09428599618317654, 0.0037006840784152826],
    ],
    ('eval_learned', 'metrics.csv'): [
        [0.0, 25.10238144646589, 0.9326886709891213, 0.04640750338607033],
        [1.0, 21.066701327208904, 0.939514764794468, 0.050059389870078914],
        ['mean', 23.084541386837397, 0.9361017178917947, 0.04823344662807462],
        ['std', 2.0178400596284938, 0.0034130469026733556, 0.0018259432420042916],
    ],
    ('train', 'loss.csv'): [
        [0.0, 0.00099535067511333],
        [1.0, 0.0008716520558211565],
        [2.0, 0.0007643397543025108],
    ],
}


def _csv_cells(text):
    """A CSV's rows after its header: numbers as floats, blanks as None and
    labels as strings."""

    def cell(raw):
        if raw == "":
            return None
        try:
            return float(raw)
        except ValueError:
            return raw

    return [[cell(c) for c in line.split(",")] for line in text.strip().split("\n")[1:]]


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    """A directory holding the two-phantom dataset in data/."""
    from teunroll import cli

    root = tmp_path_factory.mktemp("cli_fingerprint")
    assert cli.main(["phantom", "--out", str(root / "data"), "--size", "16",
                     "--coils", "2", "--count", "2"]) == 0
    return root


def _run_cli(root, name, command, overrides):
    """``teunroll <command>`` on CLI_BASE plus overrides, writing to root/name."""
    from teunroll import cli

    sections = {s: dict(keys) for s, keys in CLI_BASE.items()}
    for section, keys in overrides.items():
        sections.setdefault(section, {}).update(keys)
    out_section = "unroll" if command == "recon" else command
    sections.setdefault(out_section, {})["out"] = name
    path = root / f"{name}.ini"
    path.write_text("".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for s, keys in sections.items()))
    assert cli.main([command, "--config", str(path)]) == 0
    return root / name


@pytest.fixture(scope="module")
def cli_csvs(cli_root):
    found = {}
    for name, (command, overrides) in CLI_RUNS.items():
        out = _run_cli(cli_root, name, command, overrides)
        for fname in CLI_OUTPUTS[command]:
            found[name, fname] = _csv_cells((out / fname).read_text())
    return found


def _rows_match(got, want, rtol):
    def same(g, w):
        if isinstance(w, float):
            return isinstance(g, float) and abs(g - w) <= rtol * abs(w)
        return g == w

    return len(got) == len(want) and all(
        len(g) == len(w) and all(map(same, g, w)) for g, w in zip(got, want))


def test_cli_csvs_match_recorded(cli_csvs):
    assert cli_csvs.keys() == CLI_CSVS.keys()
    wrong = [key for key, want in CLI_CSVS.items()
             if not _rows_match(cli_csvs[key], want,
                                RTOL if key[0] == "train" else INFERENCE_RTOL)]
    assert not wrong, [(key, cli_csvs[key]) for key in wrong]


# ``teunroll train`` for one epoch (train.seed 0) on the same two phantoms:
# every checkpoint entry as (name, manifest shape, the parameter's norm).
# The last unroll's Onsager weight is a constant, not a parameter, so it is
# not written.
CHECKPOINT_RUN = {"model": {"prox": "resnet"},
                  "unroll": {"algorithm": "alg1", "sharing": "time_embedded"},
                  "train": {"epochs": "1", "seed": "0"}}
CHECKPOINT = [
    ("net.conv_in.w", "4x2x3x3", 2.8935536623438995),
    ("net.conv_in.b", "4", 0.001998698077669545),
    ("net.block0.conv1.w", "4x4x3x3", 2.994002492767098),
    ("net.block0.conv1.b", "4", 0.001965141269477143),
    ("net.block0.conv2.w", "4x4x3x3", 2.835931068990272),
    ("net.block0.conv2.b", "4", 0.0019982272177176577),
    ("net.conv_out.w", "2x4x3x3", 2.0340400154712155),
    ("net.conv_out.b", "2", 0.0014145958895336094),
    ("net.time.fc1.w", "128x32", 15.9640569747929),
    ("net.time.fc1.b", "128", 0.0014880949304343812),
    ("net.time.fc2.w", "128x128", 15.914037974726867),
    ("net.time.fc2.b", "128", 0.0017833011713429582),
    ("net.block0.film.alpha.w", "4x128", 0.017350066625582757),
    ("net.block0.film.alpha.b", "4", 0.0015511762396099168),
    ("net.block0.film.beta.w", "4x128", 0.021798618764507453),
    ("net.block0.film.beta.b", "4", 0.001967507936944156),
    ("mu.0000", "scalar", 0.01402412182792783),
    ("mu.0001", "scalar", 0.014062003747465744),
    ("mu.0002", "scalar", 0.014007645227501926),
    ("rho.0000", "scalar", 0.10098878471784695),
    ("rho.0001", "scalar", 0.09931171225018168),
]


def test_one_epoch_checkpoint_matches_recorded(cli_root):
    from teunroll.nn.networks import load_checkpoint

    ckpt = _run_cli(cli_root, "checkpoint_1ep", "train", CHECKPOINT_RUN) / "checkpoint"
    manifest = [line.split("\t")[:2]
                for line in (ckpt / "manifest.txt").read_text().strip().split("\n")]
    assert manifest == [[name, shape] for name, shape, _ in CHECKPOINT]
    state = load_checkpoint(ckpt)
    wrong = [(name, float(np.linalg.norm(state[name])), want)
             for name, _, want in CHECKPOINT
             if abs(np.linalg.norm(state[name]) - want) > RTOL * want]
    assert not wrong
