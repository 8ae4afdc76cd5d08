"""One training step of the benchmark's time-embedded model, pinned.

The step is the one ``perfbench``'s ``train-te-32`` workload repeats eight
times per epoch: alg1 with T=5 unrolls and a 15-iteration taped CG, one
time-embedded 3x16 ResNet prox, on a 32x32 phantom seen by 4 coils with
equispaced R=4 sampling.  The loss and each parameter group's gradient
norm were recorded from the engine before its ops were rewritten as one
backward closure each; a change to the tape, the networks or the taped
physics that alters any of them fails here.

The same step also mirrors the traced benchmark's counts, so a change in
the number of tape nodes, taped Gram applies or conv calls fails the
suite and not only a ``--trace 1`` run.
"""

import numpy as np
import pytest

from teunroll import signal_model as sm
from teunroll.nn import TrainableEngine
from teunroll.nn import engine as en
from teunroll.nn.networks import complex_to_channels

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
# the last unroll's Onsager weight cannot reach the final CG output
NO_GRADIENT = ["rho.0004"]

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
