"""Minimal autodiff engine and time-embedded proximal networks."""

from .engine import Tape, Tensor
from .layers import (
    TimeEmbedder,
    film_modulate,
    film_residual_modulate,
    sinusoidal_encode,
)
from .networks import (
    ProxNetworkBase,
    ResNetProx,
    UNetProx,
    build_network,
    channels_to_complex,
    complex_to_channels,
    load_checkpoint,
    resnet_full,
    save_checkpoint,
    unet_full,
)
from .training import Adam, TrainableEngine, TrainingError, cg_tape, train

__all__ = [
    "Adam",
    "ProxNetworkBase",
    "ResNetProx",
    "Tape",
    "Tensor",
    "TimeEmbedder",
    "TrainableEngine",
    "TrainingError",
    "UNetProx",
    "build_network",
    "cg_tape",
    "channels_to_complex",
    "complex_to_channels",
    "film_modulate",
    "film_residual_modulate",
    "load_checkpoint",
    "resnet_full",
    "save_checkpoint",
    "sinusoidal_encode",
    "train",
    "unet_full",
]
