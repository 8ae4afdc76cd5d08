"""Minimal autodiff engine and time-embedded proximal networks."""

from .networks import load_checkpoint, save_checkpoint
from .training import TrainableEngine, TrainingError, train

__all__ = ["TrainableEngine", "TrainingError", "load_checkpoint", "save_checkpoint", "train"]
