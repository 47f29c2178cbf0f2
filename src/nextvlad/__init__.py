"""NeXtVLAD video classification, from scratch on a minimal autodiff core."""

from . import autodiff, data, losses, metrics, model, rng, train, vlad

__version__ = "0.1.0"
