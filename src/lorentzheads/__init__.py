"""Hyperbolic (Lorentz-model) classification heads with Riemannian prototype
training, matched Euclidean baselines, zero-shot evaluation against frozen
prototypes, and hubness diagnostics."""

from . import data, geometry, heads, hubness, optim, training
from .errors import ContractError, DimensionError, NumericalError, ParameterError
from .heads import BACKGROUND, PrototypeBank

__all__ = [
    "data",
    "geometry",
    "heads",
    "hubness",
    "optim",
    "training",
    "BACKGROUND",
    "PrototypeBank",
    "ContractError",
    "DimensionError",
    "NumericalError",
    "ParameterError",
]
