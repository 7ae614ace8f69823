"""Transfer-operator laboratory for expanding Markov interval maps with roofs."""

from .markov import (
    CoefFn,
    MarkovModel,
    ModelConfig,
    ModelError,
    build_model,
    doubling_model,
    markov3_model,
)

__all__ = [
    "CoefFn",
    "MarkovModel",
    "ModelConfig",
    "ModelError",
    "build_model",
    "doubling_model",
    "markov3_model",
]

__version__ = "0.1.0"
