"""Sparse visual-contrastive decoding engine and benchmark harness."""

from sparsevcd.config import DecodeConfig, ModelConfig, SparsifyConfig
from sparsevcd.decoding import DecodeResult, decode
from sparsevcd.models import ImageDescriptor, PlantedPriorComposer, ToyTransformer

__all__ = [
    "DecodeConfig",
    "DecodeResult",
    "ImageDescriptor",
    "ModelConfig",
    "PlantedPriorComposer",
    "SparsifyConfig",
    "ToyTransformer",
    "decode",
]

__version__ = "0.1.0"
