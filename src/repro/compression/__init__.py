"""Masking / compression strategies: FedAvg, STC, APF, GlueFL, quantization."""

from repro.compression.base import (
    AggregateResult,
    ClientPayload,
    CompressionStrategy,
)
from repro.compression.topk import ratio_to_k, top_k_indices
from repro.compression.error_comp import ErrorCompMode, ResidualStore
from repro.compression.fedavg import FedAvgStrategy
from repro.compression.stc import STCStrategy
from repro.compression.apf import APFStrategy
from repro.compression.gluefl_mask import GlueFLMaskStrategy
from repro.compression.quantize import (
    quantized_values_bytes,
    stochastic_quantize,
    uniform_quantize,
)
from repro.compression.quantized import QuantizedStrategy

__all__ = [
    "CompressionStrategy",
    "ClientPayload",
    "AggregateResult",
    "top_k_indices",
    "ratio_to_k",
    "ErrorCompMode",
    "ResidualStore",
    "FedAvgStrategy",
    "STCStrategy",
    "APFStrategy",
    "GlueFLMaskStrategy",
    "uniform_quantize",
    "stochastic_quantize",
    "quantized_values_bytes",
    "QuantizedStrategy",
]
