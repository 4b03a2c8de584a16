"""The tensor-parallel cost model behind the Megatron baseline.

The iteration simulator times a tensor-parallel system's attention with
:class:`TensorParallelCost`: the per-device GEMM time at reduced efficiency
plus the activation All-Reduces.
"""

from repro.parallel.tp import TensorParallelCost

__all__ = [
    "TensorParallelCost",
]
