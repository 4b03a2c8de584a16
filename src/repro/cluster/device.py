"""Device (accelerator) specifications.

The iteration-time simulator needs three numbers per device: sustained compute
throughput for dense matrix multiplication, memory capacity, and memory
bandwidth.  We ship the specs of the accelerators referenced by the paper and
its baselines; users can define their own.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a single accelerator.

    Attributes:
        name: Human readable device name.
        peak_flops: Peak dense bf16/fp16 throughput in FLOP/s.
        mfu: Model FLOPs utilisation achieved by the training stack, i.e. the
            fraction of ``peak_flops`` that realistic GEMM-heavy training code
            sustains.  Effective throughput is ``peak_flops * mfu``.
        memory_bytes: HBM capacity in bytes.
        memory_bandwidth: HBM bandwidth in bytes/s.
    """

    name: str
    peak_flops: float
    mfu: float
    memory_bytes: float
    memory_bandwidth: float

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise ValueError("peak_flops must be positive")
        if not 0.0 < self.mfu <= 1.0:
            raise ValueError("mfu must be in (0, 1]")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if self.memory_bandwidth <= 0:
            raise ValueError("memory_bandwidth must be positive")

    @property
    def effective_flops(self) -> float:
        """Sustained FLOP/s used by the compute-time model (``B_comp``)."""
        return self.peak_flops * self.mfu

    def scaled(self, factor: float, name: str | None = None) -> "DeviceSpec":
        """Return a copy with compute throughput scaled by ``factor``.

        Useful for modelling heterogeneous or derated clusters.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        return DeviceSpec(
            name=name or f"{self.name}-x{factor:g}",
            peak_flops=self.peak_flops * factor,
            mfu=self.mfu,
            memory_bytes=self.memory_bytes,
            memory_bandwidth=self.memory_bandwidth,
        )


_GB = 1024.0 ** 3
_TB = 1024.0 ** 4

#: NVIDIA A100-80GB, the accelerator used in the paper's evaluation (Sec. 5.1).
A100_SPEC = DeviceSpec(
    name="A100-80GB",
    peak_flops=312e12,
    mfu=0.45,
    memory_bytes=80 * _GB,
    memory_bandwidth=2.0 * _TB,
)

#: NVIDIA H100-80GB (for scalability what-if experiments).
H100_SPEC = DeviceSpec(
    name="H100-80GB",
    peak_flops=989e12,
    mfu=0.40,
    memory_bytes=80 * _GB,
    memory_bandwidth=3.35 * _TB,
)

#: NVIDIA V100-32GB (used by several baseline papers such as FasterMoE).
V100_SPEC = DeviceSpec(
    name="V100-32GB",
    peak_flops=125e12,
    mfu=0.40,
    memory_bytes=32 * _GB,
    memory_bandwidth=0.9 * _TB,
)
