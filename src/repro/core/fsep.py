"""Fully Sharded Expert Parallelism (FSEP): shard, unshard and reshard.

FSEP (Sec. 3.1, Fig. 4) flattens every expert's parameters, splits each
flattened expert into ``N`` equal chunks and stores chunk ``d`` of *every*
expert on device ``d``.  During the forward/backward pass each device restores
the complete parameters of the ``C`` experts its layout assigns to it through
All-to-All communication (*unshard*), and after the backward pass the full
expert gradients are re-partitioned into chunks, exchanged with a second
All-to-All and reduced onto the owning shards (*reshard*).

Because the chunks of every expert live on every device, a device can restore
an **arbitrary** set of experts -- this is the property the load-balancing
planner exploits.

This module implements the data movement faithfully over numpy arrays (so unit
tests can verify bit-level correctness of restore + gradient reduction) and
records the traffic matrices so the cost models and the simulator can charge
the communication to the right links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.layout import ExpertLayout
from repro.workloads.model_configs import BYTES_PER_ELEMENT


@dataclass
class UnshardResult:
    """Outcome of an FSEP unshard (parameter restore) operation.

    Attributes:
        device_experts: ``{device: {expert: flat_params}}`` -- the complete
            flattened parameters of every expert restored on each device.
        traffic: ``(N, N)`` matrix of bytes sent from device ``a`` to ``b``.
        total_bytes: Total bytes moved across the cluster (excludes the local
            chunk each device already holds).
    """

    device_experts: Dict[int, Dict[int, np.ndarray]]
    traffic: np.ndarray
    total_bytes: float


@dataclass
class ReshardResult:
    """Outcome of an FSEP reshard (gradient scatter + reduce) operation.

    Attributes:
        sharded_grads: ``(N, E, chunk_size)`` reduced gradient chunks, aligned
            with the parameter shards (device ``d`` owns chunk ``d``).
        traffic: ``(N, N)`` matrix of bytes sent from device ``a`` to ``b``.
        total_bytes: Total bytes moved across the cluster.
    """

    sharded_grads: np.ndarray
    traffic: np.ndarray
    total_bytes: float


@dataclass
class FSEPShardedExperts:
    """Expert parameters fully sharded across ``N`` devices (FSEP ``shard``).

    Args:
        expert_parameters: One flattened parameter vector per expert.  All
            experts must have identical sizes (they are instances of the same
            SwiGLU architecture).
        num_devices: Number of devices ``N`` the experts are sharded over.
        parameter_shapes: Optional meta-information recording the original
            (name, shape) structure of one expert so restored flat vectors can
            be viewed back into matrices (the ``real_experts`` meta of Fig. 4a).
    """

    expert_parameters: Sequence[np.ndarray]
    num_devices: int
    parameter_shapes: Sequence[Tuple[str, Tuple[int, ...]]] | None = None

    _shards: np.ndarray = field(init=False, repr=False)
    _expert_size: int = field(init=False, repr=False)
    _padded_size: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_devices <= 0:
            raise ValueError("num_devices must be positive")
        if len(self.expert_parameters) == 0:
            raise ValueError("at least one expert is required")
        flats = [np.asarray(p, dtype=np.float64).reshape(-1)
                 for p in self.expert_parameters]
        sizes = {f.size for f in flats}
        if len(sizes) != 1:
            raise ValueError("all experts must have the same parameter count")
        self._expert_size = flats[0].size
        if self.parameter_shapes is not None:
            meta_size = sum(int(np.prod(shape)) for _, shape in self.parameter_shapes)
            if meta_size != self._expert_size:
                raise ValueError(
                    "parameter_shapes metadata does not match the expert size")
        self._padded_size = self._round_up(self._expert_size, self.num_devices)
        # shards[d, e] is chunk d of expert e.
        self._shards = np.zeros(
            (self.num_devices, len(flats), self.chunk_size), dtype=np.float64)
        for expert, flat in enumerate(flats):
            padded = np.zeros(self._padded_size, dtype=np.float64)
            padded[:flat.size] = flat
            self._shards[:, expert, :] = padded.reshape(
                self.num_devices, self.chunk_size)

    # ------------------------------------------------------------------
    # Structural properties
    # ------------------------------------------------------------------
    @staticmethod
    def _round_up(value: int, multiple: int) -> int:
        return ((value + multiple - 1) // multiple) * multiple

    @property
    def num_experts(self) -> int:
        return int(self._shards.shape[1])

    @property
    def expert_size(self) -> int:
        """Unpadded number of parameters per expert (``Psi_expert`` in elements)."""
        return self._expert_size

    @property
    def padded_expert_size(self) -> int:
        """Padded per-expert size (a multiple of ``num_devices``)."""
        return self._padded_size

    @property
    def chunk_size(self) -> int:
        """Number of elements in each per-device chunk."""
        return self._padded_size // self.num_devices

    @property
    def expert_bytes(self) -> float:
        """bf16 bytes of one (unpadded) expert."""
        return self._expert_size * BYTES_PER_ELEMENT

    def memory_per_device_bytes(self) -> float:
        """Persistent parameter bytes stored by each device."""
        return self.num_experts * self.chunk_size * BYTES_PER_ELEMENT

    # ------------------------------------------------------------------
    # Unshard: restore complete expert parameters according to a layout
    # ------------------------------------------------------------------
    def unshard(self, layout: ExpertLayout) -> UnshardResult:
        """Restore the complete parameters of each device's assigned experts.

        Every device holding a replica of expert ``j`` receives the ``N - 1``
        chunks of ``j`` it does not own; its own chunk is copied locally for
        free.  The resulting traffic is a balanced All-to-All whenever the
        layout uses the full per-device capacity.
        """
        self._check_layout(layout)
        chunk_bytes = self.chunk_size * BYTES_PER_ELEMENT
        traffic = np.zeros((self.num_devices, self.num_devices), dtype=np.float64)
        device_experts: Dict[int, Dict[int, np.ndarray]] = {}
        for device in range(self.num_devices):
            restored: Dict[int, np.ndarray] = {}
            for expert in np.nonzero(layout.assignment[device] > 0)[0]:
                expert = int(expert)
                full = self._shards[:, expert, :].reshape(-1)[:self._expert_size]
                restored[expert] = full.copy()
                for src in range(self.num_devices):
                    if src != device:
                        traffic[src, device] += chunk_bytes
            device_experts[device] = restored
        return UnshardResult(device_experts=device_experts, traffic=traffic,
                             total_bytes=float(traffic.sum()))

    def restore_expert(self, expert: int) -> np.ndarray:
        """Reconstruct one expert's full (unpadded) flat parameter vector."""
        self._check_expert(expert)
        return self._shards[:, expert, :].reshape(-1)[:self._expert_size].copy()

    # ------------------------------------------------------------------
    # Reshard: scatter and reduce full expert gradients back onto shards
    # ------------------------------------------------------------------
    def reshard(self, device_gradients: Dict[int, Dict[int, np.ndarray]]
                ) -> ReshardResult:
        """Re-partition and reduce per-device full expert gradients.

        Args:
            device_gradients: ``{device: {expert: flat_grad}}`` -- the complete
                gradient each device computed for each expert it restored.
                Devices that computed no tokens for an expert may omit it or
                pass a zero vector.

        Returns:
            The reduced ``(N, E, chunk)`` sharded gradients plus traffic.
        """
        chunk_bytes = self.chunk_size * BYTES_PER_ELEMENT
        traffic = np.zeros((self.num_devices, self.num_devices), dtype=np.float64)
        sharded = np.zeros_like(self._shards)
        for device, grads in device_gradients.items():
            self._check_device(device)
            for expert, grad in grads.items():
                self._check_expert(expert)
                grad = np.asarray(grad, dtype=np.float64).reshape(-1)
                if grad.size != self._expert_size:
                    raise ValueError(
                        f"gradient for expert {expert} has {grad.size} elements, "
                        f"expected {self._expert_size}")
                padded = np.zeros(self._padded_size, dtype=np.float64)
                padded[:grad.size] = grad
                chunks = padded.reshape(self.num_devices, self.chunk_size)
                sharded[:, expert, :] += chunks
                for dst in range(self.num_devices):
                    if dst != device:
                        traffic[device, dst] += chunk_bytes
        return ReshardResult(sharded_grads=sharded, traffic=traffic,
                             total_bytes=float(traffic.sum()))

    def reduce_full_gradient(self, reshard: ReshardResult,
                             expert: int) -> np.ndarray:
        """Assemble the full reduced gradient of one expert from its chunks."""
        self._check_expert(expert)
        return reshard.sharded_grads[:, expert, :].reshape(-1)[:self._expert_size].copy()

    # ------------------------------------------------------------------
    # Parameter updates
    # ------------------------------------------------------------------
    def set_expert(self, expert: int, flat: np.ndarray) -> None:
        """Overwrite one expert's parameters from a full flat vector."""
        self._check_expert(expert)
        flat = np.asarray(flat, dtype=np.float64).reshape(-1)
        if flat.size != self._expert_size:
            raise ValueError("flat vector has the wrong size")
        padded = np.zeros(self._padded_size, dtype=np.float64)
        padded[:flat.size] = flat
        self._shards[:, expert, :] = padded.reshape(self.num_devices, self.chunk_size)

    # ------------------------------------------------------------------
    # Communication accounting helpers
    # ------------------------------------------------------------------
    def unshard_bytes_per_device(self, capacity: int) -> float:
        """Per-device unshard receive volume ``C * (N-1)/N * Psi_expert`` bytes."""
        n = self.num_devices
        return capacity * (n - 1) / n * self.padded_expert_size * BYTES_PER_ELEMENT

    # ------------------------------------------------------------------
    # Internal checks
    # ------------------------------------------------------------------
    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.num_devices:
            raise ValueError(f"device {device} out of range [0, {self.num_devices})")

    def _check_expert(self, expert: int) -> None:
        if not 0 <= expert < self.num_experts:
            raise ValueError(f"expert {expert} out of range [0, {self.num_experts})")

    def _check_layout(self, layout: ExpertLayout) -> None:
        if layout.num_devices != self.num_devices:
            raise ValueError("layout device count does not match the shards")
        if layout.num_experts != self.num_experts:
            raise ValueError("layout expert count does not match the shards")
        layout.validate()
