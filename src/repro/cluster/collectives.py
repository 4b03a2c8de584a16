"""Analytic cost models for collective communication operations.

The training systems in this repository use four collectives:

* **All-to-All** -- token dispatch/combine in expert parallelism and the FSEP
  unshard/reshard operations.  Cost is driven by the bytes each device
  sends and receives per link class and that class's bandwidth.  It is also
  the price :mod:`repro.calib` generates and fits uniform All-to-All
  observations with.
* **All-Gather** -- FSDP parameter unsharding.
* **Reduce-Scatter** -- FSDP gradient synchronisation.
* **All-Reduce** -- data-parallel gradient synchronisation and TP activations.

All models follow the alpha-beta convention: a per-message latency plus a
bandwidth term.  For ring-based collectives the bandwidth term uses the
standard ``(p - 1) / p`` factor over the slowest link in the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.topology import ClusterTopology


@dataclass
class CollectiveCostModel:
    """Estimate the wall-clock time of collective operations on a topology.

    Every All-to-All is priced by one drain formula, :meth:`drain_time`, from
    per (device, link class) byte sums.  They come from three sources:
    :meth:`all_to_all_batch` (compressed sender rows, a dense matrix's or
    every layer's routing-plan entries, in one pass),
    :meth:`uniform_all_to_all` (peer counts) and closed-form lite routing
    (:func:`~repro.core.lite_routing.lite_route_tokens`).

    Attributes:
        topology: The cluster topology the collectives run on.
        efficiency: Fraction of the theoretical link bandwidth that collectives
            achieve in practice (protocol overhead, imperfect overlap between
            the send and receive directions, ...).
    """

    topology: ClusterTopology
    efficiency: float = 0.85

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")

    # ------------------------------------------------------------------
    # All-to-All
    # ------------------------------------------------------------------
    def all_to_all(self, traffic: np.ndarray,
                   group: Sequence[int] | None = None,
                   scale: float = 1.0) -> float:
        """Time of an All-to-All described by a per-pair ``traffic`` matrix.

        Args:
            traffic: ``(len(group), len(group))`` array, where ``traffic[a, b]``
                is the number of bytes the ``a``-th group member sends to the
                ``b``-th group member.  The diagonal (local data) is ignored.
            group: Global device ranks participating in the collective.  When
                omitted, all cluster devices participate in rank order.
            scale: Multiplier on the summed bytes, as in
                :meth:`all_to_all_batch`.

        Returns:
            Estimated completion time in seconds, as
            :meth:`all_to_all_batch` charges the matrix's rows.
        """
        members = self._resolve_group(group)
        traffic = np.asarray(traffic, dtype=np.float64)
        if traffic.shape != (len(members), len(members)):
            raise ValueError(
                f"traffic matrix must be {(len(members), len(members))}, "
                f"got {traffic.shape}"
            )
        if np.any(traffic < 0):
            raise ValueError("traffic entries must be non-negative")
        n = len(members)
        return float(self.all_to_all_batch(
            np.full((1, n), n), np.tile(np.arange(n), n), traffic.reshape(-1),
            scale=scale, group=group)[0])

    def all_to_all_batch(self, row_counts: np.ndarray, receivers: np.ndarray,
                         traffic: np.ndarray, scale: float = 1.0,
                         group: Sequence[int] | None = None) -> np.ndarray:
        """Times of ``B`` All-to-Alls given as compressed sender rows.

        Args:
            row_counts: ``(B, n)`` number of entries exchange ``b`` sends
                from the ``a``-th of the ``n`` group members.  Entries are
                stored row after row, ``(b, a)`` in C order.
            receivers: Receiving group member of every entry.
            traffic: Non-negative bytes of every entry.  A device's entries
                on one link class are summed before ``scale`` multiplies the
                sum, so whole byte counts add up exactly in any order.
            scale: Multiplier on every summed byte count.
            group: Global device ranks participating, as in :meth:`all_to_all`.

        Returns:
            ``(B,)`` completion times in seconds: per exchange, the maximum
            over devices of the time needed to drain that device's egress
            and ingress traffic, each link class's bytes charged at that
            class's bandwidth, plus the worst fixed latency among the
            classes the device sends bytes on.  Local entries cost nothing.
        """
        members = self._resolve_group(group)
        count, n = row_counts.shape
        if n != len(members):
            raise ValueError(
                f"row_counts must have {len(members)} columns, got {n}")
        nodes = self.topology.device_nodes()[members]
        # Per entry: its (exchange, sender) row b * n + a, its link class
        # (0 local, 1 intra-node, 2 inter-node) and the slot 3 * row +
        # class its bytes add to on the sending side; the receiving side's
        # slot is the same class in row b * n + c.
        per_row = row_counts.reshape(-1)
        rows = np.repeat(np.arange(count * n), per_row)
        senders = np.repeat(np.tile(np.arange(n), count), per_row)
        link = ((senders != receivers).view(np.int8)
                + (np.repeat(np.tile(nodes, count), per_row)
                   != nodes[receivers]).view(np.int8))
        sent_at = rows * 3 + link
        slots = 3 * count * n
        sent = np.bincount(sent_at, weights=traffic,
                           minlength=slots).reshape(count, n, 3)
        received = np.bincount(sent_at + 3 * (receivers - senders),
                               weights=traffic,
                               minlength=slots).reshape(count, n, 3)
        return self.drain_time(sent, received, scale)

    def drain_time(self, sent: np.ndarray, received: np.ndarray,
                   scale: float = 1.0) -> np.ndarray:
        """Times of ``B`` All-to-Alls, as :meth:`all_to_all_batch` describes
        them, from the ``(B, n, 3)`` bytes each member sends and receives
        per link class (local, intra-node, inter-node); ``scale``
        multiplies every sum."""
        # Two scalars per class: 1 / (bw * efficiency) and the latency.
        topology = self.topology
        intra = 1.0 / (topology.intra_node_bandwidth * self.efficiency)
        inter = 1.0 / (topology.inter_node_bandwidth * self.efficiency)

        def drain(sums: np.ndarray) -> np.ndarray:
            return ((sums[..., 1] * scale) * intra
                    + (sums[..., 2] * scale) * inter)

        # Each sender pays the worst fixed latency among the classes it
        # sends bytes on; local bytes and idle senders pay none.
        latency = np.maximum(
            np.where(sent[..., 1] > 0, topology.intra_node_latency, 0.0),
            np.where(sent[..., 2] > 0, topology.inter_node_latency, 0.0))
        return (np.maximum(drain(sent), drain(received))
                + latency).max(axis=1)

    def uniform_all_to_all(self, bytes_per_pair: float,
                           group: Sequence[int] | None = None,
                           scale: float = 1.0) -> float:
        """All-to-All where every device sends ``bytes_per_pair`` to every other.

        Equal to :meth:`all_to_all` of the dense matrix, from each member's
        same-node and other-node peer counts.  Over the whole cluster every
        device drains the same bytes per link class and pays the same
        latency, so the time is affine in ``scale``: the latency at scale 0,
        plus ``scale`` times the bandwidth part.
        """
        members = self._resolve_group(group)
        n = len(members)
        if bytes_per_pair < 0 and n > 1:
            raise ValueError("traffic entries must be non-negative")
        nodes = self.topology.device_nodes()[members]
        peers = np.bincount(nodes)[nodes] - 1
        # The kernel adds a member's bytes on a class one pair at a time;
        # a sequential prefix sum adds them in the same order.
        added = np.concatenate(
            ([0.0], np.cumsum(np.full(n, float(bytes_per_pair)))))
        sums = np.stack((np.zeros(n), added[peers], added[n - 1 - peers]),
                        axis=-1)[None]
        return float(self.drain_time(sums, sums, scale)[0])

    # ------------------------------------------------------------------
    # Ring-style collectives
    # ------------------------------------------------------------------
    def all_gather(self, bytes_per_shard: float,
                   group: Sequence[int] | None = None) -> float:
        """Ring All-Gather of ``bytes_per_shard`` bytes per participant."""
        return self._ring_collective(bytes_per_shard, group, passes=1.0)

    def reduce_scatter(self, bytes_per_shard: float,
                       group: Sequence[int] | None = None) -> float:
        """Ring Reduce-Scatter of ``bytes_per_shard`` bytes per participant."""
        return self._ring_collective(bytes_per_shard, group, passes=1.0)

    def all_reduce(self, num_bytes: float,
                   group: Sequence[int] | None = None) -> float:
        """Ring All-Reduce of ``num_bytes`` bytes (reduce-scatter + all-gather)."""
        members = self._resolve_group(group)
        p = len(members)
        if p <= 1 or num_bytes == 0:
            return 0.0
        shard = num_bytes / p
        return self._ring_collective(shard, members, passes=2.0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ring_collective(self, bytes_per_shard: float,
                         group: Sequence[int] | None, passes: float) -> float:
        members = self._resolve_group(group)
        p = len(members)
        if p <= 1 or bytes_per_shard == 0:
            return 0.0
        slowest = self._slowest_bandwidth(members)
        latency = self._max_latency(members)
        # In a ring collective every rank sends one shard per step for p-1
        # steps (per pass), all ranks concurrently, so the completion time is
        # governed by the per-rank traffic (p-1) * shard over the slowest link.
        per_device = passes * (p - 1) * bytes_per_shard
        return passes * (p - 1) * latency + per_device / (slowest * self.efficiency)

    def _spans_nodes(self, members: Sequence[int]) -> bool:
        """Whether the group touches more than one node (vectorized scan)."""
        nodes = self.topology.device_nodes()[np.asarray(members, dtype=np.intp)]
        return bool((nodes != nodes[0]).any())

    def _slowest_bandwidth(self, members: Sequence[int]) -> float:
        if self._spans_nodes(members):
            return self.topology.inter_node_bandwidth
        return self.topology.intra_node_bandwidth

    def _max_latency(self, members: Sequence[int]) -> float:
        if self._spans_nodes(members):
            return self.topology.inter_node_latency
        return self.topology.intra_node_latency

    def _resolve_group(self, group: Sequence[int] | None) -> np.ndarray:
        if group is None:
            return np.arange(self.topology.num_devices, dtype=np.intp)
        members = np.asarray(group, dtype=np.intp).reshape(-1)
        if members.size == 0:
            raise ValueError("group must not be empty")
        # A sort, not np.unique: numpy 2's unique imports numpy.ma.
        ordered = np.sort(members)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("group contains duplicate devices")
        bad = (members < 0) | (members >= self.topology.num_devices)
        if bad.any():
            raise ValueError(
                f"device {int(members[bad][0])} not in topology")
        return members
