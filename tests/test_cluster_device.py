"""Tests for device specifications."""

import pytest

from repro.cluster.device import A100_SPEC, H100_SPEC, V100_SPEC, DeviceSpec


class TestDeviceSpec:
    def test_effective_flops_below_peak(self):
        assert A100_SPEC.effective_flops < A100_SPEC.peak_flops
        assert A100_SPEC.effective_flops == A100_SPEC.peak_flops * A100_SPEC.mfu

    def test_registry_ordering(self):
        assert H100_SPEC.peak_flops > A100_SPEC.peak_flops > V100_SPEC.peak_flops

    def test_scaled(self):
        doubled = A100_SPEC.scaled(2.0)
        assert doubled.peak_flops == pytest.approx(2 * A100_SPEC.peak_flops)
        assert doubled.memory_bytes == A100_SPEC.memory_bytes
        assert "x2" in doubled.name

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ValueError):
            A100_SPEC.scaled(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(name="bad", peak_flops=0, mfu=0.5,
                       memory_bytes=1, memory_bandwidth=1)
        with pytest.raises(ValueError):
            DeviceSpec(name="bad", peak_flops=1, mfu=1.5,
                       memory_bytes=1, memory_bandwidth=1)
        with pytest.raises(ValueError):
            DeviceSpec(name="bad", peak_flops=1, mfu=0.5,
                       memory_bytes=0, memory_bandwidth=1)
