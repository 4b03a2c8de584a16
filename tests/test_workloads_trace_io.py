"""Tests for routing-trace persistence and summaries."""

import numpy as np
import pytest

from repro.workloads.scenarios import ScenarioContext, SyntheticTraceSource
from repro.workloads.trace_io import load_trace, save_trace, summarize_trace


@pytest.fixture
def trace():
    return SyntheticTraceSource(ScenarioContext(
        num_devices=4, num_experts=8, num_layers=2, tokens_per_device=512,
        top_k=2, iterations=5, skew=0.4, seed=3)).materialize()


class TestSaveLoad:
    def test_roundtrip(self, trace, tmp_path):
        path = save_trace(trace, tmp_path / "trace")
        assert path.suffix == ".npz"
        loaded = load_trace(path)
        assert np.array_equal(loaded.routing, trace.routing)
        assert loaded.top_k == trace.top_k
        assert loaded.tokens_per_device == trace.tokens_per_device

    def test_creates_parent_directories(self, trace, tmp_path):
        path = save_trace(trace, tmp_path / "nested" / "dir" / "trace.npz")
        assert path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "missing.npz")

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(ValueError):
            load_trace(path)


class TestSummary:
    def test_summary_fields(self, trace):
        summary = summarize_trace(trace)
        assert summary.num_iterations == 5
        assert summary.num_devices == 4
        assert summary.num_experts == 8
        assert summary.mean_imbalance >= 1.0
        assert summary.max_imbalance >= summary.mean_imbalance
        assert 0 <= summary.hot_expert_changes <= 4

    def test_as_dict_round_values(self, trace):
        as_dict = summarize_trace(trace).as_dict()
        assert set(as_dict) >= {"iterations", "mean_imbalance", "hot_expert_changes"}

    def test_balanced_trace_summary(self):
        from repro.workloads.routing_traces import balanced_routing
        trace = balanced_routing(4, 8, 512, 2, num_layers=2, num_iterations=3)
        summary = summarize_trace(trace)
        assert summary.mean_imbalance == pytest.approx(1.0, abs=1e-6)
        assert summary.hot_expert_changes == 0
