"""Tests for expert layouts."""

import numpy as np
import pytest

from repro.core.layout import (
    ExpertLayout,
    round_robin_layout,
    static_ep_layout,
)


class TestExpertLayout:
    def test_basic_accessors(self):
        assignment = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
        layout = ExpertLayout(assignment, capacity=2)
        assert layout.num_devices == 2
        assert layout.num_experts == 4
        assert layout.replicas_per_expert().tolist() == [1, 1, 1, 1]
        assert layout.assignment[0].tolist() == [1, 1, 0, 0]

    def test_multiple_replicas_on_one_device(self):
        assignment = np.array([[2, 0], [0, 1]])
        layout = ExpertLayout(assignment, capacity=2)
        assert layout.assignment[0].tolist() == [2, 0]
        assert layout.experts_used_per_device().tolist() == [1, 1]

    def test_capacity_enforced(self):
        with pytest.raises(ValueError):
            ExpertLayout(np.array([[1, 1, 1]]), capacity=2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExpertLayout(np.array([[-1, 1]]), capacity=2)

    def test_completeness(self):
        incomplete = ExpertLayout(np.array([[1, 0], [1, 0]]), capacity=1)
        assert not incomplete.is_complete()
        with pytest.raises(ValueError):
            incomplete.validate()

    def test_validate_full_capacity(self):
        layout = ExpertLayout(np.array([[1, 0], [0, 1]]), capacity=2)
        layout.validate()
        with pytest.raises(ValueError):
            layout.validate(require_full_capacity=True)

    def test_difference_counts_changed_slots(self):
        a = ExpertLayout(np.array([[1, 1, 0, 0], [0, 0, 1, 1]]), capacity=2)
        b = ExpertLayout(np.array([[1, 0, 1, 0], [0, 1, 0, 1]]), capacity=2)
        assert a.difference(b) == 2
        assert a.difference(a) == 0

    def test_difference_counts_one_added_replica(self):
        a = ExpertLayout(np.array([[1, 0], [0, 1]]), capacity=2)
        b = ExpertLayout(np.array([[1, 1], [0, 1]]), capacity=2)
        assert a.difference(b) == b.difference(a) == 1

    def test_difference_of_odd_added_and_removed_is_their_maximum(self):
        # One replica of expert 2 added, both replicas of expert 0 removed.
        a = ExpertLayout(np.array([[1, 1, 0], [1, 0, 1]]), capacity=2)
        b = ExpertLayout(np.array([[0, 1, 1], [0, 0, 1]]), capacity=2)
        assert a.difference(b) == b.difference(a) == 2

    def test_difference_shape_mismatch(self):
        a = ExpertLayout(np.array([[1, 1]]), capacity=2)
        b = ExpertLayout(np.array([[1, 1], [1, 1]]), capacity=2)
        with pytest.raises(ValueError):
            a.difference(b)

    def test_equality_and_read_only(self):
        a = ExpertLayout(np.array([[1, 0], [0, 1]]), capacity=1)
        b = ExpertLayout(np.array([[1, 0], [0, 1]]), capacity=1)
        assert a == b
        assert a != ExpertLayout(np.array([[0, 1], [1, 0]]), capacity=1)
        assert a != ExpertLayout(np.array([[1, 0], [0, 1]]), capacity=2)
        with pytest.raises(ValueError, match="read-only"):
            b.assignment[0, 0] = 0
        with pytest.raises(AttributeError):
            b.capacity = 2
        assert a == b


class TestReferenceLayouts:
    def test_static_ep_layout_structure(self):
        layout = static_ep_layout(num_devices=8, num_experts=8, capacity=2)
        # P_ep = 4 groups; every expert has N / P_ep = 2 replicas.
        assert layout.replicas_per_expert().tolist() == [2] * 8
        assert np.all(layout.assignment.sum(axis=1) == 2)
        # Devices 0 and 4 share EP rank 0 and host experts 0-1.
        assert layout.assignment[0].tolist() == [1, 1, 0, 0, 0, 0, 0, 0]
        assert layout.assignment[4].tolist() == [1, 1, 0, 0, 0, 0, 0, 0]

    def test_static_ep_layout_matches_fig6a(self):
        """Fig. 6(a): N=4, C=2, E=4 -> experts 0,1 on devices 0,2; 2,3 on 1,3."""
        layout = static_ep_layout(num_devices=4, num_experts=4, capacity=2)
        assert np.nonzero(layout.assignment[:, 0])[0].tolist() == [0, 2]
        assert np.nonzero(layout.assignment[:, 2])[0].tolist() == [1, 3]

    def test_static_ep_layout_validation(self):
        with pytest.raises(ValueError):
            static_ep_layout(num_devices=8, num_experts=7, capacity=2)
        with pytest.raises(ValueError):
            static_ep_layout(num_devices=6, num_experts=8, capacity=2)

    def test_round_robin_layout_where_static_ep_is_inexpressible(self):
        # N=3 is not a multiple of E/C=2, so static EP does not exist.
        with pytest.raises(ValueError):
            static_ep_layout(num_devices=3, num_experts=4, capacity=2)
        layout = round_robin_layout(num_devices=3, num_experts=4, capacity=2)
        assert layout.assignment.tolist() == [[1, 1, 0, 0],
                                              [0, 0, 1, 1],
                                              [1, 1, 0, 0]]
        assert layout.capacity == 2
        layout.validate(require_full_capacity=True)

    def test_round_robin_layout_wraps_within_a_device(self):
        # More slots than experts on one device: expert 0 gets two replicas.
        layout = round_robin_layout(num_devices=1, num_experts=2, capacity=3)
        assert layout.assignment.tolist() == [[2, 1]]
