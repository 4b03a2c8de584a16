"""Tests for the compact token routing plan ``S``."""

import numpy as np
import pytest

from repro.core.routing_plan import RoutingBatch, RoutingPlan


def random_dense(seed, n=6, e=4, density=0.3):
    rng = np.random.default_rng(seed)
    dense = rng.integers(1, 50, size=(n, e, n))
    dense[rng.uniform(size=dense.shape) > density] = 0
    return dense


def two_row_plan(**overrides):
    """N=2, E=1: sender 0 sends 3 tokens to device 1, sender 1 keeps 4."""
    fields = dict(num_devices=2, num_experts=1, offsets=[0, 1, 2],
                  dest=[1, 1], tokens=[3, 4])
    fields.update(overrides)
    return RoutingPlan(**fields)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_round_trip_and_reductions(self, seed):
        dense = random_dense(seed)
        plan = RoutingPlan.from_dense(dense)
        assert np.array_equal(plan.to_dense(), dense)
        assert np.array_equal(plan.row_sums(), dense.sum(axis=2))

    def test_rows_name_sender_and_expert(self):
        plan = RoutingPlan.from_dense(random_dense(3))
        dense = plan.to_dense()
        senders, experts = np.divmod(plan.rows(), plan.num_experts)
        assert np.array_equal(dense[senders, experts, plan.dest], plan.tokens)

    def test_from_owners_has_one_destination_per_row(self):
        routing = np.array([[5, 0], [2, 7]])
        owners = np.array([[1, 0], [1, 1]])
        plan = RoutingPlan.from_owners(routing, owners)
        assert np.array_equal(plan.offsets, [0, 1, 2, 3, 4])
        dense = plan.to_dense()
        assert dense[0, 0, 1] == 5 and dense[1, 0, 1] == 2
        assert dense[1, 1, 1] == 7 and dense.sum() == routing.sum()
        assert np.array_equal(plan.row_sums(), routing)

    def test_batch_of_plans_lays_entries_end_to_end(self):
        plans = [RoutingPlan.from_dense(random_dense(seed))
                 for seed in range(3)]
        batch = RoutingBatch.of(plans)
        counts = np.diff(batch.offsets[::4]).reshape(3, 6)
        assert len(batch) == 3
        starts = np.concatenate(([0], np.cumsum(counts.sum(axis=1))))
        for index, plan in enumerate(plans):
            entries = slice(starts[index], starts[index + 1])
            assert np.array_equal(batch.dest[entries], plan.dest)
            assert np.array_equal(batch.tokens[entries], plan.tokens)
            senders = np.repeat(np.arange(6), counts[index])
            assert np.array_equal(senders, plan.rows() // plan.num_experts)
            assert np.array_equal(batch[index].to_dense(), plan.to_dense())
        with pytest.raises(ValueError):
            RoutingBatch.of([])
        with pytest.raises(ValueError):
            RoutingBatch.of([plans[0], RoutingPlan.from_dense(
                random_dense(0, n=5))])


def stacked_batch(seeds=range(4)):
    """A checked batch of ``from_dense`` plans on 6 devices and 4 experts."""
    plans = [RoutingPlan.from_dense(random_dense(seed)) for seed in seeds]
    joined = RoutingBatch.of(plans)
    return plans, RoutingBatch(len(plans), 6, 4, joined.offsets,
                               joined.dest, joined.tokens)


class TestRoutingBatch:
    def test_views_are_the_plans_over_the_batch_buffer(self):
        plans, batch = stacked_batch()
        views = list(batch)
        assert len(views) == len(plans)
        for index, (plan, view) in enumerate(zip(plans, views)):
            assert (view.batch, view.index) == (batch, index)
            assert np.array_equal(view.offsets, plan.offsets)
            assert np.array_equal(view.to_dense(), plan.to_dense())
            assert np.shares_memory(view.dest, batch.dest)
            assert np.shares_memory(view.tokens, batch.tokens)
            for array in (view.offsets, view.dest, view.tokens):
                assert not array.flags.writeable
        for index in (-1, len(plans)):
            with pytest.raises(IndexError):
                batch[index]

    def test_views_in_order_read_the_batch(self):
        plans, batch = stacked_batch()
        assert RoutingBatch.of(batch) is batch
        assert RoutingBatch.of(list(batch)) is batch
        window = RoutingBatch.of([batch[1], batch[2]])
        assert len(window) == 2
        assert np.shares_memory(window.dest, batch.dest)
        for view, plan in zip(window, plans[1:3]):
            assert np.array_equal(view.to_dense(), plan.to_dense())
        # Out of order: copied, in the order given.
        swapped = RoutingBatch.of([batch[2], batch[1]])
        assert not np.shares_memory(swapped.dest, batch.dest)
        assert np.array_equal(swapped[0].to_dense(), plans[2].to_dense())

    def test_construction_checks_the_whole_buffer(self):
        _, batch = stacked_batch()
        fields = dict(num_plans=4, num_devices=6, num_experts=4,
                      offsets=batch.offsets, dest=batch.dest,
                      tokens=batch.tokens)
        for overrides, message in (
                (dict(num_plans=3), "offsets"),
                (dict(tokens=-batch.tokens), "non-negative"),
                (dict(dest=batch.dest + 6), "destinations"),
                (dict(tokens=batch.tokens[:-1]), "equal length")):
            with pytest.raises(ValueError, match=message):
                RoutingBatch(**{**fields, **overrides})


class TestImmutability:
    def test_arrays_are_read_only(self):
        plan = RoutingPlan.from_dense(random_dense(4))
        for array in (plan.offsets, plan.dest, plan.tokens):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_fields_cannot_be_reassigned(self):
        plan = two_row_plan()
        with pytest.raises(AttributeError):
            plan.tokens = np.array([1, 1])


class TestValidation:
    def test_well_formed_plan_builds(self):
        plan = two_row_plan()
        assert plan.to_dense().sum(axis=1).tolist() == [[0, 3], [0, 4]]

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            two_row_plan(tokens=[3, -1])

    @pytest.mark.parametrize("dest", [[2, 1], [1, -1]])
    def test_destination_out_of_range_rejected(self, dest):
        with pytest.raises(ValueError, match="destinations"):
            two_row_plan(dest=dest)

    @pytest.mark.parametrize("offsets", [
        [0, 1],            # one row short
        [1, 1, 2],         # does not start at 0
        [0, 2, 1],         # falls
        [0, 1, 1],         # stops before the last entry
    ])
    def test_bad_offsets_rejected(self, offsets):
        with pytest.raises(ValueError, match="offsets"):
            two_row_plan(offsets=offsets)

    def test_mismatched_entry_arrays_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            two_row_plan(tokens=[3])

    @pytest.mark.parametrize("routing,owners,message", [
        ([[5, -1]], [[0, 0]], "non-negative"),
        ([[5, 1]], [[0, 1]], "destinations"),
        ([[5, 1]], [[0, -1]], "destinations"),
        ([[5, 1]], [[0]], "equal"),
    ])
    def test_from_owners_checks_its_inputs(self, routing, owners, message):
        with pytest.raises(ValueError, match=message):
            RoutingPlan.from_owners(np.array(routing), np.array(owners))

    def test_from_owners_shares_read_only_inputs(self):
        routing = np.array([[5, 0], [2, 7]])
        owners = np.array([[1, 0], [1, 1]])
        writable = RoutingPlan.from_owners(routing, owners)
        routing[0, 0] = 6
        assert writable.tokens[0] == 5
        routing.flags.writeable = False
        owners.flags.writeable = False
        shared = RoutingPlan.from_owners(routing, owners)
        assert np.shares_memory(shared.tokens, routing)
        assert np.shares_memory(shared.dest, owners)

    def test_dense_input_must_be_square_in_devices(self):
        with pytest.raises(ValueError):
            RoutingPlan.from_dense(np.zeros((2, 3, 4)))
