"""Tests for the Fig. 5 communication scheduling model."""

import pytest

from repro.core.comm_schedule import (
    CommScheduleConfig,
    LayerTimings,
    schedule_layer,
)


def timings(attention=2.0, expert=6.0, a2a=1.0, prefetch=3.0, attn_prefetch=0.5,
            grad_sync=3.0):
    return LayerTimings(attention_compute=attention, expert_compute=expert,
                        token_a2a=a2a, expert_prefetch=prefetch,
                        attention_prefetch=attn_prefetch, grad_sync=grad_sync)


class TestConfigs:
    def test_presets(self):
        assert CommScheduleConfig.all_enabled().relaxed_prefetch
        none = CommScheduleConfig.none_enabled()
        assert not (none.relaxed_prefetch or none.schedule_after_a2a
                    or none.delay_grad_sync)

    def test_validation(self):
        with pytest.raises(ValueError):
            CommScheduleConfig(contention_slowdown=2.0)
        with pytest.raises(ValueError):
            LayerTimings(attention_compute=-1, expert_compute=1, token_a2a=1,
                         expert_prefetch=1)


class TestScheduleLayer:
    def test_optimised_schedule_is_faster(self):
        t = timings()
        optimised = schedule_layer(t, CommScheduleConfig.all_enabled())
        unoptimised = schedule_layer(t, CommScheduleConfig.none_enabled())
        assert optimised.total < unoptimised.total

    def test_relaxed_prefetch_hides_communication(self):
        """Prefetch longer than attention but shorter than expert compute is
        fully hidden only with the relaxed constraint (Fig. 5b)."""
        t = timings(attention=1.0, expert=8.0, prefetch=4.0, attn_prefetch=0.0)
        relaxed = schedule_layer(t, CommScheduleConfig(
            relaxed_prefetch=True, schedule_after_a2a=True, delay_grad_sync=True))
        strict = schedule_layer(t, CommScheduleConfig(
            relaxed_prefetch=False, schedule_after_a2a=True, delay_grad_sync=True))
        assert relaxed.exposed_prefetch == 0.0
        assert strict.exposed_prefetch > 0.0

    def test_delayed_grad_sync_hides_communication(self):
        t = timings(attention=1.0, expert=8.0, grad_sync=4.0)
        delayed = schedule_layer(t, CommScheduleConfig(
            relaxed_prefetch=True, schedule_after_a2a=True, delay_grad_sync=True))
        eager = schedule_layer(t, CommScheduleConfig(
            relaxed_prefetch=True, schedule_after_a2a=True, delay_grad_sync=False))
        assert delayed.exposed_grad_sync == 0.0
        assert eager.exposed_grad_sync > 0.0

    def test_contention_inflates_a2a(self):
        t = timings()
        with_contention = schedule_layer(t, CommScheduleConfig(
            relaxed_prefetch=True, schedule_after_a2a=False, delay_grad_sync=True))
        without = schedule_layer(t, CommScheduleConfig(
            relaxed_prefetch=True, schedule_after_a2a=True, delay_grad_sync=True))
        assert with_contention.a2a_time > without.a2a_time

    def test_forward_critical_path_lower_bound(self):
        t = timings()
        result = schedule_layer(t, CommScheduleConfig.all_enabled())
        assert result.forward_time >= t.attention_compute + 2 * t.token_a2a + t.expert_compute

    def test_backward_counts_double_compute(self):
        t = timings(prefetch=0.0, attn_prefetch=0.0, grad_sync=0.0)
        result = schedule_layer(t, CommScheduleConfig.all_enabled())
        assert result.backward_time == pytest.approx(
            2 * (t.attention_compute + t.expert_compute) + 2 * t.token_a2a)

    def test_zero_communication_layers(self):
        t = LayerTimings(attention_compute=1.0, expert_compute=2.0, token_a2a=0.0,
                         expert_prefetch=0.0)
        result = schedule_layer(t, CommScheduleConfig.none_enabled())
        assert result.exposed_prefetch == 0.0
        assert result.a2a_time == 0.0
