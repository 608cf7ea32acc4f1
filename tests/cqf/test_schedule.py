"""Scheduling cycle and slotting."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import SchedulingError
from repro.cqf.schedule import CqfSchedule, scheduling_cycle_ns, slots_in_cycle


class TestCycle:
    def test_lcm_of_periods(self):
        assert scheduling_cycle_ns([10_000_000, 4_000_000]) == 20_000_000

    def test_single_period(self):
        assert scheduling_cycle_ns([10_000_000]) == 10_000_000

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            scheduling_cycle_ns([])

    def test_nonpositive_rejected(self):
        with pytest.raises(SchedulingError):
            scheduling_cycle_ns([10, 0])

    def test_coprime_explosion_guarded(self):
        with pytest.raises(SchedulingError, match="co-prime"):
            scheduling_cycle_ns([999_999_937, 999_999_893])  # two primes

    @given(st.lists(st.sampled_from([1, 2, 4, 5, 8, 10]), min_size=1,
                    max_size=6))
    def test_cycle_divisible_by_every_period(self, periods_ms):
        periods = [p * 10**6 for p in periods_ms]
        cycle = scheduling_cycle_ns(periods)
        assert all(cycle % p == 0 for p in periods)

    @given(st.lists(
        st.sampled_from([-3, 0, 1, 6, 10**6, 4 * 10**6, 999_999_937,
                         999_999_893]),
        max_size=12,
    ))
    def test_distinct_fold_matches_a_fold_over_every_period(self, periods):
        # The fold over every period, repeats included, is the reference:
        # same cycle, same error for the same offending period.
        def outcome(fn):
            try:
                return fn(periods)
            except SchedulingError as exc:
                return str(exc)

        def fold_every_period(values):
            cycle = 1
            for period in values:
                if period <= 0:
                    raise SchedulingError(
                        f"flow period must be positive, got {period}"
                    )
                cycle = math.lcm(cycle, period)
                if cycle > 10 * 10**9:
                    raise SchedulingError(
                        "scheduling cycle exceeds 10000000000ns; flow "
                        "periods are pathologically co-prime"
                    )
            if not values:
                raise SchedulingError("cannot compute a cycle for zero flows")
            return cycle

        assert outcome(scheduling_cycle_ns) == outcome(fold_every_period)


class TestSlots:
    def test_exact_division(self):
        assert slots_in_cycle(10_000_000, 62_500) == 160

    def test_nondivisible_rejected(self):
        with pytest.raises(SchedulingError):
            slots_in_cycle(10_000_000, 65_000)

    @pytest.mark.parametrize("slot_ns", [0, -3000])
    def test_non_positive_slot_refused_before_the_cycle_is_divided(
        self, slot_ns
    ):
        with pytest.raises(SchedulingError, match="must be positive"):
            CqfSchedule.for_flows([10_000_000], slot_ns)

    def test_schedule_for_flows(self):
        schedule = CqfSchedule.for_flows([10_000_000], 62_500)
        assert schedule.slot_count == 160
        assert schedule.cycle_ns == 10_000_000

    def test_slot_of(self):
        schedule = CqfSchedule(100, 1000)
        assert schedule.slot_of(0) == 0
        assert schedule.slot_of(99) == 0
        assert schedule.slot_of(100) == 1
        assert schedule.slot_of(1050) == 0  # wraps into next cycle

    def test_slot_start(self):
        schedule = CqfSchedule(100, 1000)
        assert schedule.slot_start(3) == 300
        assert schedule.slot_start(3, cycle_index=2) == 2300
        assert schedule.slot_start(12) == 200  # index wraps modulo count

    def test_capacity_bytes(self):
        schedule = CqfSchedule(62_500, 10_000_000)
        # 62.5 us at 1 Gbps = 62500 ns * 1e9 bps / 8e9 = 7812 B
        assert schedule.capacity_bytes(10**9) == 7812

    @given(st.integers(min_value=0, max_value=10**8))
    def test_slot_of_start_roundtrip(self, t):
        schedule = CqfSchedule(62_500, 10_000_000)
        slot = schedule.slot_of(t)
        start = schedule.slot_start(slot, cycle_index=t // schedule.cycle_ns)
        assert start <= t < start + schedule.slot_ns
