"""Drifting local clocks."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import SimulationError
from repro.sim.clock import LocalClock
from repro.sim.kernel import Simulator


def _advance(sim, delta):
    sim.schedule(delta, lambda: None)
    sim.run()


class TestPerfectClock:
    def test_tracks_sim_time(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=0.0, offset_ns=0)
        _advance(sim, 12345)
        assert clock.now() == 12345
        assert clock.offset_from_perfect() == 0


class TestDrift:
    def test_positive_drift_runs_fast(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=100)
        _advance(sim, 1_000_000_000)  # 1 s
        assert clock.offset_from_perfect() == 100_000  # 100 us fast

    def test_negative_drift_runs_slow(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=-50)
        _advance(sim, 1_000_000_000)
        assert clock.offset_from_perfect() == -50_000

    def test_initial_offset(self):
        sim = Simulator()
        clock = LocalClock(sim, offset_ns=777)
        assert clock.now() == 777

    @given(st.floats(min_value=-100, max_value=100),
           st.integers(min_value=1, max_value=10**9))
    def test_drift_proportional(self, ppm, elapsed):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=ppm)
        _advance(sim, elapsed)
        expected = elapsed * ppm / 1e6
        assert clock.offset_from_perfect() == pytest.approx(expected, abs=1.0)


class TestAdjustment:
    def test_step(self):
        sim = Simulator()
        clock = LocalClock(sim)
        clock.step(-300)
        assert clock.now() == -300

    def test_step_does_not_rewrite_history_rate(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=10)
        _advance(sim, 1_000_000_000)
        drifted = clock.now()
        clock.step(5)
        assert clock.now() == drifted + 5

    def test_adjust_rate_cancels_drift(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=40)
        clock.adjust_rate(-40)
        _advance(sim, 1_000_000_000)
        assert clock.offset_from_perfect() == 0

    def test_adjust_rate_replaces_previous(self):
        sim = Simulator()
        clock = LocalClock(sim)
        clock.adjust_rate(100)
        clock.adjust_rate(10)
        _advance(sim, 1_000_000)
        assert clock.offset_from_perfect() == pytest.approx(10, abs=1)

    def test_rate_correction_ppm_property(self):
        sim = Simulator()
        clock = LocalClock(sim)
        clock.adjust_rate(12.5)
        assert clock.rate_correction_ppm == pytest.approx(12.5)

    def test_monotone_across_adjustments(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=-30)
        readings = [clock.now()]
        for _ in range(5):
            _advance(sim, 1000)
            clock.adjust_rate(-15)
            readings.append(clock.now())
        assert readings == sorted(readings)


class TestLocalDelay:
    def test_perfect_clock_identity(self):
        sim = Simulator()
        clock = LocalClock(sim)
        assert clock.sim_delay_for_local(125_000) == 125_000

    def test_fast_clock_needs_less_sim_time(self):
        sim = Simulator()
        clock = LocalClock(sim, drift_ppm=1000)  # exaggerated
        assert clock.sim_delay_for_local(1_000_000) < 1_000_000

    def test_minimum_one_ns(self):
        sim = Simulator()
        clock = LocalClock(sim)
        assert clock.sim_delay_for_local(1) == 1

    def test_nonpositive_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            LocalClock(sim).sim_delay_for_local(0)

    @given(
        drift=st.floats(min_value=-500, max_value=500),
        correction=st.none() | st.floats(min_value=-500, max_value=500),
        new_drift=st.none() | st.floats(min_value=-500, max_value=500),
        delta=st.integers(min_value=1, max_value=10**9),
    )
    def test_matches_rounded_exact_quotient(
        self, drift, correction, new_drift, delta
    ):
        # The conversion is integer arithmetic; the specification is the
        # exact rational, rounded half-to-even, floored at 1 ns.
        clock = LocalClock(Simulator(), drift_ppm=drift)
        if correction is not None:
            clock.adjust_rate(correction)
        if new_drift is not None:
            clock.set_drift_ppm(new_drift)
        assert clock.sim_delay_for_local(delta) == max(
            1, round(Fraction(delta) / clock.rate)
        )

    @given(
        # 64 * m ppm with m odd: rate = (15625 + m) / 15625, an even
        # numerator over an odd denominator, so exact half-way quotients
        # exist -- the only inputs where the rounding rule shows.
        m=st.sampled_from([-7, -3, -1, 1, 3, 7]),
        via=st.sampled_from(["drift", "adjust_rate", "set_drift_ppm"]),
        cycles=st.integers(min_value=0, max_value=60_000),
    )
    def test_half_way_quotients_round_to_even(self, m, via, cycles):
        clock = LocalClock(
            Simulator(), drift_ppm=64 * m if via == "drift" else 0
        )
        if via == "adjust_rate":
            clock.adjust_rate(64 * m)
        elif via == "set_drift_ppm":
            clock.set_drift_ppm(64 * m)
        num, den = clock.rate.numerator, clock.rate.denominator
        assert num % 2 == 0
        delta = (num // 2) * pow(den, -1, num) % num + cycles * num
        exact = Fraction(delta) / clock.rate
        assert exact.denominator == 2  # x.5 exactly
        got = clock.sim_delay_for_local(delta)
        assert got == round(exact) and got % 2 == 0

    def test_rate_listeners_hear_both_kinds_of_rate_change(self):
        clock = LocalClock(Simulator())
        heard = []
        clock.on_rate_change(lambda: heard.append(clock.rate))
        clock.adjust_rate(10.0)
        clock.set_drift_ppm(-5.0)
        clock.step(100)  # phase only: no notification
        assert heard == [Fraction(1_000_010, 10**6), Fraction(1_000_005, 10**6)]
