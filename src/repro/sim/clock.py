"""Per-device local clocks with frequency drift.

Real TSN devices derive their notion of time from a free-running local
oscillator whose frequency deviates from nominal by tens of ppm.  gPTP's job
(:mod:`repro.timesync`) is to discipline these local clocks to a grandmaster
so gate schedules align network-wide.

:class:`LocalClock` maps *perfect* simulation time to *local* time as a
piecewise-linear function:

    local(t) = base_local + (t - base_sim) * rate

where ``rate = 1 + drift_ppm * 1e-6 + servo rate correction``.  The servo can
step the phase (``step``) and slew the rate (``adjust_rate``); each
adjustment starts a new linear segment anchored at the current instant, so
time never jumps retroactively.

Phase is kept in exact :class:`fractions.Fraction` ticks so the clock model
is bit-reproducible (no float accumulation error over long runs): ``now``,
``offset_from_perfect`` and the rebase behind ``step`` / ``adjust_rate`` /
``set_drift_ppm`` evaluate the exact rational and round once, on the read.
Interval conversion (:meth:`LocalClock.sim_delay_for_local`, the call the
gate engine and periodic local-time activities make) depends on the rate
only and is plain integer arithmetic on the rate's numerator and
denominator -- same result as rounding the exact quotient, no ``Fraction``
built per call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Optional

from repro.core.errors import SimulationError
from .kernel import Simulator

__all__ = ["LocalClock"]


def _rate_from_ppm(ppm: float) -> Fraction:
    return Fraction(ppm).limit_denominator(10**9) / 10**6


class LocalClock:
    """A drifting local oscillator, disciplinable by a servo.

    Parameters
    ----------
    sim:
        The simulator supplying perfect time.
    drift_ppm:
        Constant oscillator frequency error in parts-per-million.  +10 means
        the local clock runs fast by 10 us per second.
    offset_ns:
        Initial phase offset of the local clock (local - perfect at t=0).
    """

    def __init__(
        self,
        sim: Simulator,
        drift_ppm: float = 0.0,
        offset_ns: int = 0,
    ) -> None:
        self._sim = sim
        self._base_sim = sim.now
        self._base_local = Fraction(sim.now + offset_ns)
        self._nominal_rate = _rate_from_ppm(drift_ppm) + 1
        self._rate_correction = Fraction(0)
        self.drift_ppm = drift_ppm
        self._rate_listeners: List[Callable[[], None]] = []
        self._rate_changed()

    # ------------------------------------------------------------- reading

    def _local_exact(self, sim_time: Optional[int] = None) -> Fraction:
        t = self._sim.now if sim_time is None else sim_time
        if t < self._base_sim:
            raise SimulationError("cannot read clock before its last adjustment")
        return self._base_local + (t - self._base_sim) * self._rate

    @property
    def rate(self) -> Fraction:
        """Current local-seconds-per-perfect-second ratio."""
        return self._rate

    @property
    def rate_correction_ppm(self) -> float:
        """The servo's currently applied rate correction, in ppm."""
        return float(self._rate_correction) * 1e6

    def now(self) -> int:
        """Local time in integer nanoseconds at the current sim instant."""
        return round(self._local_exact())

    def offset_from_perfect(self) -> int:
        """Signed error of this clock vs perfect simulation time (ns)."""
        return self.now() - self._sim.now

    # ---------------------------------------------------------- adjustment

    def _rebase(self) -> None:
        self._base_local = self._local_exact()
        self._base_sim = self._sim.now

    def _rate_changed(self) -> None:
        rate = self._rate = self._nominal_rate + self._rate_correction
        self._rate_num = rate.numerator
        self._rate_den = rate.denominator
        for listener in self._rate_listeners:
            listener()

    def step(self, delta_ns: int) -> None:
        """Step the local phase by *delta_ns* (positive = advance)."""
        self._rebase()
        self._base_local += delta_ns

    def set_drift_ppm(self, drift_ppm: float) -> None:
        """Change the oscillator's *free-running* frequency error.

        Models a frequency-step fault (thermal shock, oscillator aging):
        the nominal rate changes mid-run while any servo correction stays
        in place, so the disciplined clock starts accumulating phase error
        until its servo notices.  Rate-change listeners are notified like
        for :meth:`adjust_rate` so interval caches rebuild.
        """
        self._rebase()
        self._nominal_rate = _rate_from_ppm(drift_ppm) + 1
        self.drift_ppm = drift_ppm
        self._rate_changed()

    def adjust_rate(self, correction_ppm: float) -> None:
        """Set the servo's rate correction (replaces any previous one)."""
        self._rebase()
        self._rate_correction = _rate_from_ppm(correction_ppm)
        self._rate_changed()

    def on_rate_change(self, listener: Callable[[], None]) -> None:
        """Register *listener* to run after every rate change.

        That is every :meth:`adjust_rate` (the servo slewing) and every
        :meth:`set_drift_ppm` (a frequency-step fault).  Consumers that
        precompute local->sim interval conversions (the gate engine's
        window tables) subscribe here to rebuild.  Phase steps need no
        notification: interval conversion depends on the rate only.
        """
        self._rate_listeners.append(listener)

    def clear_rate_listeners(self) -> None:
        """Forget every :meth:`on_rate_change` listener (teardown)."""
        self._rate_listeners.clear()

    def sim_delay_for_local(self, local_delta_ns: int) -> int:
        """Perfect-time delay corresponding to *local_delta_ns* local ns.

        Used to schedule periodic local-time activities (e.g. gPTP sync
        transmission every 125 ms of *local* time) on the perfect-time
        calendar.  Rounded to at least 1 ns so periodic processes always make
        progress.

        Integer arithmetic throughout: the quotient ``local_delta_ns / rate``
        is rounded half-to-even exactly as ``round(Fraction)`` would.
        """
        if local_delta_ns <= 0:
            raise SimulationError("local delay must be positive")
        num = self._rate_num
        quotient, rem = divmod(local_delta_ns * self._rate_den, num)
        twice = 2 * rem
        if twice > num or (twice == num and quotient & 1):
            quotient += 1
        return max(1, quotient)
