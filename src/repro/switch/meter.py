"""Token-bucket flow meters (the Ingress Filter's policing stage).

Each classification hit yields a ``meter_id``; the meter decides whether the
frame *conforms* to the flow's traffic contract.  Non-conforming frames are
dropped at ingress, which is how the switch protects reserved TS/RC capacity
from misbehaving sources (802.1Qci flow policing).

The implementation is a single-rate token bucket evaluated lazily: tokens
are replenished arithmetically on each offer from the elapsed time, so no
simulator events are consumed by idle meters.  Token state is kept in exact
integer *token-nanobytes* (bytes x 1e9) to avoid drift: at rate R bps a
frame of L bytes costs ``L * 8e9 / R`` wall-nanoseconds of tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError

__all__ = ["TokenBucketMeter", "MeterStats"]

_SCALE = 10**9  # token sub-units per byte


@dataclass
class MeterStats:
    """Conform/violate counters of one meter."""

    conformed_frames: int = 0
    violated_frames: int = 0

    @property
    def offered_frames(self) -> int:
        return self.conformed_frames + self.violated_frames


class TokenBucketMeter:
    """A single-rate, single-bucket policer.

    Parameters
    ----------
    rate_bps:
        Committed information rate in bits/s.
    burst_bytes:
        Bucket depth: the largest back-to-back byte burst admitted at line
        rate.  Must hold at least one MTU frame or every large frame would
        violate unconditionally.
    """

    def __init__(self, rate_bps: int, burst_bytes: int):
        if rate_bps <= 0:
            raise ConfigurationError(f"meter rate must be positive, got {rate_bps}")
        if burst_bytes <= 0:
            raise ConfigurationError(
                f"meter burst must be positive, got {burst_bytes}"
            )
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self._tokens = burst_bytes * _SCALE  # start full
        self._last_ns = 0
        self.stats = MeterStats()

    def offer(self, now_ns: int, frame_bytes: int) -> bool:
        """True if a *frame_bytes* frame at *now_ns* conforms (and debit it).

        Tokens are first replenished for the time since the last offer.
        """
        tokens = self._tokens
        elapsed = now_ns - self._last_ns
        if elapsed:
            if elapsed < 0:
                raise ConfigurationError(
                    "meter observed time moving backwards"
                )
            # rate_bps/8 bytes per second = rate_bps/8 * elapsed / 1e9 bytes.
            tokens += elapsed * self.rate_bps // 8
            if tokens > self.burst_bytes * _SCALE:
                tokens = self.burst_bytes * _SCALE
            self._last_ns = now_ns
        cost = frame_bytes * _SCALE
        if tokens >= cost:
            self._tokens = tokens - cost
            self.stats.conformed_frames += 1
            return True
        self._tokens = tokens
        self.stats.violated_frames += 1
        return False

    @property
    def exercised(self) -> bool:
        """True once any frame has been offered (meter state is "in use")."""
        return self.stats.offered_frames > 0
