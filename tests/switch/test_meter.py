"""Token-bucket meters."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ConfigurationError
from repro.switch.meter import TokenBucketMeter


class TestConstruction:
    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            TokenBucketMeter(0, 2048)

    def test_rejects_bad_burst(self):
        with pytest.raises(ConfigurationError):
            TokenBucketMeter(10**6, 0)

    def test_starts_full(self):
        meter = TokenBucketMeter(10**6, 3000)
        assert meter.offer(0, 3000)  # the whole burst at once
        assert not meter.offer(0, 1)


class TestPolicing:
    def test_burst_conforms_then_violates(self):
        meter = TokenBucketMeter(8_000, 100)  # 1 KB/s, 100 B bucket
        assert meter.offer(0, 64)
        assert not meter.offer(0, 64)  # only 36 B left
        assert meter.stats.conformed_frames == 1
        assert meter.stats.violated_frames == 1

    def test_replenishes_at_rate(self):
        meter = TokenBucketMeter(8_000_000, 100)  # 1 MB/s
        assert meter.offer(0, 100)
        assert not meter.offer(0, 100)
        # 100 B replenish in 100 us at 1 MB/s
        assert meter.offer(100_000, 100)

    def test_bucket_caps_at_burst(self):
        meter = TokenBucketMeter(10**9, 200)
        meter.offer(0, 64)
        # long idle: capped at the burst
        assert meter.offer(10**9, 200) and not meter.offer(10**9, 1)

    def test_time_backwards_rejected(self):
        meter = TokenBucketMeter(10**6, 2048)
        meter.offer(1000, 64)
        with pytest.raises(ConfigurationError):
            meter.offer(500, 64)

    def test_periodic_flow_within_contract_never_violates(self):
        # 64 B every 1 ms = 512 kbps; meter at 1 Mbps with 2-frame burst.
        meter = TokenBucketMeter(1_000_000, 128)
        for k in range(1000):
            assert meter.offer(k * 1_000_000, 64)
        assert meter.stats.violated_frames == 0

    def test_flow_over_contract_is_clamped_to_rate(self):
        # Offer 2x the contracted rate; conformed share approaches 1/2.
        meter = TokenBucketMeter(8_000_000, 1000)  # 1 MB/s
        for k in range(2000):
            meter.offer(k * 250_000, 500)  # 500 B every 250 us = 2 MB/s
        share = meter.stats.conformed_frames / meter.stats.offered_frames
        assert share == pytest.approx(0.5, abs=0.05)


class TestProperties:
    @given(
        st.integers(min_value=8_000, max_value=10**9),
        st.integers(min_value=64, max_value=10_000),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),  # gap ns
                st.integers(min_value=64, max_value=1500),  # frame bytes
            ),
            max_size=50,
        ),
    )
    def test_conformed_bytes_bounded_by_rate_plus_burst(self, rate, burst, offers):
        meter = TokenBucketMeter(rate, burst)
        now = conformed_bytes = 0
        for gap, size in offers:
            now += gap
            if meter.offer(now, size):
                conformed_bytes += size
        # Token conservation: can never conform more than burst + rate*t.
        limit = burst + rate * now // (8 * 10**9) + 1
        assert conformed_bytes <= limit

    @given(st.lists(st.integers(min_value=64, max_value=1500), max_size=30))
    def test_tokens_never_negative(self, sizes):
        meter = TokenBucketMeter(10**6, 2000)
        for i, size in enumerate(sizes):
            meter.offer(i * 1000, size)
            assert meter._tokens >= 0
