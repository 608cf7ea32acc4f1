"""Units and conversions."""

import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from repro.core import units


class TestTimeConversions:
    def test_ns_identity(self):
        assert units.ns(7) == 7

    def test_us(self):
        assert units.us(65) == 65_000

    def test_ms(self):
        assert units.ms(10) == 10_000_000

    def test_seconds(self):
        assert units.seconds(2) == 2_000_000_000

    def test_float_exact(self):
        assert units.us(62.5) == 62_500

    def test_float_inexact_rejected(self):
        with pytest.raises(ValueError):
            units.ns(0.3)

    def test_fraction_exact(self):
        assert units.us(Fraction(125, 2)) == 62_500

    def test_fraction_inexact_rejected(self):
        with pytest.raises(ValueError):
            units.ns(Fraction(1, 3))

    @given(st.integers(min_value=0, max_value=10**6))
    def test_ms_scales_us(self, value):
        assert units.ms(value) == units.us(value * 1000)


class TestFormatTime:
    def test_ns(self):
        assert units.fmt_time(999) == "999ns"

    def test_us_integral(self):
        assert units.fmt_time(65_000) == "65us"

    def test_us_fractional(self):
        assert units.fmt_time(1_500) == "1.5us"

    def test_ms(self):
        assert units.fmt_time(10_000_000) == "10ms"

    def test_seconds(self):
        assert units.fmt_time(2_000_000_000) == "2s"


class TestMemoryUnits:
    def test_kib_exact(self):
        assert units.kib(72 * 16384) == 1152

    def test_fmt_kib_integral(self):
        assert units.fmt_kib(72 * 16384) == "1152Kb"

    def test_fmt_kib_fractional(self):
        assert units.fmt_kib(512) == "0.5Kb"


class TestRates:
    def test_mbps(self):
        assert units.mbps(100) == 100_000_000

    def test_fractional_rate_rejected(self):
        with pytest.raises(ValueError):
            units.mbps(0.0000001)

    def test_serialization_64B_at_1G(self):
        # 64 bytes = 512 bits -> 512 ns at 1 Gbps.
        assert units.serialization_ns(64, units.GIGABIT) == 512

    def test_serialization_1500B_at_1G(self):
        assert units.serialization_ns(1500, units.GIGABIT) == 12_000

    def test_serialization_rounds_up(self):
        # 1 byte at 3 bps: 8e9/3 ns, not integral, must round up.
        assert units.serialization_ns(1, 3) == -(-8 * units.SEC // 3)

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=1_000, max_value=10**10),
    )
    def test_serialization_never_undershoots(self, nbytes, rate):
        t = units.serialization_ns(nbytes, rate)
        # transmitting for t ns at `rate` must cover all the bits
        assert t * rate >= nbytes * 8 * units.SEC

    def test_wire_bytes_overhead(self):
        # preamble+SFD (8) + IFG (12) = 20 bytes of extra wire occupancy
        assert units.wire_bytes(64) == 84
        assert units.wire_bytes(1500) == 1520
