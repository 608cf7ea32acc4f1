"""Traffic sources."""

import pytest

from repro.core.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.switch.packet import make_mac
from repro.traffic.generator import PeriodicSource, RateSource


def _periodic(sim, sink, **kwargs):
    defaults = dict(
        flow_id=1, src_mac=make_mac(1), dst_mac=make_mac(2),
        size_bytes=64, period_ns=1000,
    )
    defaults.update(kwargs)
    return PeriodicSource(sim, sink, **defaults)


def _rate(sim, sink, **kwargs):
    defaults = dict(
        flow_id=2, src_mac=make_mac(1), dst_mac=make_mac(2),
        size_bytes=1024, rate_bps=81_920_000,  # gap = 100 us
    )
    defaults.update(kwargs)
    return RateSource(sim, sink, **defaults)


class TestPeriodicSource:
    def test_injects_on_schedule(self):
        sim = Simulator()
        times = []
        src = _periodic(sim, lambda f: times.append(sim.now),
                        offset_ns=100, limit=3)
        src.start()
        sim.run()
        assert times == [100, 1100, 2100]

    def test_frames_stamped(self):
        sim = Simulator()
        frames = []
        src = _periodic(sim, frames.append, limit=2, pcp=7)
        src.start()
        sim.run()
        assert [f.seq for f in frames] == [0, 1]
        assert frames[1].created_ns == 1000
        assert frames[0].flow_id == 1 and frames[0].pcp == 7

    def test_stop(self):
        sim = Simulator()
        frames = []
        src = _periodic(sim, frames.append, limit=100)
        src.start()
        sim.run(until=2500)
        src.stop()
        sim.run(until=10_000)
        assert len(frames) == 3

    def test_emitted_counter(self):
        sim = Simulator()
        src = _periodic(sim, lambda f: None, limit=5)
        src.start()
        sim.run()
        assert src.emitted == 5

    def test_bad_period_rejected(self):
        with pytest.raises(ConfigurationError):
            _periodic(Simulator(), lambda f: None, period_ns=0)

    def test_bad_offset_rejected(self):
        with pytest.raises(ConfigurationError):
            _periodic(Simulator(), lambda f: None, offset_ns=-1)


class TestMalformedSource:
    """A source that could only emit invalid frames fails when it is built,
    naming its flow -- not at the first emission, inside the event loop."""

    @pytest.mark.parametrize("make", (_periodic, _rate))
    @pytest.mark.parametrize("field,value", [
        ("pcp", 9), ("vlan_id", 5000), ("size_bytes", 63),
    ])
    def test_rejected_at_construction(self, make, field, value):
        with pytest.raises(ConfigurationError, match=r"^flow \d: "):
            make(Simulator(), lambda f: None, **{field: value})


class TestRateSource:
    def test_deterministic_spacing(self):
        sim = Simulator()
        times = []
        src = _rate(sim, lambda f: times.append(sim.now), until_ns=350_000)
        src.start()
        sim.run()
        assert times == [0, 100_000, 200_000, 300_000]

    def test_gap_matches_rate(self):
        src = _rate(Simulator(), lambda f: None)
        # 1024 B = 8192 bits at 81.92 Mbps -> 100 us
        assert src.mean_gap_ns == 100_000

    def test_zero_rate_produces_nothing(self):
        sim = Simulator()
        frames = []
        src = _rate(sim, frames.append, rate_bps=0)
        src.start()
        sim.run(until=10**7)
        assert frames == []

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            _rate(Simulator(), lambda f: None, rate_bps=-1)

    def test_start_offset(self):
        sim = Simulator()
        times = []
        src = _rate(sim, lambda f: times.append(sim.now),
                    start_ns=5_000, until_ns=120_000)
        src.start()
        sim.run()
        assert times[0] == 5_000
