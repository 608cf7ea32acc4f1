"""IEC 60802-guided traffic profiles."""

import random

import pytest

from repro.core.errors import ConfigurationError
from repro.core.units import mbps, ms, us
from repro.traffic.flows import TrafficClass
from repro.traffic.iec60802 import (
    DEADLINE_CHOICES_NS,
    TS_SIZE_CHOICES,
    background_flows,
    controller_to_controller_flows,
    isochronous_cell_flows,
    production_cell_flows,
)


class TestProductionCell:
    def test_paper_defaults(self):
        flows = production_cell_flows(["t0", "t1", "t2"], "listener")
        assert len(flows) == 1024
        assert all(f.traffic_class is TrafficClass.TS for f in flows)
        assert all(f.period_ns == ms(10) for f in flows)
        assert all(f.size_bytes == 64 for f in flows)

    def test_deadlines_from_paper_set(self):
        flows = production_cell_flows(["t0"], "l", flow_count=100)
        assert {f.deadline_ns for f in flows} <= set(DEADLINE_CHOICES_NS)
        # with 100 draws all four values should appear
        assert len({f.deadline_ns for f in flows}) == 4

    def test_round_robin_talkers(self):
        flows = production_cell_flows(["a", "b"], "l", flow_count=4)
        assert [f.src for f in flows] == ["a", "b", "a", "b"]

    def test_deterministic_under_seed(self):
        a = production_cell_flows(["t"], "l", flow_count=16,
                                  rng=random.Random(3))
        b = production_cell_flows(["t"], "l", flow_count=16,
                                  rng=random.Random(3))
        assert [f.deadline_ns for f in a] == [f.deadline_ns for f in b]

    def test_size_outside_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            production_cell_flows(["t"], "l", size_bytes=333)

    def test_needs_talkers(self):
        with pytest.raises(ConfigurationError):
            production_cell_flows([], "l")

    def test_size_choices_match_paper(self):
        assert TS_SIZE_CHOICES == (64, 128, 256, 512, 1024, 1500)


class TestBackground:
    def test_splits_rates_across_talkers(self):
        flows = background_flows(["a", "b"], "l",
                                 rc_rate_bps=mbps(200), be_rate_bps=mbps(100))
        rc = flows.rc_flows
        be = flows.by_class(TrafficClass.BE)
        assert len(rc) == 2 and len(be) == 2
        assert all(f.rate_bps == mbps(100) for f in rc)
        assert all(f.rate_bps == mbps(50) for f in be)
        assert all(f.size_bytes == 1024 for f in flows)

    def test_zero_rates_yield_no_flows(self):
        flows = background_flows(["a"], "l", rc_rate_bps=0, be_rate_bps=0)
        assert len(flows) == 0

    def test_unsplittable_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            background_flows(["a", "b", "c"], "l",
                             rc_rate_bps=2, be_rate_bps=0)


class TestOtherProfiles:
    def test_isochronous(self):
        flows = isochronous_cell_flows(["t"], "l", flow_count=8)
        assert all(f.period_ns == us(250) for f in flows)
        assert all(f.deadline_ns == f.period_ns for f in flows)

    def test_c2c(self):
        flows = controller_to_controller_flows([("a", "b"), ("b", "c")])
        assert len(flows) == 2
        assert all(f.traffic_class is TrafficClass.RC for f in flows)

    def test_c2c_bad_pair_rejected(self):
        with pytest.raises(ConfigurationError):
            controller_to_controller_flows([("a",)])

    def test_flow_ids_disjoint_across_profiles(self):
        ts = production_cell_flows(["t"], "l", flow_count=10)
        bg = background_flows(["t"], "l", mbps(10), mbps(10))
        iso = isochronous_cell_flows(["t"], "l", flow_count=5)
        ids = (
            [f.flow_id for f in ts]
            + [f.flow_id for f in bg]
            + [f.flow_id for f in iso]
        )
        assert len(ids) == len(set(ids))
