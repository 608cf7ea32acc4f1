"""Fixed-capacity tables, GCLs, and CBS parameter records."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import CapacityError, ConfigurationError
from repro.switch.packet import make_mac
from repro.switch.tables import (
    CbsMapTable,
    CbsParams,
    CbsTable,
    ClassificationTable,
    ClassTarget,
    FixedTable,
    GateControlList,
    GateEntry,
    MeterTable,
    MulticastTable,
    UnicastTable,
)
from repro.switch.meter import TokenBucketMeter
from tests.qbv.test_windows import state_at


class TestFixedTable:
    def test_insert_lookup(self):
        table = FixedTable(4)
        table.insert("k", 1)
        assert table.lookup("k") == 1

    def test_miss_counts(self):
        table = FixedTable(4)
        assert table.lookup("absent") is None

    def test_capacity_enforced(self):
        table = FixedTable(2, "t")
        table.insert("a", 1)
        table.insert("b", 2)
        with pytest.raises(CapacityError, match="t"):
            table.insert("c", 3)

    def test_update_in_place_does_not_consume(self):
        table = FixedTable(1)
        table.insert("a", 1)
        table.insert("a", 2)
        assert table.lookup("a") == 2 and table.free == 0

    def test_remove_frees_entry(self):
        table = FixedTable(1)
        table.insert("a", 1)
        table.remove("a")
        table.insert("b", 2)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedTable(0)

    def test_insert_all_keeps_order_and_writes_once(self):
        table = FixedTable(4)
        table.insert("b", 0)
        writes = []
        table.on_write = lambda: writes.append(len(table))
        table.insert_all({"a": 1, "b": 2, "c": 3})
        assert list(table) == [("b", 2), ("a", 1), ("c", 3)]
        assert writes == [3]

    def test_insert_all_names_the_first_key_past_capacity(self):
        table = FixedTable(3, "t")
        table.insert("a", 0)
        with pytest.raises(CapacityError) as caught:
            # "a" updates in place; "b" and "c" fill it; "d" does not fit.
            table.insert_all({"b": 1, "a": 1, "c": 1, "d": 1, "e": 1})
        assert str(caught.value) == "t: capacity 3 exhausted inserting 'd'"
        assert list(table) == [("a", 0)]  # nothing installed

    @given(st.integers(min_value=1, max_value=64))
    def test_fill_exactly_to_capacity(self, capacity):
        table = FixedTable(capacity)
        for i in range(capacity):
            table.insert(i, i)
        assert table.free == 0
        with pytest.raises(CapacityError):
            table.insert("extra", 0)


class TestTypedTables:
    def test_unicast(self):
        table = UnicastTable(8)
        table.program(make_mac(1), 10, outport=2)
        assert table.find_outport(make_mac(1), 10) == 2
        assert table.find_outport(make_mac(1), 11) is None

    def test_multicast(self):
        table = MulticastTable(4)
        table.program(5, (0, 2))
        assert table.find_outports(5) == (0, 2)
        with pytest.raises(ConfigurationError):
            table.program(6, ())

    def test_classification(self):
        table = ClassificationTable(8)
        target = ClassTarget(meter_id=3, queue_id=7)
        table.program(make_mac(1), make_mac(2), 10, 7, target)
        assert table.classify(make_mac(1), make_mac(2), 10, 7) == target

    def test_meter_table(self):
        table = MeterTable(2)
        meter = TokenBucketMeter(10**6, 2048)
        table.program(0, meter)
        assert table.meter(0) is meter
        assert table.meter(1) is None


class TestGateEntry:
    def test_is_open_per_queue(self):
        entry = GateEntry(0b1000_0001, 1000)
        assert entry.is_open(0) and entry.is_open(7)
        assert not entry.is_open(3)

    def test_bad_mask_rejected(self):
        with pytest.raises(ConfigurationError):
            GateEntry(256, 1000)

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            GateEntry(0xFF, 0)


class TestGateControlList:
    def test_program_up_to_capacity(self):
        gcl = GateControlList(2)
        gcl.program([GateEntry(0xFF, 10), GateEntry(0x0F, 10)])
        assert len(gcl) == gcl.capacity
        with pytest.raises(CapacityError):
            gcl.program([GateEntry(0xFF, 10)] * 3)
        assert [entry.gate_states for entry in gcl] == [0xFF, 0x0F]

    def test_program_atomic(self):
        gcl = GateControlList(2)
        gcl.program([GateEntry(0x01, 5), GateEntry(0x02, 7)])
        assert [entry.interval_ns for entry in gcl] == [5, 7]

    def test_program_too_many_rejected(self):
        gcl = GateControlList(1)
        with pytest.raises(CapacityError):
            gcl.program([GateEntry(0x01, 5), GateEntry(0x02, 7)])

    def test_program_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            GateControlList(2).program([])

    def test_state_at_walks_cycle(self):
        """The oracle the Qbv window checks read a programmed list with."""
        gcl = GateControlList(2)
        a, b = GateEntry(0x01, 10), GateEntry(0x02, 20)
        gcl.program([a, b])
        assert state_at(gcl, 0) == a
        assert state_at(gcl, 9) == a
        assert state_at(gcl, 10) == b
        assert state_at(gcl, 29) == b
        assert state_at(gcl, 30) == a  # wraps


class TestCbs:
    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            CbsParams(0, -1)
        with pytest.raises(ConfigurationError):
            CbsParams(10, 1)

    def test_for_reservation(self):
        params = CbsParams.for_reservation(100_000_000, 1_000_000_000)
        assert params.idle_slope_bps == 100_000_000
        assert params.send_slope_bps == -900_000_000

    def test_reservation_at_line_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            CbsParams.for_reservation(10**9, 10**9)

    def test_map_and_table(self):
        cbs_map = CbsMapTable(3)
        cbs = CbsTable(3)
        cbs_map.program(queue_id=5, cbs_id=0)
        cbs.program(0, CbsParams.for_reservation(10**8, 10**9))
        assert cbs_map.lookup(5) == 0
        assert cbs.params(0).idle_slope_bps == 10**8
        assert cbs_map.lookup(4) is None


class TestUnicastAggregation:
    def test_wildcard_matches_any_vid(self):
        table = UnicastTable(4)
        table.program(make_mac(9), None, outport=2)
        assert table.find_outport(make_mac(9), 17) == 2
        assert table.find_outport(make_mac(9), 3012) == 2

    def test_exact_beats_wildcard(self):
        table = UnicastTable(4)
        table.program(make_mac(9), None, outport=2)
        table.program(make_mac(9), 17, outport=1)
        assert table.find_outport(make_mac(9), 17) == 1
        assert table.find_outport(make_mac(9), 18) == 2

    def test_wildcard_consumes_one_entry(self):
        table = UnicastTable(1)
        table.program(make_mac(9), None, outport=0)
        assert table.free == 0
