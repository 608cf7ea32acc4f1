"""CQF GCL generation."""

import pytest

from repro.core.errors import SchedulingError
from repro.cqf.gating import cqf_gcl_entries, cqf_port_program


class TestEntries:
    def test_two_entries_each(self):
        in_e, out_e = cqf_gcl_entries(slot_ns=65_000)
        assert len(in_e) == 2 and len(out_e) == 2

    def test_intervals_are_slot(self):
        in_e, out_e = cqf_gcl_entries(slot_ns=65_000)
        assert all(e.interval_ns == 65_000 for e in in_e + out_e)

    def test_pair_alternates_and_opposes(self):
        in_e, out_e = cqf_gcl_entries(slot_ns=100, pair=(6, 7))
        # slot 0: gather on 6, drain 7; slot 1: swap
        assert in_e[0].is_open(6) and not in_e[0].is_open(7)
        assert in_e[1].is_open(7) and not in_e[1].is_open(6)
        assert out_e[0].is_open(7) and not out_e[0].is_open(6)
        assert out_e[1].is_open(6) and not out_e[1].is_open(7)

    def test_non_ts_queues_always_open(self):
        in_e, out_e = cqf_gcl_entries(slot_ns=100, pair=(6, 7))
        for entry in in_e + out_e:
            for queue in range(6):
                assert entry.is_open(queue)

    def test_exactly_one_pair_member_open_per_entry(self):
        in_e, out_e = cqf_gcl_entries(slot_ns=100, pair=(2, 5))
        for entry in in_e + out_e:
            assert entry.is_open(2) != entry.is_open(5)

    def test_custom_queue_num(self):
        in_e, _ = cqf_gcl_entries(slot_ns=100, pair=(2, 3), queue_num=4)
        assert not in_e[0].is_open(4)  # queues beyond queue_num stay closed

    def test_invalid_slot_rejected(self):
        with pytest.raises(SchedulingError):
            cqf_gcl_entries(slot_ns=0)

    def test_same_queue_pair_rejected(self):
        with pytest.raises(SchedulingError):
            cqf_gcl_entries(slot_ns=100, pair=(7, 7))

    def test_pair_outside_queue_num_rejected(self):
        with pytest.raises(SchedulingError):
            cqf_gcl_entries(slot_ns=100, pair=(6, 7), queue_num=4)


class TestPortProgram:
    def test_returns_pair_objects(self):
        in_e, out_e, pairs = cqf_port_program(slot_ns=100)
        assert len(pairs) == 1
        assert 6 in pairs[0] and 7 in pairs[0]
