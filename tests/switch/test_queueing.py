"""Bounded queues and buffer pools."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ConfigurationError
from repro.switch.packet import Descriptor, EthernetFrame, make_mac
from repro.switch.queueing import BufferPool, MetadataQueue


def _frame(size=64):
    return EthernetFrame(make_mac(1), make_mac(2), 1, 7, size)


def _desc(queue_id=7, slot=0):
    return Descriptor(_frame(), buffer_slot=slot, enqueued_ns=0, queue_id=queue_id)


class TestMetadataQueue:
    def test_fifo_order(self):
        queue = MetadataQueue(4)
        first, second = _desc(slot=1), _desc(slot=2)
        queue.enqueue(first)
        queue.enqueue(second)
        assert queue.dequeue() is first
        assert queue.dequeue() is second

    def test_tail_drop_at_depth(self):
        queue = MetadataQueue(2)
        assert queue.enqueue(_desc())
        assert queue.enqueue(_desc())
        assert not queue.enqueue(_desc())
        assert queue.stats.tail_drops == 1
        assert len(queue) == 2

    def test_head_peek_nondestructive(self):
        queue = MetadataQueue(2)
        desc = _desc()
        queue.enqueue(desc)
        assert queue.head() is desc
        assert len(queue) == 1

    def test_head_empty(self):
        assert MetadataQueue(2).head() is None

    def test_high_water(self):
        queue = MetadataQueue(8)
        for _ in range(5):
            queue.enqueue(_desc())
        for _ in range(5):
            queue.dequeue()
        queue.enqueue(_desc())
        assert queue.stats.high_water == 5

    def test_drain(self):
        queue = MetadataQueue(8)
        for _ in range(3):
            queue.enqueue(_desc())
        assert len(queue.drain()) == 3
        assert queue.empty

    def test_zero_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            MetadataQueue(0)

    def test_iteration(self):
        queue = MetadataQueue(4)
        descs = [_desc(slot=i) for i in range(3)]
        for d in descs:
            queue.enqueue(d)
        assert list(queue) == descs

    @given(st.lists(st.sampled_from(["enq", "deq"]), max_size=100))
    def test_occupancy_invariants(self, ops):
        queue = MetadataQueue(5)
        model = []
        for op in ops:
            if op == "enq":
                accepted = queue.enqueue(_desc())
                if len(model) < 5:
                    assert accepted
                    model.append(None)
                else:
                    assert not accepted
            elif model:
                queue.dequeue()
                model.pop()
            assert len(queue) == len(model) <= 5


class TestBufferPool:
    def test_allocate_release(self):
        pool = BufferPool(2)
        a = pool.allocate(64)
        b = pool.allocate(64)
        assert {a, b} == {0, 1}
        assert pool.allocate(64) is None
        assert pool.stats.exhaustion_drops == 1
        pool.release(a)
        assert pool.allocate(64) == a  # LIFO recycling

    def test_high_water(self):
        pool = BufferPool(4)
        slots = [pool.allocate(64) for _ in range(3)]
        for slot in slots:
            pool.release(slot)
        assert pool.stats.high_water == 3

    def test_oversize_frame_rejected(self):
        pool = BufferPool(2, slot_bytes=128)
        with pytest.raises(ConfigurationError):
            pool.allocate(256)

    def test_double_release_rejected(self):
        pool = BufferPool(2)
        slot = pool.allocate(64)
        pool.release(slot)
        with pytest.raises(ConfigurationError):
            pool.release(slot)

    def test_release_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            BufferPool(2).release(5)

    def test_zero_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            BufferPool(0)

    @given(st.lists(st.sampled_from(["alloc", "free"]), max_size=200))
    def test_slot_conservation(self, ops):
        pool = BufferPool(8)
        held = []
        for op in ops:
            if op == "alloc":
                slot = pool.allocate(64)
                if slot is not None:
                    assert slot not in held
                    held.append(slot)
            elif held:
                pool.release(held.pop())
            assert pool.free_count + len(held) == 8
