"""Bounded queues and buffer pools."""

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_high_water(self):
        queue = MetadataQueue(8)
        for _ in range(5):
            queue.enqueue(_desc())
        for _ in range(5):
            queue.dequeue()
        queue.enqueue(_desc())
        assert queue.stats.high_water == 5

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
            assert pool.in_use == len(held)


# ------------------------------------------------------ buffer-pool oracle


class _EagerPool:
    """The original pool: every free slot id materialised up front.

    Kept here as the reference for slot ids, recycling order, accounting
    and errors, however the product represents its free slots.
    """

    def __init__(self, slots, slot_bytes=2048):
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._free = list(range(slots - 1, -1, -1))
        self._is_free = bytearray(b"\x01") * slots
        self.stats = dict(exhaustion_drops=0, high_water=0)

    @property
    def free_count(self):
        return len(self._free)

    @property
    def in_use(self):
        return self.slots - len(self._free)

    def allocate(self, size_bytes):
        if size_bytes > self.slot_bytes:
            raise ConfigurationError(
                f"frame of {size_bytes}B exceeds buffer slot "
                f"{self.slot_bytes}B"
            )
        if not self._free:
            self.stats["exhaustion_drops"] += 1
            return None
        slot = self._free.pop()
        self._is_free[slot] = 0
        in_use = self.slots - len(self._free)
        if in_use > self.stats["high_water"]:
            self.stats["high_water"] = in_use
        return slot

    def release(self, slot):
        if not 0 <= slot < self.slots:
            raise ConfigurationError(f"slot {slot} outside pool of {self.slots}")
        if self._is_free[slot]:
            raise ConfigurationError(f"double release of slot {slot}")
        self._free.append(slot)
        self._is_free[slot] = 1

    def seize(self, count):
        if count < 0:
            raise ConfigurationError(f"cannot seize {count} slots")
        taken = []
        while self._free and len(taken) < count:
            slot = self._free.pop()
            self._is_free[slot] = 0
            taken.append(slot)
        return taken

    def unseize(self, taken):
        for slot in taken:
            if not 0 <= slot < self.slots:
                raise ConfigurationError(
                    f"slot {slot} outside pool of {self.slots}"
                )
            if self._is_free[slot]:
                raise ConfigurationError(f"slot {slot} is already free")
            self._free.append(slot)
            self._is_free[slot] = 1


def _pool_outcome(call, *args):
    try:
        return ("ok", call(*args))
    except ConfigurationError as exc:
        return ("ConfigurationError", str(exc))


#: One step of a pool's life.  ``release`` / ``unseize`` arguments index
#: the slots currently held / seized when they can (so most calls are
#: legal) and are raw slot ids otherwise -- out of range, already free,
#: never handed out, or released twice.
_POOL_OPS = st.one_of(
    st.tuples(st.just("allocate"), st.sampled_from([64, 1500, 2048, 4096])),
    st.tuples(st.just("release_held"), st.integers(0, 31)),
    st.tuples(st.just("release_raw"), st.integers(-2, 14)),
    st.tuples(st.just("seize"), st.integers(-1, 6)),
    st.tuples(st.just("unseize_held"), st.integers(0, 31)),
    st.tuples(
        st.just("unseize_raw"), st.lists(st.integers(-2, 14), max_size=3)
    ),
)


class TestBufferPoolMatchesEagerFreeList:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 12), st.lists(_POOL_OPS, max_size=120))
    def test_same_slots_stats_and_errors(self, slots, ops):
        pool = BufferPool(slots)
        ref = _EagerPool(slots)
        held = []          # allocated and not yet released
        seized = []        # one list per outstanding seize()
        for op, arg in ops:
            if op == "allocate":
                got = _pool_outcome(pool.allocate, arg)
                assert got == _pool_outcome(ref.allocate, arg)
                if got[0] == "ok" and got[1] is not None:
                    held.append(got[1])
            elif op in ("release_held", "release_raw"):
                if op == "release_held" and held:
                    slot = held.pop(arg % len(held))
                else:
                    slot = arg
                    if slot in held:
                        held.remove(slot)
                assert _pool_outcome(pool.release, slot) == _pool_outcome(
                    ref.release, slot
                )
            elif op == "seize":
                got = _pool_outcome(pool.seize, arg)
                assert got == _pool_outcome(ref.seize, arg)
                if got[0] == "ok":
                    seized.append(got[1])
            else:
                if op == "unseize_held" and seized:
                    taken = seized.pop(arg % len(seized))
                else:
                    taken = arg if isinstance(arg, list) else [arg]
                # a failing unseize may have handed some slots back already;
                # both pools must stop at the same one
                assert _pool_outcome(pool.unseize, list(taken)) == (
                    _pool_outcome(ref.unseize, list(taken))
                )
            stats = pool.stats
            assert dict(
                exhaustion_drops=stats.exhaustion_drops,
                high_water=stats.high_water,
            ) == ref.stats
            assert pool.slots - pool.in_use == ref.free_count
            assert pool.in_use == ref.in_use
        # drain: the order of every remaining free slot is the same too
        assert [pool.allocate(64) for _ in range(slots + 1)] == [
            ref.allocate(64) for _ in range(slots + 1)
        ]

    def test_fresh_pool_hands_out_ascending_slots(self):
        pool = BufferPool(5)
        assert [pool.allocate(64) for _ in range(6)] == [0, 1, 2, 3, 4, None]

    def test_recycled_slots_come_back_before_untouched_ones(self):
        pool = BufferPool(6)
        a, b, c = (pool.allocate(64) for _ in range(3))
        pool.release(a)
        pool.release(c)
        assert [pool.allocate(64) for _ in range(5)] == [c, a, 3, 4, 5]
        assert pool.stats.high_water == 6

    def test_seize_takes_recycled_then_untouched_and_returns_in_order(self):
        pool = BufferPool(6)
        a, b = pool.allocate(64), pool.allocate(64)
        pool.release(a)
        taken = pool.seize(3)
        assert taken == [a, 2, 3]
        assert pool.in_use == 4
        pool.unseize(taken)
        assert [pool.allocate(64) for _ in range(5)] == [3, 2, a, 4, 5]

    def test_unseize_of_a_never_used_slot_is_already_free(self):
        pool = BufferPool(4)
        with pytest.raises(ConfigurationError, match="slot 3 is already free"):
            pool.unseize([3])
        with pytest.raises(ConfigurationError, match="double release of slot 3"):
            pool.release(3)
