"""BRAM allocator: the cost model behind every table in Tables I and III."""

import pytest
from hypothesis import given, strategies as st

from repro.core import bram
from repro.core.errors import ConfigurationError


class TestPaperFigures:
    """Every table/queue shape the paper reports, bit-exact."""

    @pytest.mark.parametrize(
        "width,depth,expected_kb",
        [
            (72, 16 * 1024, 1152),  # commercial switch table
            (72, 1024, 72),         # customized switch table
            (117, 1024, 126),       # classification table
            (68, 512, 36),          # commercial meter table
            (68, 1024, 72),         # customized meter table
            (17, 2, 18),            # CQF gate table (minimum one primitive)
            (32, 16, 18),           # queue, commercial depth
            (32, 12, 18),           # queue, customized depth
        ],
    )
    def test_shape_cost(self, width, depth, expected_kb):
        assert bram.bram_kb(width, depth) == expected_kb

    def test_buffer_slot_cost(self):
        # 128 slots -> 2160 Kb/port and 96 slots -> 1620 Kb/port.
        assert bram.buffer_pool_bits(128, 1) == 2160 * 1024
        assert bram.buffer_pool_bits(96, 1) == 1620 * 1024
        assert bram.buffer_pool_bits(128, 4) == 8640 * 1024
        assert bram.buffer_pool_bits(96, 3) == 4860 * 1024

    def test_buffer_slot_constant_decomposition(self):
        assert bram.BUFFER_SLOT_COST_BITS == (2048 + 112) * 8


class TestAllocator:
    def test_picks_cheapest_aspect(self):
        # 117b x 1024: 7 RAMB18 (1Kx18) at 126Kb beats 4 RAMB36 at 144Kb.
        alloc = bram.allocate(117, 1024)
        assert alloc.aspect.primitive_kb == 18
        assert alloc.aspect.depth == 1024
        assert alloc.blocks == 7

    def test_minimum_one_primitive(self):
        assert bram.allocate(1, 1).bits == 18 * 1024

    def test_wide_shallow_uses_512x72(self):
        alloc = bram.allocate(72, 512)
        assert alloc.blocks == 1
        assert alloc.kb == 36

    def test_utilization(self):
        alloc = bram.allocate(72, 16 * 1024)
        assert alloc.utilization == 1.0  # perfect packing
        sparse = bram.allocate(17, 2)
        assert sparse.utilization == pytest.approx(34 / (18 * 1024))

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            bram.allocate(0, 8)
        with pytest.raises(ConfigurationError):
            bram.allocate(8, -1)

    def test_str_is_informative(self):
        text = str(bram.allocate(117, 1024))
        assert "117b x 1024" in text and "126Kb" in text

    def test_pareto_sorted(self):
        candidates = bram.pareto_aspects(117, 1024)
        costs = [c.bits for c in candidates]
        assert costs == sorted(costs)
        assert candidates[0].kb == 126


#: One structure per aspect ratio: (width, depth) -> the primitive, the
#: aspect (depth x width), the blocks and the Kb the allocator chooses.  A
#: RAMB18 shape here is strictly cheaper in bits than every other shape; a
#: RAMB36 shape always costs exactly what two RAMB18 halves cost, so each
#: one here wins on blocks (one against two), never on the depth tie-break.
ASPECT_PINS = [
    # RAMB18
    (1, 16384, 18, (16384, 1), 1, 18),
    (2, 8192, 18, (8192, 2), 1, 18),
    (4, 4096, 18, (4096, 4), 1, 18),
    (9, 2048, 18, (2048, 9), 1, 18),
    (18, 1024, 18, (1024, 18), 1, 18),
    (36, 512, 18, (512, 36), 1, 18),
    # RAMB36
    (1, 32768, 36, (32768, 1), 1, 36),
    (2, 16384, 36, (16384, 2), 1, 36),
    (4, 8192, 36, (8192, 4), 1, 36),
    (9, 4096, 36, (4096, 9), 1, 36),
    (18, 2048, 36, (2048, 18), 1, 36),
    (36, 1024, 36, (1024, 36), 1, 36),
    (72, 512, 36, (512, 72), 1, 36),
]


class TestEveryAspect:
    """Each primitive shape is the cheapest packing of some structure, so a
    wrong shape in the aspect tables changes a pinned cost."""

    @pytest.mark.parametrize(
        "width,depth,primitive_kb,aspect,blocks,kb", ASPECT_PINS,
        ids=[f"RAMB{p[2]}-{p[3][0]}x{p[3][1]}" for p in ASPECT_PINS],
    )
    def test_chosen_packing(self, width, depth, primitive_kb, aspect,
                            blocks, kb):
        alloc = bram.allocate(width, depth)
        assert (alloc.aspect.primitive_kb,
                (alloc.aspect.depth, alloc.aspect.width),
                alloc.blocks, alloc.kb) == (primitive_kb, aspect, blocks, kb)

    def test_every_aspect_is_pinned(self):
        pinned = {(p[2], p[3]) for p in ASPECT_PINS}
        assert pinned == {
            (a.primitive_kb, (a.depth, a.width)) for a in bram.ALL_ASPECTS
        }

    @pytest.mark.parametrize(
        "width,depth,primitive_kb", [p[:3] for p in ASPECT_PINS],
        ids=[f"RAMB{p[2]}-{p[3][0]}x{p[3][1]}" for p in ASPECT_PINS],
    )
    def test_choice_is_not_a_tie(self, width, depth, primitive_kb):
        costs = sorted(
            (a.blocks_for(width, depth) * a.primitive_bits,
             a.blocks_for(width, depth))
            for a in bram.ALL_ASPECTS
        )
        if primitive_kb == bram.RAMB18_KB:
            assert costs[0][0] < costs[1][0]
        else:
            assert costs[0] < costs[1]


class TestNaiveAllocator:
    def test_never_cheaper_than_optimal(self):
        for width, depth in [(117, 1024), (17, 2), (68, 512), (32, 12)]:
            assert (
                bram.naive_allocate(width, depth).bits
                >= bram.allocate(width, depth).bits
            )

    def test_classification_penalty(self):
        # The ablation's headline case: 144Kb naive vs 126Kb optimal.
        assert bram.naive_allocate(117, 1024).kb == 144


class TestAllocatorProperties:
    shapes = st.tuples(
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=1, max_value=64 * 1024),
    )

    @given(shapes)
    def test_covers_logical_bits(self, shape):
        width, depth = shape
        alloc = bram.allocate(width, depth)
        # The chosen grid must physically hold the logical memory.
        cols = -(-width // alloc.aspect.width)
        rows = -(-depth // alloc.aspect.depth)
        assert cols * alloc.aspect.width >= width
        assert rows * alloc.aspect.depth >= depth
        assert alloc.blocks == cols * rows

    @given(shapes)
    def test_cost_at_least_logical(self, shape):
        width, depth = shape
        alloc = bram.allocate(width, depth)
        assert alloc.bits >= width * depth

    @given(shapes)
    def test_monotone_in_depth(self, shape):
        width, depth = shape
        assert bram.bram_bits(width, depth + 1) >= bram.bram_bits(width, depth)

    @given(shapes)
    def test_monotone_in_width(self, shape):
        width, depth = shape
        assert bram.bram_bits(width + 1, depth) >= bram.bram_bits(width, depth)

    @given(shapes)
    def test_optimal_beats_naive(self, shape):
        width, depth = shape
        assert (
            bram.allocate(width, depth).bits
            <= bram.naive_allocate(width, depth).bits
        )
