"""Exact branch-and-bound backend: provably optimal slot assignment.

Answers the question the greedy planner cannot: *how far from optimal is
the sizing?*  The search explores injection-offset assignments depth-first
in a fully deterministic order, so results are byte-identical across runs,
hosts and worker counts:

* flows expand in ``(period_slots, -occupancy_bytes, flow_id)`` order --
  most-constrained first (a small period touches the most slots);
* each flow's candidate offsets are tried ascending; under
  ``max_admission`` an explicit *reject* branch is tried last;
* the incumbent is seeded with the greedy plan, so the search only ever
  has to find strictly better assignments (or prove none exist).

Pruning: per-slot byte-budget feasibility, incumbent bounding on the
``(rejections, peak)`` objective, the pigeonhole lower bound
``ceil(total frame-slots / slot_count)`` (search ends immediately once the
incumbent meets it), a capacity bound (with an incumbent of equal
rejections, the slots' remaining frame and byte room up to peak
``incumbent - 1`` must hold every frame-slot and byte still to place --
see :meth:`_Search._fits_within`), and symmetry breaking over identical
flows (equal period and occupancy): their offsets are forced
non-decreasing, removing factorially many mirrored subtrees.  Every bound
only cuts subtrees without a strictly better plan, so the search meets
the same incumbents in the same order, sooner.

A complete search makes the result a *proof*: status ``"optimal"`` (with
the incumbent plan) or ``"infeasible"``.  Hitting ``node_limit`` degrades
the status to ``"feasible"`` (best incumbent, unproven) or ``"unknown"``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.errors import SchedulingError

from .greedy import GreedyScheduler
from .problem import FlowDemand, SchedulePlan, SchedulingProblem

__all__ = ["ExactScheduler", "DEFAULT_NODE_LIMIT"]

#: Expansion budget before the search gives up on a proof.  Small CQF
#: instances (<= a few dozen flows) complete in far fewer nodes; the limit
#: exists so a pathological sweep point degrades to "feasible" instead of
#: hanging a campaign worker.
DEFAULT_NODE_LIMIT = 200_000

#: Sentinel "worse than any real objective" incumbent.
_NO_INCUMBENT = (1 << 60, 1 << 60)


class ExactScheduler:
    """Deterministic branch-and-bound over injection offsets."""

    name = "exact"

    def __init__(self, node_limit: int = DEFAULT_NODE_LIMIT):
        if node_limit < 1:
            raise SchedulingError(
                f"node_limit must be >= 1, got {node_limit}"
            )
        self.node_limit = node_limit

    def solve(self, problem: SchedulingProblem) -> SchedulePlan:
        search = _Search(problem, self.node_limit)
        return search.run(self.name)


class _Search:
    def __init__(self, problem: SchedulingProblem, node_limit: int):
        self.problem = problem
        self.node_limit = node_limit
        self.slot_count = problem.slot_count
        self.budget = problem.budget_bytes
        self.allow_reject = problem.objective == "max_admission"
        # Most-constrained-first expansion order (deterministic).
        self.order: List[FlowDemand] = sorted(
            problem.demands,
            key=lambda d: (d.period_slots, -d.occupancy_bytes, d.flow_id),
        )
        self.peak_lb = problem.peak_lower_bound()
        # The pigeonhole bound assumes every demand is placed, so it is
        # only a sound *pruning* bound when rejection is impossible; under
        # max_admission a plan rejecting a heavy flow can legally end
        # below it.  (Seed early-exit still uses it: a zero-rejection
        # incumbent at the bound beats any other zero-rejection plan.)
        self.prune_lb = 0 if self.allow_reject else self.peak_lb
        # Suffix totals over the expansion order, for the capacity bound:
        # rest[i] = (frame-slots, bytes, smallest frame, largest frame) of
        # the flows order[i:] still to place.
        self.rest: List[Tuple[int, int, int, int]] = []
        frames_left = bytes_left = largest = 0
        smallest = 1 << 60
        for demand in reversed(self.order):
            frames = problem.frame_slots(demand)
            frames_left += frames
            bytes_left += frames * demand.occupancy_bytes
            smallest = min(smallest, demand.occupancy_bytes)
            largest = max(largest, demand.occupancy_bytes)
            self.rest.append((frames_left, bytes_left, smallest, largest))
        self.rest.reverse()
        self.slot_frames = [0] * self.slot_count
        self.slot_bytes = [0] * self.slot_count
        self.offsets: Dict[int, int] = {}
        self.nodes = 0
        self.truncated = False
        self.best: Tuple[int, int] = _NO_INCUMBENT  # (rejections, peak)
        self.best_offsets: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------ seeding

    def _seed_incumbent(self) -> None:
        greedy = GreedyScheduler().solve(self.problem)
        if greedy.status == "infeasible":
            return
        self.best = (len(greedy.rejected), greedy.max_frames_per_slot)
        self.best_offsets = dict(greedy.offsets)

    # ------------------------------------------------------------- search

    def run(self, backend: str) -> SchedulePlan:
        self._seed_incumbent()
        if not (self.best_offsets is not None
                and self.best == (0, self.peak_lb)):
            # The greedy seed may already meet the pigeonhole bound with
            # zero rejections -- then there is nothing left to prove.
            self._expand(0, 0, 0)
        proven = not self.truncated
        if self.best_offsets is None:
            status = "infeasible" if proven else "unknown"
            reason = (
                "exact search proved the instance infeasible: no offset "
                f"assignment keeps every slot within "
                f"{self.problem.budget_bytes}B"
                if proven
                else f"exact search hit node_limit={self.node_limit} "
                     f"without finding a feasible plan"
            )
            return SchedulePlan(
                problem=self.problem,
                offsets={},
                backend=backend,
                status=status,
                rejected=tuple(
                    d.flow_id for d in self.problem.demands
                ),
                nodes_explored=self.nodes,
                reason=reason,
            )
        rejected = tuple(
            d.flow_id
            for d in self.problem.demands
            if d.flow_id not in self.best_offsets
        )
        if rejected and not self.allow_reject:
            # min_peak with a rejecting incumbent cannot happen (the seed
            # is all-or-nothing and branches never reject).
            raise AssertionError("min_peak incumbent rejected flows")
        return SchedulePlan(
            problem=self.problem,
            offsets=self.best_offsets,
            backend=backend,
            status="optimal" if proven else "feasible",
            rejected=rejected,
            nodes_explored=self.nodes,
        )

    def _expand(self, index: int, peak: int, rejections: int) -> None:
        if self.truncated:
            return
        if index == len(self.order):
            value = (rejections, peak)
            if value < self.best:
                self.best = value
                self.best_offsets = dict(self.offsets)
            return
        # Incumbent bound: every completion has >= current rejections and
        # >= max(current peak, pigeonhole bound).
        bound = (rejections, max(peak, self.prune_lb))
        if bound >= self.best:
            return
        # Capacity bound: a completion that rejects nothing more must reach
        # a strictly lower peak than the incumbent (only reachable once an
        # incumbent exists -- the sentinel's rejection count never matches).
        if rejections == self.best[0] and not self._fits_within(
            index, self.best[1] - 1
        ):
            return
        demand = self.order[index]
        min_offset, force_reject = self._symmetry_floor(index)
        if not force_reject:
            for offset in range(min_offset, demand.period_slots):
                self.nodes += 1
                if self.nodes >= self.node_limit:
                    self.truncated = True
                    return
                new_peak = self._try_place(demand, offset, peak)
                if new_peak is None:
                    continue
                if (rejections, max(new_peak, self.prune_lb)) >= self.best:
                    self._unplace(demand, offset)
                    continue
                self._expand(index + 1, new_peak, rejections)
                self._unplace(demand, offset)
                if self.truncated:
                    return
        if self.allow_reject:
            self.nodes += 1
            if self.nodes >= self.node_limit:
                self.truncated = True
                return
            self._expand(index + 1, peak, rejections + 1)

    def _fits_within(self, index: int, target: int) -> bool:
        """False when flows ``order[index:]`` provably cannot all be placed
        without some slot exceeding *target* frames.

        A relaxation of the rest of the search: a slot with frame room
        ``rf = target - frames`` and byte room ``rb`` can take at most
        ``min(rf, rb // smallest frame)`` more frames and at most
        ``min(rb, rf * largest frame)`` more bytes; if the slots together
        cannot hold the remaining frame-slots or bytes, no completion that
        places every remaining flow reaches *target*.
        """
        frames_left, bytes_left, smallest, largest = self.rest[index]
        budget = self.budget
        room_frames = 0
        room_bytes = 0
        for frames, load in zip(self.slot_frames, self.slot_bytes):
            rf = target - frames
            if rf > 0:
                rb = budget - load
                fit = rb // smallest
                room_frames += rf if rf < fit else fit
                fill = rf * largest
                room_bytes += rb if rb < fill else fill
        return room_frames >= frames_left and room_bytes >= bytes_left

    def _symmetry_floor(self, index: int) -> Tuple[int, bool]:
        """Offset floor (and forced rejection) from the previous twin.

        Identical demands are interchangeable: forcing their offsets
        non-decreasing -- and forcing a twin of a rejected flow to also be
        rejected -- keeps exactly one representative of each symmetric
        assignment class.
        """
        if index == 0:
            return 0, False
        demand = self.order[index]
        prev = self.order[index - 1]
        if (prev.period_slots, prev.occupancy_bytes) != (
            demand.period_slots, demand.occupancy_bytes
        ):
            return 0, False
        prev_offset = self.offsets.get(prev.flow_id)
        if prev_offset is None:
            return 0, True  # twin was rejected: reject this one too
        return prev_offset, False

    def _try_place(
        self, demand: FlowDemand, offset: int, peak: int
    ) -> Optional[int]:
        # Fields read once: a named-tuple field read costs a descriptor call.
        occupancy = demand.occupancy_bytes
        touched = range(offset, self.slot_count, demand.period_slots)
        for s in touched:
            if self.slot_bytes[s] + occupancy > self.budget:
                return None
        new_peak = peak
        for s in touched:
            self.slot_frames[s] += 1
            self.slot_bytes[s] += occupancy
            if self.slot_frames[s] > new_peak:
                new_peak = self.slot_frames[s]
        self.offsets[demand.flow_id] = offset
        return new_peak

    def _unplace(self, demand: FlowDemand, offset: int) -> None:
        del self.offsets[demand.flow_id]
        occupancy = demand.occupancy_bytes
        for s in range(offset, self.slot_count, demand.period_slots):
            self.slot_frames[s] -= 1
            self.slot_bytes[s] -= occupancy
