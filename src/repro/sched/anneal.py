"""Seeded local-search (simulated annealing) backend.

For instances too large for a branch-and-bound proof, ``anneal`` starts
from the greedy plan and walks the offset space with Metropolis-accepted
single-flow moves:

* *reassign*: move one admitted flow to a different byte-feasible offset;
* *admit*: try to place one currently rejected flow (``max_admission``
  runs start from a greedy plan that may reject flows).

The energy strongly orders what matters: rejections first, then the peak
frames-per-slot (the queue-depth requirement), then the sum of squared
per-slot frame counts -- the smoothing term that creates a gradient
between plans with equal peaks, which is what lets the peak eventually
drop.

Determinism is part of the contract: all randomness comes from one
``random.Random(seed)``, the iteration count is fixed, and no wall-clock
or OS entropy is consulted -- the same problem and options produce a
byte-identical plan on any host, at any campaign worker count.

If the final plan's peak meets the pigeonhole lower bound with nothing
rejected, the status upgrades itself to ``"optimal"`` -- a bound match is
a proof no search was needed for.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.errors import SchedulingError

from .greedy import GreedyScheduler
from .problem import FlowDemand, SchedulePlan, SchedulingProblem

__all__ = ["AnnealScheduler", "DEFAULT_ITERATIONS"]

#: Default annealing length; enough for ~hundreds of flows to settle.
DEFAULT_ITERATIONS = 4_000

#: Energy weight making one rejection dominate any peak difference.
_REJECT_WEIGHT = 1 << 40
#: Energy weight making one peak level dominate any smoothing difference.
_PEAK_WEIGHT = 1 << 20


class AnnealScheduler:
    """Simulated annealing from the greedy plan, fully seeded."""

    name = "anneal"

    def __init__(
        self,
        seed: int = 0,
        iterations: int = DEFAULT_ITERATIONS,
        t0: float = 2.0,
        t_min: float = 0.01,
    ):
        if iterations < 0:
            raise SchedulingError(
                f"iterations must be >= 0, got {iterations}"
            )
        if t0 <= 0 or t_min <= 0 or t_min > t0:
            raise SchedulingError(
                f"need 0 < t_min <= t0, got t0={t0}, t_min={t_min}"
            )
        self.seed = seed
        self.iterations = iterations
        self.t0 = t0
        self.t_min = t_min

    def solve(self, problem: SchedulingProblem) -> SchedulePlan:
        state = _State(problem)
        rng = random.Random(self.seed)
        cooling = (
            (self.t_min / self.t0) ** (1.0 / self.iterations)
            if self.iterations
            else 1.0
        )
        temperature = self.t0
        best_energy = state.energy()
        best_offsets = dict(state.offsets)
        current_energy = best_energy
        for _ in range(self.iterations):
            if not state.movable:
                break
            delta = state.propose_and_apply(rng)
            if delta is None:
                temperature *= cooling
                continue
            if delta <= 0 or rng.random() < math.exp(
                -delta / (temperature * _PEAK_WEIGHT)
            ):
                current_energy += delta
                if current_energy < best_energy:
                    best_energy = current_energy
                    best_offsets = dict(state.offsets)
            else:
                state.undo()
            temperature *= cooling
        state.restore(best_offsets)
        return state.to_plan(self.name, iterations=self.iterations)


class _State:
    """Mutable slot loads with O(period) move application and undo.

    The energy terms are kept current by :meth:`_add` / :meth:`_remove`
    (sum of squares, and a frames-per-slot histogram for the peak), so
    :meth:`energy` is O(1) and a move costs only the slots it touches.
    """

    def __init__(self, problem: SchedulingProblem):
        self.problem = problem
        self.slot_count = problem.slot_count
        self.budget = problem.budget_bytes
        # In flow-id order: the order the movable list must keep.
        self.by_id = {
            d.flow_id: d
            for d in sorted(problem.demands, key=lambda d: d.flow_id)
        }
        # Start from greedy under max_admission so an over-constrained
        # instance still yields a working (partial) starting point.
        seed_problem = SchedulingProblem(
            schedule=problem.schedule,
            demands=problem.demands,
            budget_bytes=problem.budget_bytes,
            rate_bps=problem.rate_bps,
            objective="max_admission",
        )
        seed = GreedyScheduler().solve(seed_problem)
        self.restore(seed.offsets)
        self._undo: Optional[Tuple[int, Optional[int], Optional[int]]] = None

    # ------------------------------------------------------------- energy

    def _add(self, demand: FlowDemand, offset: int) -> None:
        slot_frames = self.slot_frames
        slots_with = self._slots_with
        # Fields read once: a named-tuple field read costs a descriptor call.
        occupancy = demand.occupancy_bytes
        for s in range(offset, self.slot_count, demand.period_slots):
            frames = slot_frames[s]
            slot_frames[s] = frames + 1
            self.slot_bytes[s] += occupancy
            slots_with[frames] -= 1
            slots_with[frames + 1] += 1
            self._smooth += 2 * frames + 1
            if frames == self._peak:
                self._peak = frames + 1

    def _remove(self, demand: FlowDemand, offset: int) -> None:
        slot_frames = self.slot_frames
        slots_with = self._slots_with
        occupancy = demand.occupancy_bytes
        for s in range(offset, self.slot_count, demand.period_slots):
            frames = slot_frames[s]
            slot_frames[s] = frames - 1
            self.slot_bytes[s] -= occupancy
            slots_with[frames] -= 1
            slots_with[frames - 1] += 1
            self._smooth -= 2 * frames - 1
        while self._peak and not slots_with[self._peak]:
            self._peak -= 1

    def energy(self) -> int:
        rejected = len(self.by_id) - len(self.offsets)
        return (
            rejected * _REJECT_WEIGHT
            + self._peak * _PEAK_WEIGHT
            + self._smooth
        )

    def _refresh_movable(self) -> None:
        """Demands with more than one candidate offset (sorted, stable).

        Only a period-1 flow's admission changes the answer, so the list
        is rebuilt there and on :meth:`restore`, not per proposal.
        """
        self.movable: List[FlowDemand] = [
            d for d in self.by_id.values()
            if d.period_slots > 1 or d.flow_id not in self.offsets
        ]

    def fits(self, demand: FlowDemand, offset: int) -> bool:
        room = self.budget - demand.occupancy_bytes
        slot_bytes = self.slot_bytes
        return all(
            slot_bytes[s] <= room
            for s in range(offset, self.slot_count, demand.period_slots)
        )

    # -------------------------------------------------------------- moves

    def propose_and_apply(self, rng: random.Random) -> Optional[int]:
        """Apply one random move; return the energy delta (None = no-op)."""
        movable = self.movable
        demand = movable[rng.randrange(len(movable))]
        old_offset = self.offsets.get(demand.flow_id)
        new_offset = rng.randrange(demand.period_slots)
        if new_offset == old_offset:
            return None
        before = self.energy()
        if old_offset is not None:
            self._remove(demand, old_offset)
        if not self.fits(demand, new_offset):
            if old_offset is not None:
                self._add(demand, old_offset)
            return None
        self._add(demand, new_offset)
        self.offsets[demand.flow_id] = new_offset
        self._undo = (demand.flow_id, old_offset, new_offset)
        if demand.period_slots == 1:
            self._refresh_movable()
        return self.energy() - before

    def undo(self) -> None:
        assert self._undo is not None
        flow_id, old_offset, new_offset = self._undo
        demand = self.by_id[flow_id]
        self._remove(demand, new_offset)
        if old_offset is None:
            del self.offsets[flow_id]
        else:
            self._add(demand, old_offset)
            self.offsets[flow_id] = old_offset
        if demand.period_slots == 1:
            self._refresh_movable()
        self._undo = None

    def restore(self, offsets: Mapping[int, int]) -> None:
        self.slot_frames = [0] * self.slot_count
        self.slot_bytes = [0] * self.slot_count
        # _slots_with[f] = how many slots hold exactly f frames.
        self._slots_with = [0] * (len(self.by_id) + 1)
        self._slots_with[0] = self.slot_count
        self._peak = 0
        self._smooth = 0
        self.offsets = dict(offsets)
        for fid, offset in self.offsets.items():
            self._add(self.by_id[fid], offset)
        self._refresh_movable()

    # ------------------------------------------------------------- result

    def to_plan(self, backend: str, iterations: int) -> SchedulePlan:
        rejected = tuple(
            d.flow_id
            for d in self.problem.demands
            if d.flow_id not in self.offsets
        )
        reason = None
        if rejected and self.problem.objective == "min_peak":
            status = "infeasible"
            reason = (
                f"anneal could not admit flows {list(rejected)} within "
                f"the {self.problem.budget_bytes}B slot budget (not a "
                f"proof -- try the exact backend)"
            )
        else:
            at_bound = (
                not rejected
                and self._peak <= self.problem.peak_lower_bound()
            )
            status = "optimal" if at_bound else "feasible"
        return SchedulePlan(
            problem=self.problem,
            offsets=dict(self.offsets),
            backend=backend,
            status=status,
            rejected=rejected,
            iterations=iterations,
            reason=reason,
        )
