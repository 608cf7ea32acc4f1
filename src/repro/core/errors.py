"""Exception hierarchy for the TSN-Builder reproduction.

All library-raised exceptions derive from :class:`TsnBuilderError` so callers
can catch everything the library produces with a single ``except`` clause,
while still being able to discriminate configuration problems from runtime
(simulation) problems.
"""

from __future__ import annotations


class TsnBuilderError(Exception):
    """Root of the library's exception hierarchy."""


class ConfigurationError(TsnBuilderError):
    """An invalid or inconsistent resource/switch configuration.

    Raised by the customization APIs (paper Table II) and by
    :class:`~repro.core.config.SwitchConfig` validation, e.g. a zero-sized
    table, a queue count that does not cover the configured priorities, or a
    buffer pool smaller than the aggregate queue depth.
    """


class IncompleteCustomizationError(ConfigurationError):
    """``build()`` was called before every mandatory resource was specified.

    Carries the full set of missing Table II calls in :attr:`missing_calls`
    so tooling (and a chained :class:`~repro.core.api.CustomizationAPI`)
    can report every omission at once instead of one per attempt.
    """

    def __init__(self, name: str, missing_calls):
        self.switch_name = name
        self.missing_calls = frozenset(missing_calls)
        calls = ", ".join(sorted(self.missing_calls))
        super().__init__(
            f"{name}: incomplete customization, missing {len(self.missing_calls)} "
            f"call(s): {calls}"
        )


class SpecValidationError(ConfigurationError):
    """A declarative document (scenario / sweep) failed strict validation.

    Collects *every* offending path into :attr:`problems` -- a list of
    human-readable ``"path: message"`` strings -- and raises once, so a
    hand-written JSON file surfaces all its typos in a single round trip.
    """

    def __init__(self, what: str, problems):
        self.problems = list(problems)
        details = "\n".join(f"  - {p}" for p in self.problems)
        super().__init__(
            f"{what} failed validation with {len(self.problems)} problem(s):\n"
            f"{details}"
        )


class CapacityError(TsnBuilderError):
    """A fixed-capacity hardware structure was asked to exceed its size.

    Raised when inserting into a full table or attempting to allocate from an
    exhausted packet-buffer pool in *strict* mode.  The dataplane itself never
    raises this for packet traffic -- packets are dropped and counted instead,
    matching hardware behaviour -- but control-plane table programming does.
    """


class SynthesisError(TsnBuilderError):
    """Template selection/elaboration failed during :meth:`TSNBuilder.synthesize`."""


class SchedulingError(TsnBuilderError):
    """Flow-set admission or CQF/ITP schedule construction failed.

    e.g. the scheduling cycle (LCM of flow periods) overflows the configured
    limit, or a flow's per-slot arrivals exceed what any queue depth could
    hold.
    """


class SlotError(SchedulingError):
    """The flows' periods cannot be slotted at the chosen slot size."""


class InfeasiblePlanError(SchedulingError):
    """A schedule plan is infeasible (``raise_if_infeasible``)."""


class SimulationError(TsnBuilderError):
    """The discrete-event simulator was driven into an invalid state.

    e.g. scheduling an event in the past, or running a testbed that was never
    wired up.
    """


class TopologyError(TsnBuilderError):
    """An invalid network topology (unknown node, unconnected port, ...)."""
