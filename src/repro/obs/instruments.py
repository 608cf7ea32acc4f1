"""Pre-bound dataplane instruments: the switch's view of the registry.

The dataplane fires millions of events per simulated second, so it must not
pay registry/label resolution per frame.  :class:`SwitchInstruments` does
all of that once at device-build time -- one metric name space shared by
every switch, one bound series per (switch, port, queue).  Gauges and
counters the dataplane already keeps are bound as views
(:class:`~repro.obs.metrics.SeriesView`) over that state -- queue lengths,
pool use, :class:`~repro.switch.counters.SwitchCounters`, the gate
engine's window tables -- and cost nothing per frame; each
:class:`~repro.switch.port.EgressPort` gets a :class:`PortInstruments`
holding what it still pushes: residence observations and drops.

Metric catalogue (labels in parentheses):

===========================  =========  ====================================
``frames_total``             counter    (switch, event: received/forwarded/
                                        transmitted)
``drops_total``              counter    (switch, reason)
``meter_decisions_total``    counter    (switch, decision: conform/violate)
``gate_flips_total``         counter    (switch, port, direction: in/out)
``queue_depth``              gauge      (switch, port, queue) + high-water
``buffer_in_use``            gauge      (switch, port) + high-water
``queue_residence_ns``       histogram  (switch, port, queue), log-ns buckets
===========================  =========  ====================================
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, Iterable

from .metrics import (
    CounterSeries,
    HistogramSeries,
    MetricsRegistry,
    SeriesView,
)

if TYPE_CHECKING:
    from repro.switch.counters import SwitchCounters
    from repro.switch.gates import GateEngine
    from repro.switch.queueing import BufferPool, MetadataQueue

__all__ = ["SwitchInstruments", "PortInstruments"]


class PortInstruments:
    """What one egress port pushes: residence per queue and drops."""

    __slots__ = ("residence", "_drops")

    def __init__(
        self,
        residence: Dict[int, HistogramSeries],
        drops: Dict[str, CounterSeries],
    ) -> None:
        self.residence = residence
        self._drops = drops

    def on_drop(self, reason: str) -> None:
        self._drops[reason].value += 1


class SwitchInstruments:
    """One switch's bound instrument set over a shared registry."""

    #: Drop reasons the egress path can produce (pre-bound per port).
    PORT_DROP_REASONS = ("gate", "tail", "no_buffer")

    def __init__(
        self, registry: MetricsRegistry, switch: str,
        counters: "SwitchCounters",
    ) -> None:
        self.registry = registry
        self.switch = switch
        frames = registry.counter(
            "frames_total", help="Frames by lifecycle event"
        )
        for event in ("received", "forwarded", "transmitted"):
            frames.view(
                SeriesView(partial(getattr, counters, event)),
                switch=switch, event=event,
            )
        self._drops = registry.counter(
            "drops_total", help="Dropped frames by reason"
        )
        self._drop_series: Dict[str, CounterSeries] = {}
        meter = registry.counter(
            "meter_decisions_total", help="Policer conform/violate decisions"
        )
        self._conform = meter.labels(switch=switch, decision="conform")
        self._violate = meter.labels(switch=switch, decision="violate")
        self._gate_flips = registry.counter(
            "gate_flips_total",
            help="Gate window-table boundaries crossed per port",
        )
        self._queue_depth = registry.gauge(
            "queue_depth", help="Instantaneous queue occupancy (descriptors)"
        )
        self._buffer_in_use = registry.gauge(
            "buffer_in_use", help="Buffer-pool slots in use"
        )
        self._residence = registry.histogram(
            "queue_residence_ns",
            help="Enqueue-to-dequeue residence time per queue",
        )

    # --------------------------------------------------------- switch level

    def on_meter(self, conformed: bool) -> None:
        (self._conform if conformed else self._violate).value += 1

    def _drop(self, reason: str) -> CounterSeries:
        series = self._drop_series.get(reason)
        if series is None:
            series = self._drop_series[reason] = self._drops.labels(
                switch=self.switch, reason=reason
            )
        return series

    def on_drop(self, reason: str) -> None:
        self._drop(reason).value += 1

    # ----------------------------------------------------------- port level

    def for_port(
        self,
        port_id: int,
        queues: Iterable["MetadataQueue"],
        pool: "BufferPool",
        gates: "GateEngine",
    ) -> PortInstruments:
        """Bind every series of one port up front: views over its
        *queues*, buffer *pool* and *gates* engine, pushed residence and
        drop series."""
        labels = {"switch": self.switch, "port": port_id}
        residence = {}
        for queue in queues:
            self._queue_depth.view(
                SeriesView(
                    queue.__len__,
                    partial(getattr, queue.stats, "high_water"),
                ),
                **labels, queue=queue.queue_id,
            )
            residence[queue.queue_id] = self._residence.labels(
                **labels, queue=queue.queue_id
            )
        self._buffer_in_use.view(
            SeriesView(
                partial(getattr, pool, "in_use"),
                partial(getattr, pool.stats, "high_water"),
            ),
            **labels,
        )
        for direction in ("in", "out"):
            self._gate_flips.view(
                SeriesView(partial(gates.flips, direction)),
                **labels, direction=direction,
            )
        return PortInstruments(
            residence,
            {reason: self._drop(reason) for reason in self.PORT_DROP_REASONS},
        )
