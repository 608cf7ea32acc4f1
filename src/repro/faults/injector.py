"""Executes a :class:`~repro.faults.plan.FaultPlan` inside a testbed.

Every fault is applied as a kernel ``post_at`` event at ``start + at_ns``
(*start* = traffic start, after any gPTP warmup), with a priority ahead of
the dataplane so same-instant ordering is well defined; partial loss and
corruption windows draw from named :class:`~repro.sim.rng.RngFactory`
substreams.  Two runs of the same seeded scenario therefore produce
byte-identical traces, faults included -- the property the campaign
engine's determinism smoke asserts.

The injector also closes the observability loop: :meth:`FaultInjector.
report` digests what the faults did (frames blackholed/lost/corrupted per
link, FRER eliminations, gPTP elections and failover latency) into a
:class:`FaultReport`, mirrored into the metrics registry when one is
attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.errors import ConfigurationError
from .plan import FaultEvent, FaultPlan

__all__ = ["FAULT_EVENT_PRIORITY", "FaultInjector", "FaultReport"]

#: Fault events fire before gate narration (-11), gate wakeups (-10) and
#: dataplane events (0) scheduled at the same instant, so "cut at T"
#: deterministically affects the frame transmitted at T.
FAULT_EVENT_PRIORITY = -16


@dataclass
class FaultReport:
    """Recovery-observability digest of one faulted run."""

    timeline: List[Dict[str, Any]] = field(default_factory=list)
    links: Dict[str, Dict[str, int]] = field(default_factory=dict)
    frer: Dict[str, Dict[str, int]] = field(default_factory=dict)
    gptp: Optional[Dict[str, Any]] = None

    @property
    def frames_lost_in_failover(self) -> int:
        """Frames the faulted links destroyed (blackholed + lost + corrupt).

        Under FRER this is the *redundancy* absorbing the fault: the frames
        existed only as one member stream's replicas, so stream-level loss
        can still be zero.
        """
        return sum(
            stats["blackholed"] + stats["fault_lost"]
            + stats["fault_corrupted"]
            for stats in self.links.values()
        )

    @property
    def frer_eliminated(self) -> int:
        return sum(s["eliminated"] for s in self.frer.values())

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "timeline": list(self.timeline),
            "links": {k: dict(v) for k, v in self.links.items()},
            "frames_lost_in_failover": self.frames_lost_in_failover,
        }
        if self.frer:
            data["frer"] = {k: dict(v) for k, v in self.frer.items()}
        if self.gptp is not None:
            data["gptp"] = dict(self.gptp)
        return data


class FaultInjector:
    """Schedules and applies one plan's events on a built testbed.

    Target resolution happens eagerly at construction so a plan naming a
    link or switch that does not exist fails before the run starts, with
    the list of valid names in the error.
    """

    def __init__(
        self,
        plan: FaultPlan,
        sim,
        links,
        switches: Dict[str, Any],
        rng,
        sync_domain=None,
        metrics=None,
    ) -> None:
        self.plan = plan
        self._sim = sim
        self._links = list(links)
        self._switches = dict(switches)
        self._rng = rng
        self._sync_domain = sync_domain
        self._metrics = metrics
        self.executed: List[Dict[str, Any]] = []
        self._armed = False
        self._touched_links: Dict[str, Any] = {}
        self._seized: Dict[int, List[tuple]] = {}
        # (event index -> resolved target object) decided up front
        self._resolved: List[Any] = [
            self._resolve(index, event)
            for index, event in enumerate(plan.events)
        ]

    # ------------------------------------------------------------ resolution

    def _resolve(self, index: int, event: FaultEvent):
        kind = event.kind
        if kind in ("link_down", "link_up", "loss_burst", "corrupt_burst"):
            return self._resolve_link(index, event.target)
        if kind in ("gm_down", "gm_up"):
            if self._sync_domain is None:
                raise ConfigurationError(
                    f"faults.events[{index}]: {kind!r} needs gPTP "
                    f"(set enable_gptp in the scenario)"
                )
            if event.target not in self._sync_domain.nodes:
                raise ConfigurationError(
                    f"faults.events[{index}]: unknown gPTP node "
                    f"{event.target!r}; have "
                    f"{sorted(self._sync_domain.nodes)}"
                )
            return event.target
        if kind in ("clock_step", "freq_step", "buffer_shrink"):
            switch = self._switches.get(event.target)
            if switch is None:
                raise ConfigurationError(
                    f"faults.events[{index}]: unknown switch "
                    f"{event.target!r}; have {sorted(self._switches)}"
                )
            return switch
        raise ConfigurationError(f"unknown fault kind {kind!r}")

    def _resolve_link(self, index: int, target: str):
        exact = [link for link in self._links if link.name == target]
        if len(exact) == 1:
            return exact[0]
        prefixed = [
            link for link in self._links if link.name.startswith(target)
        ]
        if len(prefixed) == 1:
            return prefixed[0]
        names = sorted(link.name for link in self._links)
        if not prefixed:
            raise ConfigurationError(
                f"faults.events[{index}]: no link matches {target!r}; "
                f"have {names}"
            )
        raise ConfigurationError(
            f"faults.events[{index}]: {target!r} is ambiguous, matches "
            f"{sorted(link.name for link in prefixed)}"
        )

    # --------------------------------------------------------------- arming

    def arm(self, start_ns: int) -> None:
        """Schedule every event at ``start_ns + event.at_ns``."""
        if self._armed:
            raise ConfigurationError("fault plan already armed")
        self._armed = True
        for index, event in enumerate(self.plan.events):
            target = self._resolved[index]
            self._sim.post_at(
                start_ns + event.at_ns,
                lambda e=event, t=target, i=index: self._apply(e, t, i),
                priority=FAULT_EVENT_PRIORITY,
            )
            end = event.end_ns
            if end is not None:
                self._sim.post_at(
                    start_ns + end,
                    lambda e=event, t=target, i=index: self._clear(e, t, i),
                    priority=FAULT_EVENT_PRIORITY,
                )

    # ------------------------------------------------------------ application

    def _record(self, event: FaultEvent, detail: str) -> None:
        self.executed.append(
            {
                "time_ns": self._sim.now,
                "kind": event.kind,
                "target": event.target,
                "detail": detail,
            }
        )
        # A fault firing is exactly what a post-mortem wants pinned next to
        # the last kernel events, so annotate any attached flight recorder.
        flight = getattr(self._sim, "flight", None)
        if flight is not None:
            flight.note(
                f"fault.{event.kind}", detail, time_ns=self._sim.now
            )
        if self._metrics is not None:
            self._metrics.counter(
                "fault_events_total",
                help="fault-plan events applied, by kind",
            ).inc(kind=event.kind)

    def _apply(self, event: FaultEvent, target, index: int) -> None:
        kind = event.kind
        if kind == "link_down":
            target.fail()
            self._touched_links[target.name] = target
            self._record(event, f"{target.name} down")
        elif kind == "link_up":
            target.restore()
            self._touched_links[target.name] = target
            self._record(event, f"{target.name} up")
        elif kind == "loss_burst":
            target.set_fault_loss(
                event.rate, self._rng.stream(f"fault.{index}.loss")
            )
            self._touched_links[target.name] = target
            self._record(
                event, f"{target.name} losing {event.rate:g} of frames"
            )
        elif kind == "corrupt_burst":
            target.set_fault_corrupt(
                event.rate, self._rng.stream(f"fault.{index}.corrupt")
            )
            self._touched_links[target.name] = target
            self._record(
                event, f"{target.name} corrupting {event.rate:g} of frames"
            )
        elif kind == "gm_down":
            self._sync_domain.fail_node(target)
            self._record(event, f"grandmaster {target} dead")
        elif kind == "gm_up":
            self._sync_domain.restore_node(target)
            self._record(event, f"node {target} rejoined")
        elif kind == "clock_step":
            target.clock.step(event.offset_ns)
            self._record(
                event, f"{event.target} phase stepped {event.offset_ns}ns"
            )
        elif kind == "freq_step":
            target.clock.set_drift_ppm(event.drift_ppm)
            self._record(
                event,
                f"{event.target} oscillator now {event.drift_ppm:g}ppm",
            )
        elif kind == "buffer_shrink":
            seized: List[tuple] = []
            total = 0
            for pool in self._unique_pools(target):
                taken = pool.seize(event.slots)
                total += len(taken)
                seized.append((pool, taken))
            self._seized[index] = seized
            self._record(
                event, f"{event.target} pools shrunk by {total} slots"
            )

    def _clear(self, event: FaultEvent, target, index: int) -> None:
        kind = event.kind
        if kind == "link_down":
            target.restore()
            self._record(event, f"{target.name} up (auto)")
        elif kind == "loss_burst":
            target.set_fault_loss(0.0)
            self._record(event, f"{target.name} loss window over")
        elif kind == "corrupt_burst":
            target.set_fault_corrupt(0.0)
            self._record(event, f"{target.name} corruption window over")
        elif kind == "buffer_shrink":
            returned = 0
            for pool, taken in self._seized.pop(index, []):
                pool.unseize(taken)
                returned += len(taken)
            self._record(event, f"{event.target} pools restored ({returned})")

    @staticmethod
    def _unique_pools(switch) -> List[Any]:
        pools: List[Any] = []
        for port in switch.ports:
            if not any(port.pool is pool for pool in pools):
                pools.append(port.pool)
        return pools

    # ------------------------------------------------------------- reporting

    def report(self, frer_eliminators: Optional[Dict] = None) -> FaultReport:
        """Digest the run's recovery behaviour (call after the run ends)."""
        report = FaultReport(timeline=list(self.executed))
        for name in sorted(self._touched_links):
            report.links[name] = self._touched_links[name].fault_counters()
        for listener, eliminator in sorted((frer_eliminators or {}).items()):
            report.frer[listener] = {
                "eliminated": eliminator.duplicates_eliminated,
                "rogue": eliminator.rogue_frames,
            }
        domain = self._sync_domain
        if domain is not None:
            report.gptp = {
                "elections": domain.elections,
                "failover_latencies_ns": domain.failover_latencies_ns(),
                "grandmaster": (
                    domain.grandmaster.name
                    if domain._grandmaster is not None else None
                ),
                "max_abs_offset_ns": domain.max_abs_offset_ns(),
            }
        if self._metrics is not None:
            self._mirror_metrics(report)
        return report

    def _mirror_metrics(self, report: FaultReport) -> None:
        registry = self._metrics
        link_gauge = registry.gauge(
            "fault_link_frames_lost",
            help="frames destroyed on a faulted link, by cause",
        )
        for name, stats in report.links.items():
            link_gauge.set(stats["blackholed"], link=name, cause="blackhole")
            link_gauge.set(stats["fault_lost"], link=name, cause="loss")
            link_gauge.set(
                stats["fault_corrupted"], link=name, cause="corrupt"
            )
        if report.frer:
            frer_gauge = registry.gauge(
                "frer_duplicates_eliminated",
                help="FRER duplicates eliminated per listener",
            )
            rogue_gauge = registry.gauge(
                "frer_rogue_frames",
                help="FRER rogue (out-of-window) frames per listener",
            )
            for listener, stats in report.frer.items():
                frer_gauge.set(stats["eliminated"], listener=listener)
                rogue_gauge.set(stats["rogue"], listener=listener)
        if report.gptp is not None:
            registry.gauge(
                "gptp_elections",
                help="grandmaster elections during the run",
            ).set(report.gptp["elections"])
            latencies = report.gptp["failover_latencies_ns"]
            if latencies:
                registry.gauge(
                    "gptp_failover_latency_ns",
                    help="detection+election latency of the last healed "
                         "grandmaster failure",
                ).set(latencies[-1])
