"""Sharded single-run simulation with conservative lookahead.

``run_sharded`` splits one scenario's topology across worker processes and
runs them as a conservatively synchronized parallel discrete-event
simulation (null-message / lookahead-window PDES):

* **Partitioning** happens at link boundaries: every switch is assigned to
  exactly one shard (a contiguous BFS block over the trunk graph by
  default, user-overridable through the scenario's ``"shard"`` stanza),
  hosts follow the switch they hang off, and a *cut link* is any link
  whose transmitter and receiver live in different shards.

* **Lookahead** comes from the cut links' propagation delay ``W``: a frame
  leaving its transmitter at time ``s`` cannot arrive before ``s + W``, so
  once the global minimum next-event time is ``T``, every shard can safely
  execute the window ``[T, T + W - 1]`` without ever receiving a frame it
  should already have seen.  Each epoch the coordinator gathers every
  shard's next-event time plus all in-flight cross-shard frames, computes
  the window, distributes pending frame handoffs, and barriers on the
  replies -- the null-message grant of classic conservative PDES, carried
  over one pipe per worker.

* **Determinism** is byte-level: every shard builds the *complete* testbed
  from the scenario document (all build-time RNG draws are name-keyed
  through :class:`~repro.sim.rng.RngFactory`, hence order-independent) but
  only *starts* the components it owns.  Same-instant event ties are
  broken by each link's topology-derived ``arrival_priority`` rather than
  by posting order, so a 1-shard and an N-shard run replay the identical
  event sequence per component.  Traces are merged under a canonical sort
  for every shard count, and the merged :class:`ScenarioResult` reproduces
  the single-process run's observables exactly -- traces, drop reports,
  headroom accounting, sweep rows.

Restrictions (raise :class:`~repro.core.errors.ConfigurationError`): gPTP
(``enable_gptp`` / ``gm_down`` / ``gm_up`` faults) needs a cross-shard sync
domain, SLO verdicts need cross-shard expected counts mid-run, and the
span/metrics/profiler/recorder observers assume one kernel; none of these
are supported in shard mode.  Zero propagation delay would collapse the
lookahead window and is rejected whenever a cut link exists.
"""

from __future__ import annotations

import math
import multiprocessing
import time
import traceback
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.errors import ConfigurationError, SimulationError

__all__ = ["plan_partition", "run_sharded", "shard_stanza"]

#: Sentinel for "calendar empty" in coordinator arithmetic.
_INF = math.inf

#: Counter fields of :class:`~repro.switch.counters.SwitchCounters` shipped
#: in a shard's state blob (``per_queue_enqueued`` travels separately).
_COUNTER_FIELDS = (
    "received", "forwarded", "transmitted", "dropped_unknown_dst",
    "dropped_policer", "dropped_gate", "dropped_tail",
    "dropped_no_buffer", "dropped_corrupt",
)

_QUEUE_STAT_FIELDS = (
    "enqueued", "enqueued_bytes", "dequeued", "tail_drops", "gate_drops",
    "high_water",
)

_POOL_STAT_FIELDS = (
    "allocations", "allocated_bytes", "releases", "exhaustion_drops",
    "high_water",
)

_METER_STAT_FIELDS = (
    "conformed_frames", "conformed_bytes", "violated_frames",
    "violated_bytes",
)

_LINK_COUNTER_FIELDS = (
    "frames_carried", "frames_corrupted", "frames_blackholed",
    "frames_fault_lost", "frames_fault_corrupted", "down_count",
)


# --------------------------------------------------------------- partitioning


def shard_stanza(scenario: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """The scenario's ``"shard"`` stanza, or ``None`` when absent/empty."""
    stanza = scenario.get("shard")
    if stanza is None:
        return None
    if not isinstance(stanza, Mapping):
        raise ConfigurationError(
            f"shard: expected an object, got {type(stanza).__name__}"
        )
    return dict(stanza)


def plan_partition(
    topology,
    count: int,
    assign: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Assign every switch to a shard index in ``[0, count)``.

    With *assign* given it must cover every switch (a partial map would
    make the partition depend on heuristic details the user cannot see).
    Otherwise switches are ordered by BFS over the (undirected) trunk
    graph -- started from the first switch in spec order, neighbors
    visited in spec order -- and split into ``count`` contiguous
    near-equal blocks.  For chains and rings this is the min-cut split;
    for stars it isolates branch groups.  The result is a pure function
    of the topology spec.
    """
    switches = list(topology.switch_ports)
    if count < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {count}")
    if count > len(switches):
        raise ConfigurationError(
            f"shard count {count} exceeds switch count {len(switches)}"
        )
    if assign is not None:
        missing = [s for s in switches if s not in assign]
        if missing:
            raise ConfigurationError(
                f"shard.assign must cover every switch; missing {missing}"
            )
        unknown = sorted(set(assign) - set(switches))
        if unknown:
            raise ConfigurationError(
                f"shard.assign names unknown switches {unknown}"
            )
        out: Dict[str, int] = {}
        for switch in switches:
            index = assign[switch]
            if not isinstance(index, int) or isinstance(index, bool) \
                    or not 0 <= index < count:
                raise ConfigurationError(
                    f"shard.assign.{switch}: expected an integer in "
                    f"[0, {count}), got {index!r}"
                )
            out[switch] = index
        used = set(out.values())
        empty = sorted(set(range(count)) - used)
        if empty:
            raise ConfigurationError(
                f"shard.assign leaves shards {empty} without any switch"
            )
        return out

    adjacency: Dict[str, List[str]] = {s: [] for s in switches}
    for trunk in topology.trunks:
        if trunk.dst not in adjacency[trunk.src]:
            adjacency[trunk.src].append(trunk.dst)
        if trunk.src not in adjacency[trunk.dst]:
            adjacency[trunk.dst].append(trunk.src)
    order: List[str] = []
    seen = set()
    for root in switches:  # spec order; later roots pick up disconnected bits
        if root in seen:
            continue
        frontier = [root]
        seen.add(root)
        while frontier:
            node = frontier.pop(0)
            order.append(node)
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
    base, extra = divmod(len(order), count)
    assignment: Dict[str, int] = {}
    cursor = 0
    for shard in range(count):
        size = base + (1 if shard < extra else 0)
        for switch in order[cursor:cursor + size]:
            assignment[switch] = shard
        cursor += size
    return assignment


def _host_shards(topology, assignment: Mapping[str, int]) -> Dict[str, int]:
    """Each host's shard: talkers follow their uplink switch, listeners
    their *first* attachment's switch (FRER listeners have two)."""
    shards: Dict[str, int] = {}
    for uplink in topology.uplinks:
        shards.setdefault(uplink.host, assignment[uplink.dst])
    for attachment in topology.attachments:
        shards.setdefault(attachment.host, assignment[attachment.switch])
    return shards


def _link_plan(
    topology, assignment: Mapping[str, int]
) -> List[Tuple[int, int]]:
    """Per link -- in :meth:`Testbed._wire_links` wiring order -- the
    ``(transmitting shard, receiving shard)`` pair."""
    host_shards = _host_shards(topology, assignment)
    plan: List[Tuple[int, int]] = []
    for trunk in topology.trunks:
        plan.append((assignment[trunk.src], assignment[trunk.dst]))
    for uplink in topology.uplinks:
        # The host NIC transmits; the host and its switch share a shard.
        plan.append((host_shards[uplink.host], assignment[uplink.dst]))
    for attachment in topology.attachments:
        plan.append(
            (assignment[attachment.switch], host_shards[attachment.host])
        )
    return plan


# ---------------------------------------------------------------- validation


def _validate_scenario(spec, shards: int) -> None:
    if spec.slo is not None:
        raise ConfigurationError(
            "shard mode does not support the 'slo' stanza: loss verdicts "
            "need cross-shard expected counts mid-run"
        )
    if spec.extras.get("enable_gptp"):
        raise ConfigurationError(
            "shard mode does not support enable_gptp: the sync domain "
            "spans shards"
        )
    if spec.faults is not None:
        for event in spec.faults.get("events", []):
            kind = event.get("kind") if isinstance(event, Mapping) else None
            if kind in ("gm_down", "gm_up"):
                raise ConfigurationError(
                    f"shard mode does not support {kind!r} fault events "
                    f"(no cross-shard gPTP domain)"
                )


# ------------------------------------------------------------- state capture


def _counters_blob(counters) -> Dict[str, Any]:
    blob = {name: getattr(counters, name) for name in _COUNTER_FIELDS}
    blob["per_queue"] = dict(counters.per_queue_enqueued)
    return blob


def _overlay_counters(counters, blob: Mapping[str, Any]) -> None:
    for name in _COUNTER_FIELDS:
        setattr(counters, name, blob[name])
    counters.per_queue_enqueued.clear()
    counters.per_queue_enqueued.update(blob["per_queue"])


def _switch_blob(switch) -> Dict[str, Any]:
    ports = []
    for port in switch.ports:
        ports.append({
            "queues": [
                {f: getattr(q.stats, f) for f in _QUEUE_STAT_FIELDS}
                for q in port.queues
            ],
            "pool": {
                f: getattr(port.pool.stats, f) for f in _POOL_STAT_FIELDS
            },
            "preemptions": port.preemptions,
        })
    meters = [
        (key, tuple(getattr(meter.stats, f) for f in _METER_STAT_FIELDS))
        for key, meter in switch.pipeline.meters
    ]
    return {
        "counters": _counters_blob(switch.counters),
        "ports": ports,
        "meters": meters,
    }


def _overlay_switch(switch, blob: Mapping[str, Any]) -> None:
    _overlay_counters(switch.counters, blob["counters"])
    for port, port_blob in zip(switch.ports, blob["ports"]):
        for queue, q_blob in zip(port.queues, port_blob["queues"]):
            for name in _QUEUE_STAT_FIELDS:
                setattr(queue.stats, name, q_blob[name])
        for name in _POOL_STAT_FIELDS:
            setattr(port.pool.stats, name, port_blob["pool"][name])
        port.preemptions = port_blob["preemptions"]
    meters = dict(blob["meters"])
    for key, meter in switch.pipeline.meters:
        stats = meters.get(key)
        if stats is not None:
            for name, value in zip(_METER_STAT_FIELDS, stats):
                setattr(meter.stats, name, value)


def _shard_state(testbed, owned, trace: bool) -> Dict[str, Any]:
    """Everything a shard measured about the components it owns."""
    state: Dict[str, Any] = {
        "switches": {
            name: _switch_blob(testbed.switches[name])
            for name in owned["switches"]
        },
        "hosts": {
            name: {
                "counters": _counters_blob(testbed.hosts[name].counters),
                "received": testbed.hosts[name].received,
            }
            for name in owned["hosts"]
        },
        "links": {
            testbed.links[i].name: {
                f: getattr(testbed.links[i], f)
                for f in _LINK_COUNTER_FIELDS
            }
            for i in owned["links"]
        },
    }
    analyzer = testbed.analyzer
    records = {}
    for flow in testbed.flows:
        if flow.dst in owned["hosts"]:
            record = analyzer.records[flow.flow_id]
            records[flow.flow_id] = {
                "latencies_ns": list(record.latencies_ns),
                "deadline_misses": record.deadline_misses,
                "duplicates": record.duplicates,
                "reorders": record.reorders,
                "last_seq": record._last_seq,
            }
    state["records"] = records
    state["unknown_frames"] = analyzer.unknown_frames
    state["expected"] = {
        source.flow_id: source.emitted
        for source in testbed._sources
        if source._inject.__self__.name in owned["hosts"]
    }
    state["frer"] = {
        listener: {
            flow_id: (ctx.accepted, ctx.discarded, ctx.rogue)
            for flow_id, ctx in eliminator._contexts.items()
        }
        for listener, eliminator in testbed.frer_eliminators.items()
        if listener in owned["hosts"]
    }
    injector = getattr(testbed, "fault_injector", None)
    if injector is not None:
        state["fault_timeline"] = list(injector.executed)
        state["fault_touched"] = sorted(injector._touched_links)
    state["trace"] = list(testbed.tracer.records) if trace else []
    state["sim_stats"] = testbed.sim.stats.as_dict()
    return state


# ------------------------------------------------------------- child process


def _owned_sets(
    topology, assignment: Mapping[str, int], shard_index: int
) -> Dict[str, Any]:
    host_shards = _host_shards(topology, assignment)
    link_plan = _link_plan(topology, assignment)
    return {
        "switches": {
            s for s, shard in assignment.items() if shard == shard_index
        },
        "hosts": {
            h for h, shard in host_shards.items() if shard == shard_index
        },
        # A link belongs to its transmitting side: carry-time accounting
        # (loss draws, fault counters) happens there.
        "links": [
            i for i, (src, _dst) in enumerate(link_plan)
            if src == shard_index
        ],
        "cut_out": [
            i for i, (src, dst) in enumerate(link_plan)
            if src == shard_index and dst != shard_index
        ],
        "cut_in": [
            i for i, (src, dst) in enumerate(link_plan)
            if dst == shard_index and src != shard_index
        ],
    }


def _export_frame(frame) -> Tuple:
    """The frame's fields in ``EthernetFrame`` order, less the frame id."""
    return (
        frame.src_mac, frame.dst_mac, frame.vlan_id, frame.pcp,
        frame.size_bytes, frame.flow_id, frame.seq, frame.created_ns,
        frame.fcs_ok,
    )


def _import_frame(payload: Tuple):
    from repro.switch.packet import EthernetFrame

    return EthernetFrame(*payload)


def _build_replica(scenario: Mapping[str, Any], trace: bool):
    """Build the full testbed the way every shard (and the coordinator)
    must: reset the process-global counter the build consumes, so frame
    ids agree across processes regardless of fork timing."""
    from repro.network.scenario import ScenarioSpec
    from repro.sim.trace import NULL_TRACER, Tracer
    from repro.switch.packet import reset_frame_ids

    reset_frame_ids()
    payload = {k: v for k, v in scenario.items() if k != "shard"}
    spec = ScenarioSpec.from_dict(payload, strict=False)
    tracer = Tracer() if trace else NULL_TRACER
    testbed = spec.build_testbed(tracer=tracer)
    testbed.build()
    return spec, testbed


def _start_owned(testbed, owned, duration_ns: int) -> None:
    """Replicate ``Testbed.run``'s start sequence for owned components."""
    from repro.faults.injector import FaultInjector
    from repro.traffic.generator import PeriodicSource

    if testbed.fault_plan is not None:
        testbed.fault_injector = FaultInjector(
            testbed.fault_plan,
            sim=testbed.sim,
            links=testbed.links,
            switches=testbed.switches,
            rng=testbed.rng,
            sync_domain=None,
            metrics=None,
        )
        testbed.fault_injector.arm(testbed.sim.now)
    for name in owned["switches"]:
        testbed.switches[name].start()
    for name in owned["hosts"]:
        testbed.hosts[name].start()
    for source in testbed._sources:
        if source._inject.__self__.name not in owned["hosts"]:
            continue
        if isinstance(source, PeriodicSource):
            remaining = duration_ns - source.offset_ns
            source.limit = max(0, -(-remaining // source.period_ns))
        else:
            source.until_ns = testbed.sim.now + duration_ns
        source.start()


def _shard_worker(
    conn,
    scenario: Dict[str, Any],
    shard_index: int,
    assignment: Dict[str, int],
    duration_ns: int,
    trace: bool,
) -> None:
    """One shard's process: build everything, run only what it owns."""
    try:
        _spec, testbed = _build_replica(scenario, trace)
        owned = _owned_sets(testbed.topology, assignment, shard_index)
        outbox: List[Tuple[int, int, Tuple]] = []

        def _diverter(index: int):
            def handoff(arrival_ns: int, frame) -> None:
                outbox.append((index, arrival_ns, _export_frame(frame)))

            return handoff

        for index in owned["cut_out"]:
            testbed.links[index].divert(_diverter(index))
        _start_owned(testbed, owned, duration_ns)
        sim = testbed.sim
        busy_s = 0.0
        conn.send(("ready", sim.peek()))
        while True:
            message = conn.recv()
            command = message[0]
            if command == "window":
                _cmd, until, injections = message
                for index, arrival_ns, payload in injections:
                    link = testbed.links[index]
                    frame = _import_frame(payload)
                    sim.post_at(
                        arrival_ns,
                        (lambda l, f: lambda: l.deliver(f))(link, frame),
                        link.arrival_priority,
                    )
                started = time.perf_counter()
                sim.run(until=until)
                busy_s += time.perf_counter() - started
                conn.send(("done", list(outbox), sim.peek()))
                outbox.clear()
            elif command == "finish":
                _cmd, until = message
                if until > sim.now:
                    started = time.perf_counter()
                    sim.run(until=until)
                    busy_s += time.perf_counter() - started
                state = _shard_state(testbed, owned, trace)
                state["busy_s"] = busy_s
                conn.send(("state", state))
                break
            else:  # pragma: no cover - protocol misuse
                raise SimulationError(f"unknown shard command {command!r}")
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


# -------------------------------------------------------------- coordinator


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _trace_sort_key(record) -> Tuple:
    return (record.time, record.category, record.message, repr(record.fields))


def _merge_sim_stats(per_shard: List[Dict[str, int]]) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for stats in per_shard:
        for key, value in stats.items():
            if key == "calendar_high_water":
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def run_sharded(
    scenario: Union[Mapping[str, Any], Any],
    shards: Optional[int] = None,
    trace: bool = False,
    drain_slots: int = 8,
):
    """Run one scenario partitioned over *shards* worker processes.

    *scenario* is a scenario document (or a :class:`ScenarioSpec`, taken
    via ``to_dict``).  *shards* overrides the document's
    ``shard.count``; with neither, 1.  Returns a
    :class:`~repro.network.testbed.ScenarioResult` whose observables --
    traces (canonically sorted), drop/headroom reports, counters,
    latency records, fault digests -- are byte-identical for every shard
    count.  Wall-clock shard telemetry rides on the result's
    ``shard_timing`` attribute.
    """
    from repro.faults.injector import FaultReport
    from repro.network.testbed import ScenarioResult

    if hasattr(scenario, "to_dict"):
        scenario = scenario.to_dict()
    scenario = dict(scenario)
    stanza = shard_stanza(scenario) or {}
    count = shards if shards is not None else stanza.get("count", 1)
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ConfigurationError(
            f"shard count must be an integer >= 1, got {count!r}"
        )

    wall_started = time.perf_counter()
    # The coordinator's replica never runs, but it must carry a real
    # Tracer when tracing so the merged records have somewhere to live
    # (NULL_TRACER is a shared singleton).
    spec, testbed = _build_replica(scenario, trace=trace)
    _validate_scenario(spec, count)
    assignment = plan_partition(
        testbed.topology, count, stanza.get("assign")
    )
    link_plan = _link_plan(testbed.topology, assignment)
    cut_exists = any(src != dst for src, dst in link_plan)
    if cut_exists and testbed.propagation_ns <= 0:
        raise ConfigurationError(
            "shard mode needs propagation_ns > 0: the cut links' "
            "propagation delay is the conservative lookahead window"
        )
    lookahead = testbed.propagation_ns if cut_exists else _INF
    duration_ns = spec.duration_ns
    drain_slot_ns = (
        testbed.sched.slot2_ns(testbed.slot_ns)
        if testbed.shaper == "multi_cqf"
        else testbed.slot_ns
    )
    t_end = duration_ns + drain_slots * drain_slot_ns

    receiver_of = {
        index: dst for index, (src, dst) in enumerate(link_plan)
        if src != dst
    }
    context = _mp_context()
    children = []
    try:
        for shard in range(count):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker,
                args=(
                    child_conn, scenario, shard, assignment, duration_ns,
                    trace,
                ),
                name=f"repro-shard-{shard}",
            )
            process.start()
            child_conn.close()
            children.append((process, parent_conn))

        def _recv(conn):
            try:
                message = conn.recv()
            except EOFError:
                raise SimulationError(
                    "a shard worker died without reporting an error"
                )
            if message[0] == "error":
                raise SimulationError(
                    f"shard worker failed:\n{message[1]}"
                )
            return message

        peeks: List[float] = []
        for _process, conn in children:
            _tag, peek = _recv(conn)
            peeks.append(_INF if peek is None else peek)
        pending: List[List[Tuple[int, int, Tuple]]] = [
            [] for _ in range(count)
        ]
        epochs = 0
        while True:
            t_min = min(
                min(peeks),
                min(
                    (
                        arrival
                        for inbox in pending
                        for (_i, arrival, _f) in inbox
                    ),
                    default=_INF,
                ),
            )
            if t_min > t_end:
                break
            window_end = (
                t_end if lookahead is _INF
                else min(int(t_min) + int(lookahead) - 1, t_end)
            )
            for shard, (_process, conn) in enumerate(children):
                conn.send(("window", window_end, pending[shard]))
                pending[shard] = []
            epochs += 1
            for shard, (_process, conn) in enumerate(children):
                _tag, outbox, peek = _recv(conn)
                peeks[shard] = _INF if peek is None else peek
                for index, arrival_ns, payload in outbox:
                    pending[receiver_of[index]].append(
                        (index, arrival_ns, payload)
                    )
        states: List[Dict[str, Any]] = []
        for _process, conn in children:
            conn.send(("finish", t_end))
        for _process, conn in children:
            _tag, state = _recv(conn)
            states.append(state)
    finally:
        for process, conn in children:
            conn.close()
            process.join(timeout=30)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join()
    wall_s = time.perf_counter() - wall_started

    # ---- overlay every shard's owned state onto the coordinator replica
    expected: Dict[int, int] = {}
    for shard, state in enumerate(states):
        for name, blob in state["switches"].items():
            _overlay_switch(testbed.switches[name], blob)
        for name, blob in state["hosts"].items():
            host = testbed.hosts[name]
            _overlay_counters(host.counters, blob["counters"])
            host.received = blob["received"]
        links_by_name = {link.name: link for link in testbed.links}
        for name, counters in state["links"].items():
            link = links_by_name[name]
            for field_name, value in counters.items():
                setattr(link, field_name, value)
        for flow_id, blob in state["records"].items():
            record = testbed.analyzer.records[flow_id]
            record.latencies_ns = list(blob["latencies_ns"])
            record.deadline_misses = blob["deadline_misses"]
            record.duplicates = blob["duplicates"]
            record.reorders = blob["reorders"]
            record._last_seq = blob["last_seq"]
        for listener, contexts in state["frer"].items():
            eliminator = testbed.frer_eliminators[listener]
            for flow_id, (accepted, discarded, rogue) in contexts.items():
                recovery = eliminator._contexts.get(flow_id)
                if recovery is None:
                    from repro.frer.elimination import SequenceRecovery

                    recovery = SequenceRecovery(
                        eliminator._history_length
                    )
                    eliminator._contexts[flow_id] = recovery
                recovery.accepted = accepted
                recovery.discarded = discarded
                recovery.rogue = rogue
        expected.update(state["expected"])
    testbed.analyzer.unknown_frames = sum(
        state["unknown_frames"] for state in states
    )
    expected = {
        flow.flow_id: expected[flow.flow_id]
        for flow in testbed.flows
        if flow.flow_id in expected
    }

    fault_report = None
    if testbed.fault_plan is not None:
        # Every shard armed the identical plan, so shard 0's timeline is
        # *the* timeline; link counters come from the overlaid (owning)
        # replicas so a fault on a cut link is counted exactly once.
        fault_report = FaultReport(timeline=list(states[0]["fault_timeline"]))
        links_by_name = {link.name: link for link in testbed.links}
        touched = sorted(
            set().union(*(state["fault_touched"] for state in states))
        )
        for name in touched:
            fault_report.links[name] = links_by_name[name].fault_counters()
        for listener, eliminator in sorted(testbed.frer_eliminators.items()):
            fault_report.frer[listener] = {
                "eliminated": eliminator.duplicates_eliminated,
                "rogue": eliminator.rogue_frames,
            }

    if trace:
        merged = [
            record for state in states for record in state["trace"]
        ]
        merged.sort(key=_trace_sort_key)
        testbed.tracer.records = merged

    busy = [state["busy_s"] for state in states]
    result = ScenarioResult(
        duration_ns=duration_ns,
        slot_ns=testbed.slot_ns,
        expected_by_flow=expected,
        analyzer=testbed.analyzer,
        flows=testbed.flows,
        switches=testbed.switches,
        itp_plan=testbed.itp_plan,
        sched_plan=testbed.sched_plan,
        metrics=None,
        tracer=testbed.tracer,
        sim_stats=_merge_sim_stats([s["sim_stats"] for s in states]),
        spans=None,
        slo=None,
        links=testbed.links,
        frer_eliminators=testbed.frer_eliminators,
        faults=fault_report,
        headroom=None,
    )
    # Wall-clock telemetry (nondeterministic by nature) rides outside the
    # deterministic result fields.  ``critical_path_s`` projects the
    # barrier-synchronized runtime onto unlimited cores: the slowest
    # shard's busy time plus everything that was not shard work.
    coordination_s = max(0.0, wall_s - sum(busy))
    result.base_config = testbed.base_config
    result.shard_timing = {
        "shards": count,
        "epochs": epochs,
        "wall_s": wall_s,
        "busy_s": busy,
        "critical_path_s": (max(busy) if busy else 0.0) + coordination_s,
    }
    return result
