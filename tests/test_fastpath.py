"""Fast-path equivalence: batch vs. object frame path.

The struct-of-arrays :class:`~repro.switch.batch.FrameBatch` is pure
performance work: on identical scenarios every observable -- JSONL trace,
frame-level latency trace, drop report, headroom accounting, SimStats,
campaign sweep rows -- must be byte-identical to the plain object path.
These tests lock that contract across CQF and Qbv gating, multi-hop
topologies, fault injection (corruption must materialize per-link copies,
not poison the shared columns) and FRER replication/elimination.
"""

import json

import pytest

from repro.core.errors import ConfigurationError
from repro.network.scenario import ScenarioSpec, known_extra_keys
from repro.obs.headroom import HeadroomRecorder
from repro.sim.trace import Tracer
from repro.switch.batch import FrameBatch
from repro.switch.packet import EthernetFrame

SCENARIOS = {
    "star_cqf": {
        "name": "star-fp",
        "topology": {
            "kind": "star",
            "talkers": ["talker0", "talker1"],
            "listener": "listener",
        },
        "flows": {
            "ts_count": 8,
            "period_us": 2000,
            "size_bytes": 64,
            "rc_mbps": 100,
            "be_mbps": 100,
        },
        "duration_ms": 8,
    },
    "ring_cqf": {
        "name": "ring-fp",
        "topology": {
            "kind": "ring",
            "switch_count": 3,
            "talkers": ["talker0"],
            "listener": "listener",
        },
        "flows": {
            "ts_count": 8,
            "period_us": 2000,
            "size_bytes": 64,
            "rc_mbps": 100,
            "be_mbps": 50,
        },
        "duration_ms": 8,
    },
    "linear_qbv": {
        "name": "linear-fp",
        "topology": {
            "kind": "linear",
            "switch_count": 2,
            "talkers": ["talker0"],
            "listener": "listener",
        },
        "flows": {"ts_count": 8, "period_us": 2000, "size_bytes": 128},
        "duration_ms": 8,
        "gate_mechanism": "qbv",
    },
    "faulted_star": {
        "name": "faulted-fp",
        "topology": {
            "kind": "star",
            "talkers": ["talker0"],
            "listener": "listener",
        },
        "flows": {"ts_count": 8, "period_us": 1000, "size_bytes": 64},
        "config": "derive",
        "slot_us": 62.5,
        "duration_ms": 12,
        "seed": 7,
        "faults": {"events": [
            {"kind": "corrupt_burst", "link": "leaf0.p0", "at_us": 2_000,
             "duration_us": 2_000, "rate": 0.5},
            {"kind": "link_down", "link": "leaf0.p0", "at_us": 8_000},
        ]},
    },
    "frer_ring": {
        "name": "frer-fp",
        "topology": {
            "kind": "frer_ring",
            "switch_count": 4,
            "talkers": ["talker0"],
            "listener": "listener",
        },
        "flows": {"ts_count": 8, "period_us": 2000, "size_bytes": 64},
        "config": "derive",
        "slot_us": 62.5,
        "duration_ms": 12,
        "seed": 7,
        "frer_ts": True,
    },
}


def _trace_jsonl(tracer):
    """The trace as JSONL -- compared byte-for-byte across paths."""
    return "\n".join(
        json.dumps([r.time, r.category, r.message, list(r.fields)])
        for r in tracer.records
    )


def _observe(doc, fastpath_mode):
    """Every cross-path observable from one run of *doc*."""
    spec = ScenarioSpec.from_dict({**doc, "fastpath": fastpath_mode})
    tracer = Tracer()
    headroom = HeadroomRecorder()
    result = spec.run(tracer=tracer, headroom=headroom)
    frame_trace = {
        flow_id: (
            tuple(rec.latencies_ns),
            rec.deadline_misses,
            rec.duplicates,
            rec.reorders,
        )
        for flow_id, rec in sorted(result.analyzer.records.items())
    }
    return {
        "trace_jsonl": _trace_jsonl(tracer),
        "frame_trace": frame_trace,
        "drop_report": result.drop_report(),
        "sim_stats": result.sim_stats,
        "headroom": result.headroom_report().as_dict(),
        "received": result.analyzer.received(),
    }


class TestEquivalence:
    """Object path == batch path, observable for observable."""

    @pytest.mark.parametrize("label", sorted(SCENARIOS))
    def test_batch_path_identical(self, label):
        doc = SCENARIOS[label]
        objects = _observe(doc, "off")
        batched = _observe(doc, "on")
        assert batched["trace_jsonl"] == objects["trace_jsonl"]
        assert batched["frame_trace"] == objects["frame_trace"]
        assert batched["drop_report"] == objects["drop_report"]
        assert batched["sim_stats"] == objects["sim_stats"]
        assert batched["headroom"] == objects["headroom"]
        # Not vacuous: traffic flowed and the trace recorded it.
        assert objects["received"] > 0
        assert objects["trace_jsonl"]

    def test_faulted_scenario_actually_drops(self):
        # The corruption/cut equivalence above must cover real drops.
        observed = _observe(SCENARIOS["faulted_star"], "on")
        assert "0 dropped" not in observed["drop_report"].splitlines()[0]

    def test_frer_scenario_actually_replicates(self):
        observed = _observe(SCENARIOS["frer_ring"], "on")
        assert observed["received"] > 0


class TestSweepRows:
    """Campaign rows are identical across paths and workers."""

    def _doc(self, fastpath_mode):
        base = {
            **SCENARIOS["star_cqf"],
            "duration_ms": 5,
            "fastpath": fastpath_mode,
        }
        return {
            "name": "fastpath-sweep",
            "base": base,
            "grid": {"flows.ts_count": [4, 8]},
        }

    def _rows(self, tmp_path, fastpath_mode, workers, tag):
        from repro.campaign import Campaign, SweepSpec

        spec = SweepSpec.from_dict(self._doc(fastpath_mode))
        jsonl = tmp_path / f"rows-{tag}.jsonl"
        Campaign(spec, workers=workers, ledger=None).run(jsonl=jsonl)
        rows = [
            json.loads(line)
            for line in jsonl.read_text().splitlines() if line
        ]
        return sorted(rows, key=lambda r: r["index"])

    def test_rows_identical_across_paths_and_workers(self, tmp_path):
        reference = self._rows(tmp_path, "off", 1, "off-1w")
        assert self._rows(tmp_path, "on", 1, "on-1w") == reference
        assert self._rows(tmp_path, "on", 2, "on-2w") == reference


class TestTestbedFastpath:
    def _testbed(self, fastpath_mode, spans=None):
        doc = {**SCENARIOS["star_cqf"], "fastpath": fastpath_mode}
        return ScenarioSpec.from_dict(doc).build_testbed(spans=spans)

    def test_invalid_mode_raises(self):
        with pytest.raises(ConfigurationError):
            self._testbed("maybe")

    def test_on_enables_batch(self):
        assert isinstance(self._testbed("on").batch, FrameBatch)

    def test_off_disables_batch(self):
        assert self._testbed("off").batch is None

    def test_auto_enables_batch_without_spans(self):
        assert isinstance(self._testbed("auto").batch, FrameBatch)

    def test_auto_disables_batch_with_spans(self):
        from repro.obs.flowspans import FlowSpanRecorder

        testbed = self._testbed("auto", spans=FlowSpanRecorder())
        assert testbed.batch is None

    def test_scenario_accepts_fastpath_key(self):
        assert "fastpath" in known_extra_keys()


class TestFrameBatch:
    def test_alloc_materialize_roundtrip(self):
        batch = FrameBatch(capacity=2)
        handle = batch.alloc(
            src_mac=0x1, dst_mac=0x2, vlan_id=100, pcp=6,
            size_bytes=64, flow_id=7, seq=3, created_ns=1_000,
        )
        frame = batch.materialize(handle)
        assert isinstance(frame, EthernetFrame)
        assert (frame.src_mac, frame.dst_mac, frame.vlan_id) == (1, 2, 100)
        assert (frame.pcp, frame.size_bytes) == (6, 64)
        assert (frame.flow_id, frame.seq, frame.created_ns) == (7, 3, 1_000)
        assert frame.fcs_ok

    def test_handles_are_dense_and_grow(self):
        batch = FrameBatch(capacity=2)
        handles = [
            batch.alloc(1, 2, 100, 6, 64, flow_id=i, seq=i, created_ns=i)
            for i in range(5)
        ]
        assert handles == [0, 1, 2, 3, 4]
        assert len(batch) == 5
        assert [batch.flow_id[h] for h in handles] == [0, 1, 2, 3, 4]

    def test_shares_frame_id_counter_with_objects(self):
        batch = FrameBatch()
        handle = batch.alloc(1, 2, 100, 6, 64, 0, 0, 0)
        frame = EthernetFrame(
            src_mac=1, dst_mac=2, vlan_id=100, pcp=6, size_bytes=64,
            flow_id=0, seq=1, created_ns=0,
        )
        assert frame.frame_id == batch.frame_id[handle] + 1
        assert batch.materialize(handle).frame_id == batch.frame_id[handle]

    def test_materialize_fcs_override_is_per_copy(self):
        batch = FrameBatch()
        handle = batch.alloc(1, 2, 100, 6, 64, 0, 0, 0)
        corrupted = batch.materialize(handle, fcs_ok=False)
        assert not corrupted.fcs_ok
        # The shared column is untouched: other links' copies stay clean.
        assert batch.fcs_ok[handle] == 1
        assert batch.materialize(handle).fcs_ok

    def test_multicast_bit(self):
        batch = FrameBatch()
        unicast = batch.alloc(1, 0x001122334455, 100, 6, 64, 0, 0, 0)
        multicast = batch.alloc(1, 0x011122334455, 100, 6, 64, 0, 1, 0)
        assert not batch.is_multicast(unicast)
        assert batch.is_multicast(multicast)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FrameBatch(capacity=0)
