"""Resource descriptors and reports (the Fig. 4 abstraction)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.resources import (
    BufferResource,
    Component,
    QueueResource,
    ReportRow,
    ResourceReport,
    Sharing,
    TableResource,
)


def _switch_tbl(size=1024, instances=1):
    return TableResource(
        name="Switch Tbl",
        component=Component.PACKET_SWITCH,
        entry_width=72,
        size=size,
        sharing=Sharing.SHARED,
        instances=instances,
    )


class TestTableResource:
    def test_single_instance_cost(self):
        assert _switch_tbl().kb == 72

    def test_instances_multiply(self):
        assert _switch_tbl(instances=4).kb == 4 * 72

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            _switch_tbl(size=0)

    def test_rejects_zero_instances(self):
        with pytest.raises(ConfigurationError):
            _switch_tbl(instances=0)

    def test_gate_pair_matches_paper(self):
        gate = TableResource(
            name="Gate Tbl",
            component=Component.GATE_CTRL,
            entry_width=17,
            size=2,
            sharing=Sharing.PER_PORT,
            instances=2 * 4,  # in+out per port, 4 ports
        )
        assert gate.kb == 144


class TestQueueResource:
    def test_commercial_queues(self):
        q = QueueResource(depth=16, queue_num=8, port_num=4)
        assert q.kb == 576
        assert q.instances == 32

    def test_customized_queues(self):
        assert QueueResource(depth=12, queue_num=8, port_num=3).kb == 432

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"depth": 0, "queue_num": 8, "port_num": 1},
            {"depth": 8, "queue_num": 0, "port_num": 1},
            {"depth": 8, "queue_num": 8, "port_num": 0},
            {"depth": 8, "queue_num": 8, "port_num": 1, "metadata_width": 0},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ConfigurationError):
            QueueResource(**kwargs)


class TestBufferResource:
    def test_commercial_buffers(self):
        assert BufferResource(buffer_num=128, port_num=4).kb == 8640

    def test_customized_buffers(self):
        assert BufferResource(buffer_num=96, port_num=1).kb == 1620

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            BufferResource(buffer_num=0, port_num=1)
        with pytest.raises(ConfigurationError):
            BufferResource(buffer_num=96, port_num=0)


class TestResourceReport:
    def _report(self, title, kbs):
        report = ResourceReport(title)
        for i, kb in enumerate(kbs):
            report.add(
                ReportRow(
                    resource=f"r{i}",
                    width_label="8b",
                    parameters=(kb,),
                    bits=kb * 1024,
                )
            )
        return report

    def test_total(self):
        assert self._report("a", [10, 20, 30]).total_kb == 60

    def test_row_lookup(self):
        report = self._report("a", [10, 20])
        assert report.row("r1").kb == 20
        with pytest.raises(KeyError):
            report.row("missing")

    def test_reduction(self):
        base = self._report("base", [100])
        small = self._report("small", [20])
        assert small.reduction_vs(base) == pytest.approx(0.8)

    def test_reduction_zero_baseline_rejected(self):
        base = ResourceReport("empty")
        with pytest.raises(ConfigurationError):
            self._report("x", [1]).reduction_vs(base)

    def test_as_dict_has_total(self):
        data = self._report("a", [10, 20]).as_dict()
        assert data["Total"] == 30
        assert data["r0"] == 10

    def test_kb_label(self):
        row = ReportRow("r", "8b", (1,), bits=1536)
        assert row.kb_label == "1.5Kb"
