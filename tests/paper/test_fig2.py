"""Paper Fig. 2: TS latency under varying background bandwidth.

Panel (a) sweeps Best-Effort background load, panel (b) Rate-Constrained
load, each for both Table I resource configurations.  The published shape:
TS latency and jitter are flat across the whole sweep, nothing is dropped
("the packet loss in all the experiments is 0"), and the two
configurations coincide -- the motivation for resource customization.
"""

import pytest

from repro.core.presets import customized_config
from repro.core.units import mbps
from repro.network.topology import linear_topology

from .harness import SLOT_NS, Panel, run

#: Background loads (total across talkers), the figure's x-axis.
LOADS_MBPS = (0, 100, 200, 400, 600)

CASES = {"case1": (16, 128), "case2": (12, 96)}


@pytest.mark.parametrize("background", ["BE", "RC"])
def test_fig2(background):
    means = {}
    for case, (depth, buffers) in CASES.items():
        series = Panel(f"Fig 2 ({background} background, {case})",
                       "load(Mbps)")
        config = customized_config(2, name=case, queue_depth=depth,
                                   buffer_num=buffers)
        for load in LOADS_MBPS:
            result = run(
                linear_topology(switch_count=3, talkers=["talker0"]),
                config=config,
                rc_bps=mbps(load) if background == "RC" else 0,
                be_bps=mbps(load) if background == "BE" else 0,
            )
            assert result.ts_loss == 0.0
            for counters in result.counters().values():
                assert counters["dropped_tail"] == 0
                assert counters["dropped_no_buffer"] == 0
            series.record(load, result)
        series.show()
        # The claim: latency/jitter of TS flows unaffected by background load.
        assert series.is_flat(key="mean", tolerance=0.02)
        assert all(j < SLOT_NS / 10 for j in series.jitters_ns)
        means[case] = series.means_ns
    # Case 1 and Case 2 overlap -- the 540 Kb of extra BRAM buys nothing.
    assert means["case1"] == pytest.approx(means["case2"], rel=0.01)
