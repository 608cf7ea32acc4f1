"""What a metrics registry reports, pinned by hash.

For every golden scenario (``tests/test_golden_outputs.py``) and every
scenario document under ``examples/``, ``tests/data/metrics_pins.json``
holds two sha256 values of one run watched by a :class:`MetricsRegistry`:

``snapshot``
    ``registry.snapshot()`` after the run, as sorted JSON;
``timeseries``
    the CSV of a :class:`TimeSeriesSampler` over that registry, sampling
    every ``duration_ns // 17`` -- gauges and counters read mid-run, not
    only at the end.

How the registry learns a value (pushed per frame or read from the
dataplane's own counters) is free to change; what it reports is not.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python -m tests.test_metrics_pins``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.network.scenario import ScenarioSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesSampler
from repro.switch.packet import reset_frame_ids
from tests.test_golden_outputs import (
    _DRR_TEMPLATES,
    PLAIN,
    SCENARIOS as GOLDEN_SCENARIOS,
)

PINS_PATH = Path(__file__).parent / "data" / "metrics_pins.json"

EXAMPLES = Path(__file__).parents[1] / "examples"

#: The documents ``ScenarioSpec.from_dict`` takes (sweeps and traces are
#: not scenarios).
EXAMPLE_SCENARIOS = {
    f"examples/{path.stem}": doc
    for path in sorted(EXAMPLES.glob("*.json"))
    for doc in [json.loads(path.read_text())]
    if isinstance(doc, dict) and "topology" in doc
}

SCENARIOS = {
    **{f"golden/{label}": doc for label, doc in GOLDEN_SCENARIOS.items()},
    **{f"plain/{label}": doc for label, doc in PLAIN.items()},
    **EXAMPLE_SCENARIOS,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pins(label: str) -> dict:
    reset_frame_ids()
    spec = ScenarioSpec.from_dict(SCENARIOS[label])
    if label == "golden/ring_drr":
        spec.extras["templates"] = _DRR_TEMPLATES
    registry = MetricsRegistry()
    testbed = spec.build_testbed(metrics=registry)
    sampler = TimeSeriesSampler(
        registry, testbed.sim, interval_ns=spec.duration_ns // 17
    )
    sampler.start()
    testbed.run(duration_ns=spec.duration_ns)
    assert sampler.samples_taken >= 17
    return {
        "snapshot": _sha(json.dumps(registry.snapshot(), sort_keys=True)),
        "timeseries": _sha(sampler.to_csv()),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_every_scenario_is_pinned(pinned):
    assert len(EXAMPLE_SCENARIOS) >= 5
    assert sorted(pinned) == sorted(SCENARIOS)


@pytest.mark.parametrize("label", sorted(SCENARIOS))
def test_metrics_match_pins(pinned, label):
    assert pins(label) == pinned[label]


if __name__ == "__main__":
    PINS_PATH.parent.mkdir(exist_ok=True)
    PINS_PATH.write_text(
        json.dumps(
            {label: pins(label) for label in sorted(SCENARIOS)},
            indent=1, sort_keys=True,
        ) + "\n"
    )
    print(f"wrote {PINS_PATH}")
