"""Validation texts of every malformed case refused today, pinned.

Each single-node malformation of the four example scenarios (and each
malformed pass-through extra on ``slo_star``) that validation refused
before the document checks moved onto one field table is held to the
exact problem list captured then, in ``data/spec_problem_pins.json``.
"""

import json

from repro.core.errors import SpecValidationError
from repro.network.scenario import ScenarioSpec
from tests.schema_cases import PIN_FILE, extra_cases, node_cases


def test_pinned_problem_lists():
    pins = json.loads(PIN_FILE.read_text())
    cases = dict((*node_cases(), *extra_cases()))
    assert set(pins) <= set(cases)
    observed = {}
    for case_id in pins:
        try:
            ScenarioSpec.from_dict(cases[case_id])
        except SpecValidationError as exc:
            observed[case_id] = exc.problems
        else:
            observed[case_id] = "accepted"
    assert observed == pins
