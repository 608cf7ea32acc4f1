"""Malformed documents fail with a document path, or build.

Every single-node malformation of four example scenarios, and every
pass-through extra added to ``slo_star`` with a malformed value, either
is refused by validation with problems that each start with a document
path, or builds.  A domain error is allowed only for the rules spanning
fields that the document check leaves to the builders, listed below.
"""

import re

import pytest

from repro.core.errors import SchedulingError, SpecValidationError
from repro.network.scenario import ScenarioSpec
from tests.schema_cases import extra_cases, node_cases

#: (error type, message fragment, why the document check leaves it).
CROSS_FIELD_RULES = (
    (SchedulingError, "does not divide the flows' scheduling cycle",
     "a slot must divide every period: a rule across slot_us and periods"),
    (SchedulingError, "is not a multiple of the slot",
     "a period must be a multiple of the slot: the same rule"),
    (SchedulingError, "cannot size a switch for zero flows",
     "a flow set with no flows at all: ts_count, groups, rc and be"),
)

PATH = re.compile(r"^(\$|[A-Za-z_]\w*(\.\w+|\[\d+\])*): ")


def _outcome(doc):
    try:
        ScenarioSpec.from_dict(doc).build_testbed().build()
    except SpecValidationError as exc:
        unpathed = [p for p in exc.problems if not PATH.match(p)]
        return f"problems without a path: {unpathed}" if unpathed else None
    except Exception as exc:  # the assertion below names it
        for kind, fragment, _ in CROSS_FIELD_RULES:
            if isinstance(exc, kind) and fragment in str(exc):
                return None
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.mark.parametrize("cases,count", [(node_cases, 904), (extra_cases, 96)],
                         ids=["node_cases", "extra_cases"])
def test_every_case_fails_with_a_path_or_builds(cases, count):
    outcomes = {case_id: _outcome(doc) for case_id, doc in cases()}
    assert len(outcomes) == count
    assert {case: out for case, out in outcomes.items() if out} == {}
