"""Single-node malformations of shipped scenario documents.

Every key, list item and sub-object of four example scenarios is set, one
at a time, to each of eight malformed values; a second set adds every
pass-through extra key to ``slo_star`` with the same eight values.  The
oracle pins (``test_schema_pins.py``) and the fuzz test
(``test_schema_fuzz.py``) read these cases from here.

Regenerate the pins only on an intended text change:
``PYTHONPATH=src python -m tests.schema_cases``.
"""

import copy
import json
from pathlib import Path

EXAMPLES = Path(__file__).parents[1] / "examples"
PIN_FILE = Path(__file__).parent / "data" / "spec_problem_pins.json"

DOCUMENTS = ("sched_mixed_cell", "faults_ring", "slo_star", "headroom_case2")

#: The eight malformed values every node is set to.
VALUES = (None, "x", -1, 0, 1.5, True, [], {})


def _nodes(tree, prefix=()):
    """Every non-root node of *tree* as a tuple of keys / list indices."""
    items = (
        tree.items() if isinstance(tree, dict)
        else enumerate(tree) if isinstance(tree, list) else ()
    )
    for key, child in items:
        path = prefix + (key,)
        yield path
        yield from _nodes(child, path)


def _label(path):
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}"
    return text.lstrip(".")


def _set(tree, path, value):
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def load(name):
    return json.loads((EXAMPLES / f"{name}.json").read_text())


def node_cases():
    """``(case id, document)`` for every single-node malformation."""
    for name in DOCUMENTS:
        base = load(name)
        for path in _nodes(base):
            for value in VALUES:
                doc = copy.deepcopy(base)
                _set(doc, path, copy.deepcopy(value))
                yield f"{name}:{_label(path)}={json.dumps(value)}", doc


def known_extra_keys():
    """The scenario keys accepted because :class:`RunPlan` has them."""
    from repro.network import scenario

    return frozenset(scenario._EXTRAS.index)


def extra_cases():
    """``(case id, document)`` adding each pass-through extra to slo_star."""
    base = load("slo_star")
    for key in sorted(known_extra_keys()):
        for value in VALUES:
            doc = copy.deepcopy(base)
            doc[key] = copy.deepcopy(value)
            yield f"slo_star+{key}={json.dumps(value)}", doc


def current_pins():
    """Case id -> problem list for every case refused by validation."""
    from repro.core.errors import SpecValidationError
    from repro.network.scenario import ScenarioSpec

    pins = {}
    for case_id, doc in (*node_cases(), *extra_cases()):
        try:
            ScenarioSpec.from_dict(doc)
        except SpecValidationError as exc:
            pins[case_id] = exc.problems
        except Exception:  # not refused by validation: not pinned
            pass
    return pins


if __name__ == "__main__":
    PIN_FILE.write_text(json.dumps(current_pins(), indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {PIN_FILE}")
