"""The output checks flag what they should and pass what they should."""

from pathlib import Path

import pytest

import e2e_workloads as workloads
from e2e_compare import verdict

SLOT = 62_500


def test_eq1_checker_flags_a_hand_made_out_of_bound_latency():
    # 3 hops: window is [2*T, 4*T]
    inside = [2 * SLOT, 3 * SLOT, 4 * SLOT]
    assert workloads.eq1_violations([(3, inside)], SLOT) == 0
    assert workloads.eq1_violations([(3, inside + [4 * SLOT + 1])], SLOT) == 1
    assert workloads.eq1_violations(
        [(3, inside), (1, [2 * SLOT + 1, -1])], SLOT
    ) == 2


@pytest.fixture(scope="module")
def ring_run(tmp_path_factory):
    workload = workloads.WORKLOADS["ring_deep"]
    docs = workload.documents(seed=3, smoke=True)
    spec, testbed = workload._ready(docs["scenario"], observed=False)
    result = testbed.run(duration_ns=spec.duration_ns)
    outcome = workload.run(docs, tmp_path_factory.mktemp("work"))
    return testbed, result, outcome


def test_hops_equals_sum_of_transmitted(ring_run):
    _, result, outcome = ring_run
    per_switch = [c["transmitted"] for c in result.counters().values()]
    assert workloads.switch_hops(result) == sum(per_switch) > 0
    assert outcome.work == outcome.counts["hops"] == sum(per_switch)
    assert outcome.failed == 0 and outcome.problems == []


def test_conservation_accounts_for_frames_still_in_flight(ring_run):
    testbed, result, _ = ring_run
    where = workloads.conservation(testbed, result)
    in_flight = where["in_ports"] + where["in_cables"] + where["in_processing"]
    assert min(where.values()) >= 0
    assert where["emitted"] == where["delivered"] + where["dropped"] + in_flight
    # a 16-switch ring stopped 8 slots after the last injection is not empty
    assert in_flight > 0
    # and a frame that vanishes is noticed
    result.links[0].frames_carried += 1
    tampered = workloads.conservation(testbed, result)
    result.links[0].frames_carried -= 1
    assert tampered["emitted"] != (
        tampered["delivered"] + tampered["dropped"] + tampered["in_ports"]
        + tampered["in_cables"] + tampered["in_processing"]
    )


def test_same_seed_same_digest_other_seed_other_digest(tmp_path):
    workload = workloads.WORKLOADS["star_dense"]
    one = workload.run(workload.documents(5, True), tmp_path)
    again = workload.run(workload.documents(5, True), tmp_path)
    other = workload.run(workload.documents(6, True), tmp_path)
    assert (one.digest, one.counts) == (again.digest, again.counts)
    assert one.digest != other.digest


def test_plan_workload_reproduces_the_published_bram_tables(tmp_path):
    workload = workloads.WORKLOADS["plan_and_size"]
    outcome = workload.run(workload.documents(1, True), tmp_path)
    assert outcome.counts["check.bram_abs_err_kb"] == 0
    assert outcome.problems == []
    assert outcome.counts["sched.nodes_explored"] > 0
    assert workloads.PUBLISHED_TABLE3_KB["ring"][-1] == 2106


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [x * 1.02 for x in base], "higher", 0.1)[
        "verdict"] == "same"
    assert verdict(base, [x * 0.8 for x in base], "higher", 0.1)[
        "verdict"] == "worse"
    assert verdict(base, [x * 0.8 for x in base], "lower", 0.1)[
        "verdict"] == "better"
    # wide and overlapping: a 10% change could hide in this
    wide = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert verdict(wide, [x * 1.05 for x in wide], "lower", 0.1)[
        "verdict"] == "unresolved"
    # wide but disjoint: every B sample is worse than every A sample
    assert verdict(wide, [x * 2 for x in wide], "lower", 0.1)[
        "verdict"] == "worse"
