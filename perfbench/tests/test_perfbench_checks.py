"""Each output check passes a real run and rejects a doctored one."""

import copy

import pytest

import checks
import workloads
from spans import NullTracer

SCALE = 0.02


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def record(request):
    tracer = NullTracer()
    ctx = workloads.Context(seed=3, scale=SCALE, tracer=tracer)
    try:
        out = workloads.WORKLOADS[request.param](ctx)
    finally:
        tracer.restore()
    assert out.failures == []
    assert out.skipped_checks == {}
    return out.record


def test_real_record_passes(record):
    assert checks.check_record(record) == []


def test_dropped_completion_is_rejected(record):
    doctored = copy.deepcopy(record)
    doctored["completed"] -= 1
    assert checks.check_accounting(doctored)


def test_perturbed_disk_energy_is_rejected(record):
    doctored = copy.deepcopy(record)
    doctored["disk_energy_j"][0] *= 1.001
    assert checks.check_energy(doctored)


def test_perturbed_tape_energy_is_rejected(record):
    doctored = copy.deepcopy(record)
    doctored["tape_energy_j"] += 1.0
    assert checks.check_energy(doctored)


def test_missing_state_time_is_rejected(record):
    doctored = copy.deepcopy(record)
    doctored["disk_time_s"][-1] -= 0.5
    assert checks.check_state_time(doctored)


def test_tape_state_time_is_checked():
    ctx = workloads.Context(seed=3, scale=SCALE, tracer=NullTracer())
    record = workloads.zipf_tiered(ctx).record
    assert checks.check_state_time(record) == []
    record["tape_time_s"] *= 0.5
    assert checks.check_state_time(record)


def test_digest_mismatch_is_rejected():
    assert checks.check_digests(["a", "a", "a"]) == []
    assert checks.check_digests(["a", "b", "a"])


def test_dependent_selection_is_rejected():
    from repro.algorithms.graph import ConflictGraph

    graph = ConflictGraph()
    for node in range(3):
        graph.add_node(node, 1.0)
    graph.add_edge(0, 1)
    assert checks.check_independent_set(graph, [0, 2]) == []
    assert checks.check_independent_set(graph, [0, 1])
