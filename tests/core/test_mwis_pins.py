"""The offline MWIS scheduler on real cello cells: picks and memory.

GWMIN's picks must match the ``mwis rf=<rf>`` lines of the pin registry
(``tests/test_pins.py``). Building the conflict graph and solving it must
take memory linear in the number of terms, and the greedy's lazy heap
must stay within its compaction bound.
"""

import heapq
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.algorithms import independent_set
from repro.core.mwis import MWISOfflineScheduler
from repro.core.problem import SchedulingProblem
from repro.experiments.harness.runner import get_binding
from repro.power.profile import get_profile
from tests.test_pins import assert_pinned, mwis_digests

#: Peak traced bytes per saving term allowed for build + solve.
BYTES_PER_TERM = 2 * 1024


def cello_problem(replication_factor):
    requests, catalog, disks = get_binding("cello", replication_factor, 1.0, 0.05, 1)
    return SchedulingProblem.build(
        requests, catalog, get_profile("paper-evaluation"), disks
    )


def scheduler():
    return MWISOfflineScheduler(method="gwmin", neighborhood=4)


@pytest.mark.parametrize("rf", [3, 5])
def test_gwmin_selection_matches_pin(rf, tmp_path):
    assert_pinned(f"mwis rf={rf}", mwis_digests(tmp_path, rfs=(rf,)))


def test_build_and_solve_memory_is_linear_in_terms(monkeypatch):
    problem = cello_problem(3)
    tracemalloc.start()
    try:
        graph, terms = scheduler().build_graph(problem)
        selected = independent_set.solve_mwis(graph, "gwmin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(terms) == 41_695
    assert peak <= BYTES_PER_TERM * len(terms), f"{peak / len(terms):.0f} B/term"

    # Solve the same graph again (it is only read), recording the heap's
    # length at every pop. A popped node that is the next pick is that
    # pick: GWMIN's stale entries for a node score worse than its live one.
    pops = []

    def heappop(heap):
        pops.append((len(heap), heap[0][3]))
        return heapq.heappop(heap)

    monkeypatch.setattr(
        independent_set,
        "heapq",
        SimpleNamespace(
            heapify=heapq.heapify, heappush=heapq.heappush, heappop=heappop
        ),
    )
    assert independent_set.solve_mwis(graph, "gwmin") == selected
    live = len(graph)
    removed = set()
    picks = iter(selected)
    pick = next(picks)
    for length, node in pops:
        assert length <= (1 + independent_set.HEAP_SLACK) * live
        if node == pick:
            closed = (graph.neighbors(node) | {node}) - removed
            removed |= closed
            live -= len(closed)
            pick = next(picks, None)
    assert live == 0 and pick is None
