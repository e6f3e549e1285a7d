"""The implicit term-conflict graph against an explicit one.

``MWISOfflineScheduler.build_graph`` never materialises an edge: it
enumerates a term's conflicts from the two request groups it belongs to.
Here every edge of an explicit :class:`ConflictGraph` comes pairwise
from :meth:`SavingTerm.conflicts_with`, an independent statement of the
rule, and the two graphs must agree on every query and every solver's
picks.
"""

import itertools

import pytest
from hypothesis import given, settings
from test_mwis_properties import small_problems

from repro.algorithms.graph import ConflictGraph
from repro.algorithms.independent_set import independence_check, solve_mwis
from repro.core.mwis import MWISOfflineScheduler, TermConflictGraph
from repro.core.problem import SchedulingProblem
from repro.core.saving import SavingTerm
from repro.errors import ConfigurationError
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import PAPER_UNIT
from repro.types import Request


def both_graphs(problem):
    implicit, terms = MWISOfflineScheduler(neighborhood=None).build_graph(problem)
    explicit = ConflictGraph()
    for index, term in enumerate(terms):
        explicit.add_node(index, term.weight)
    for a, b in itertools.combinations(range(len(terms)), 2):
        if terms[a].conflicts_with(terms[b]):
            explicit.add_edge(a, b)
    return implicit, explicit


@given(problem=small_problems())
@settings(max_examples=80, deadline=None)
def test_graphs_agree_on_every_query(problem):
    implicit, explicit = both_graphs(problem)
    assert len(implicit) == len(explicit)
    assert list(implicit.nodes) == explicit.nodes
    assert implicit.num_edges == explicit.num_edges
    for node in explicit.nodes:
        assert implicit.weight(node) == explicit.weight(node)
        assert implicit.neighbors(node) == explicit.neighbors(node)
        assert implicit.degree(node) == explicit.degree(node)
    for u, v in itertools.product(explicit.nodes, repeat=2):
        assert implicit.has_edge(u, v) == explicit.has_edge(u, v)


@given(problem=small_problems())
@settings(max_examples=80, deadline=None)
def test_solvers_pick_the_same_nodes(problem):
    implicit, explicit = both_graphs(problem)
    methods = ["gwmin", "gwmin2", "min-degree"]
    if len(explicit) <= 40:
        methods.append("exact")
    for method in methods:
        assert solve_mwis(implicit, method) == solve_mwis(explicit, method), method


def chain_problem(locations, times):
    """Requests ``0..n-1`` at ``times``; request ``i`` reads data ``i``."""
    requests = [Request(time=t, request_id=i, data_id=i) for i, t in enumerate(times)]
    return SchedulingProblem.build(
        requests, PlacementCatalog(locations), PAPER_UNIT, 2
    )


def node_of(terms, predecessor, successor, disk):
    return terms.index(
        next(
            t
            for t in terms
            if (t.predecessor, t.successor, t.disk) == (predecessor, successor, disk)
        )
    )


def test_independence_check_rejects_same_pair_on_two_disks():
    # All three requests live on both disks: X(0,1,0) and X(0,1,1) share
    # both requests but disagree on the disk.
    problem = chain_problem({0: [0, 1], 1: [0, 1], 2: [0, 1]}, [0.0, 1.0, 2.0])
    graph, terms = MWISOfflineScheduler(neighborhood=None).build_graph(problem)
    doctored = [node_of(terms, 0, 1, 0), node_of(terms, 0, 1, 1)]
    assert terms[doctored[0]].conflicts_with(terms[doctored[1]])
    with pytest.raises(ConfigurationError):
        independence_check(graph, doctored)


def test_independence_check_accepts_pass_through_chain():
    # X(0,1,0) then X(1,2,0): request 1 is passed through on disk 0.
    problem = chain_problem({0: [0, 1], 1: [0, 1], 2: [0, 1]}, [0.0, 1.0, 2.0])
    graph, terms = MWISOfflineScheduler(neighborhood=None).build_graph(problem)
    chain = [node_of(terms, 0, 1, 0), node_of(terms, 1, 2, 0)]
    independence_check(graph, chain)
    assert not graph.has_edge(*chain)
    # The same chain split over two disks is a conflict.
    assert graph.has_edge(node_of(terms, 0, 1, 0), node_of(terms, 1, 2, 1))


def test_empty_term_list():
    graph = TermConflictGraph([])
    assert len(graph) == 0 and graph.num_edges == 0
    assert solve_mwis(graph, "gwmin") == []


def test_sparse_request_ids():
    terms = [
        SavingTerm(predecessor=700, successor=1100, disk=3, weight=2.0),
        SavingTerm(predecessor=1100, successor=2000, disk=3, weight=1.0),
        SavingTerm(predecessor=700, successor=1100, disk=4, weight=3.0),
    ]
    graph = TermConflictGraph(terms)
    assert [graph.neighbors(node) for node in graph.nodes] == [{2}, {2}, {0, 1}]
    assert [graph.degree(node) for node in graph.nodes] == [1, 1, 2]
    assert graph.num_edges == 2
