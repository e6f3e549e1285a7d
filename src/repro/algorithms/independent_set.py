"""Maximum weighted independent set (MWIS) solvers.

The offline scheduling algorithm (Section 3.1) reduces to MWIS; the paper
solves the reduced problem with the **GMIN/GWMIN** greedy of Sakai,
Togasaki & Yamazaki ("A note on greedy algorithms for the maximum weighted
independent set problem", Discrete Applied Mathematics 2003):

* :func:`gwmin` — repeatedly select the vertex maximising
  ``w(v) / (deg(v) + 1)``, add it to the solution, delete it and its
  neighbourhood. Guarantees a solution of weight at least
  ``sum_v w(v) / (deg(v)+1)``.
* :func:`gwmin2` — the sibling rule ``w(v) / w(N+(v))`` (weight over the
  closed neighbourhood's weight), often slightly stronger on weighted
  graphs.
* :func:`exact_mwis` — exact branch and bound with a greedy lower bound
  and weight-sum upper bound, for validating the greedies and for solving
  the small instances of the paper's worked examples optimally.

MWIS admits no constant-factor approximation on general graphs (Håstad),
which is why the paper accepts greedy solutions.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, Iterable, List, Sequence, Set, cast

from repro.algorithms.graph import MWISGraph, N
from repro.errors import ConfigurationError

#: A greedy selection rule: ``score(weight, degree, closed_weight)`` is the
#: value to *minimise* (negate for maximisation) for a node of the given
#: weight, live degree and live closed-neighbourhood weight. The last
#: argument is only computed for rules registered with ``closed_weight``.
Scorer = Callable[[float, int, float], float]

#: The lazy heap is rebuilt from its current entries, one per live node,
#: once its stale entries outnumber the live nodes this many times over,
#: so it never holds more than ``(1 + HEAP_SLACK)`` entries per live node
#: when an entry is popped.
HEAP_SLACK = 2


def gwmin(graph: MWISGraph[N]) -> List[N]:
    """GWMIN greedy: pick argmax ``w(v) / (deg(v) + 1)`` until empty.

    Ties break deterministically on node insertion order. Returns the
    selected independent set in pick order.

    Implementation note: scores only change when a vertex loses neighbours,
    so a lazy max-heap with per-node version counters gives
    O((V + E) log V) instead of the naive O(V^2) rescan — the difference
    between seconds and hours on full-scale trace graphs.
    """
    return _lazy_heap_greedy(graph, _gwmin_score)


def _gwmin_score(weight: float, degree: int, _closed: float) -> float:
    return -weight / (degree + 1)


def _lazy_heap_greedy(
    graph: MWISGraph[N], score: Scorer, closed_weight: bool = False
) -> List[N]:
    """Shared lazy-heap skeleton for the greedy MWIS family.

    The graph is only read, never copied. Per-node version counters and
    live-degree counters, indexed by node position, track the removals:
    a removed node's version is -1. When a pick removes its closed
    neighbourhood, every live neighbour of every victim loses one degree
    per removed neighbour and is re-pushed once with a bumped version,
    which marks its older heap entries stale. Heap keys are
    ``(score, insertion order, version, node)``; once stale entries
    outnumber the live nodes ``HEAP_SLACK`` times, the heap is rebuilt
    from its current entries.
    """
    nodes = graph.nodes
    neighbours: Callable[[int], Iterable[int]]
    if isinstance(nodes, range) and nodes.start == 0 and nodes.step == 1:
        # Nodes are their own positions.
        neighbours = cast(Callable[[int], Iterable[int]], graph.neighbors)
    else:
        position = {node: index for index, node in enumerate(nodes)}

        def neighbour_positions(index: int) -> Iterable[int]:
            return [position[other] for other in graph.neighbors(nodes[index])]

        neighbours = neighbour_positions

    count = len(nodes)
    weights = [graph.weight(node) for node in nodes]
    degree = [graph.degree(node) for node in nodes]
    version = [0] * count
    live = count

    def closed(index: int) -> float:
        if not closed_weight:
            return 0.0
        return math.fsum(
            [weights[index]]
            + [weights[other] for other in neighbours(index) if version[other] >= 0]
        )

    heap = [
        (score(weights[index], degree[index], closed(index)), index, 0, nodes[index])
        for index in range(count)
    ]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    selected: List[N] = []
    while live:
        _score, index, entry_version, node = pop(heap)
        if version[index] != entry_version:
            continue
        selected.append(node)
        victims = [other for other in neighbours(index) if version[other] >= 0]
        version[index] = -1
        for victim in victims:
            version[victim] = -1
        live -= len(victims) + 1
        touched: Set[int] = set()
        for victim in victims:
            for other in neighbours(victim):
                if version[other] >= 0:
                    degree[other] -= 1
                    touched.add(other)
        for index in touched:
            version[index] += 1
            push(
                heap,
                (
                    score(weights[index], degree[index], closed(index)),
                    index,
                    version[index],
                    nodes[index],
                ),
            )
        if len(heap) > (1 + HEAP_SLACK) * live:
            heap = [item for item in heap if version[item[1]] == item[2]]
            heapq.heapify(heap)
    return selected


def gwmin2(graph: MWISGraph[N]) -> List[N]:
    """GWMIN2 greedy: pick argmax ``w(v) / w(N[v])`` until empty.

    ``w(N[v])`` is the weight of the closed neighbourhood, summed exactly
    (``math.fsum``) so it does not depend on neighbour enumeration order.
    Zero-weight neighbourhoods (possible when every weight is 0) fall back
    to degree.
    """
    return _lazy_heap_greedy(graph, _gwmin2_score, closed_weight=True)


def _gwmin2_score(weight: float, degree: int, closed: float) -> float:
    if closed <= 0:
        return -1.0 / (degree + 1)
    return -weight / closed


def greedy_min_degree(graph: MWISGraph[N]) -> List[N]:
    """Unweighted classic: repeatedly take a minimum-degree vertex.

    The algorithm GMIN extends (Section 6 of the paper); included for
    ablations comparing weighted vs unweighted selection.
    """
    return _lazy_heap_greedy(graph, _min_degree_score)


def _min_degree_score(_weight: float, degree: int, _closed: float) -> float:
    return float(degree)


def exact_mwis(
    graph: MWISGraph[N], max_nodes: int = 40
) -> List[N]:
    """Optimal MWIS by branch and bound (small graphs only).

    Branches on the highest-weight remaining vertex (include/exclude) with
    a remaining-weight-sum upper bound, seeded with the GWMIN solution as
    the incumbent.

    Raises:
        ConfigurationError: when the graph exceeds ``max_nodes``.
    """
    if len(graph) > max_nodes:
        raise ConfigurationError(
            f"exact solver limited to {max_nodes} nodes, got {len(graph)}"
        )
    incumbent = gwmin(graph)
    incumbent_weight = graph.total_weight(incumbent)
    insertion = {node: i for i, node in enumerate(graph.nodes)}
    order = sorted(graph.nodes, key=lambda n: (-graph.weight(n), insertion[n]))
    adjacency = {node: graph.neighbors(node) for node in graph.nodes}
    weights = {node: graph.weight(node) for node in graph.nodes}

    best_set = list(incumbent)
    best_weight = incumbent_weight

    def search(
        candidates: List[N], current: List[N], current_weight: float
    ) -> None:
        nonlocal best_set, best_weight
        if not candidates:
            if current_weight > best_weight:
                best_weight = current_weight
                best_set = list(current)
            return
        upper = current_weight + sum(weights[n] for n in candidates)
        if upper <= best_weight:
            return
        head, *rest = candidates
        # Branch 1: include head.
        allowed = [n for n in rest if n not in adjacency[head]]
        search(allowed, current + [head], current_weight + weights[head])
        # Branch 2: exclude head.
        search(rest, current, current_weight)

    search(order, [], 0.0)
    return best_set


def independence_check(graph: MWISGraph[N], nodes: Sequence[N]) -> None:
    """Raise if ``nodes`` is not an independent set of ``graph``."""
    if not graph.is_independent_set(nodes):
        raise ConfigurationError("selected nodes are not an independent set")


def gwmin_weight_bound(graph: MWISGraph[N]) -> float:
    """Sakai et al.'s lower bound: ``sum_v w(v) / (deg(v) + 1)``.

    Any GWMIN solution is guaranteed to weigh at least this much — a
    property test pins our implementation to it.
    """
    return sum(
        graph.weight(node) / (graph.degree(node) + 1) for node in graph.nodes
    )


def solve_mwis(graph: MWISGraph[N], method: str = "gwmin") -> List[N]:
    """Dispatch by method name: gwmin | gwmin2 | min-degree | exact."""
    solvers: Dict[str, Callable[[MWISGraph[N]], List[N]]] = {
        "gwmin": gwmin,
        "gwmin2": gwmin2,
        "min-degree": greedy_min_degree,
        "exact": exact_mwis,
    }
    try:
        solver = solvers[method]
    except KeyError:
        raise ConfigurationError(
            f"unknown MWIS method {method!r}; known: {sorted(solvers)}"
        )
    return solver(graph)
