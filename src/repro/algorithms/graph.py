"""Weighted conflict graphs for the MWIS solvers.

:class:`MWISGraph` is the read-only interface every solver in
:mod:`repro.algorithms.independent_set` uses. :class:`ConflictGraph` is
the explicit adjacency-set implementation, for general graphs: the
NP-hardness reductions, the paper's worked examples and tests. The
offline scheduler's saving-term graph is implicit instead
(:class:`repro.core.mwis.TermConflictGraph`): its edges follow from a
rule, so it is never materialised.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Protocol,
    Sequence,
    Set,
    TypeVar,
)

from repro.errors import ConfigurationError

NodeId = Hashable
N = TypeVar("N", bound=Hashable)


class MWISGraph(Protocol[N]):
    """Read-only undirected graph with weighted nodes of type ``N``.

    ``nodes`` lists the nodes in insertion order; the greedy solvers
    break score ties on it. Implementations that subclass this protocol
    inherit ``has_edge``, ``total_weight`` and ``is_independent_set``,
    written over ``weight`` and ``neighbors``.
    """

    def __len__(self) -> int: ...

    @property
    def nodes(self) -> Sequence[N]: ...

    @property
    def num_edges(self) -> int: ...

    def weight(self, node: N) -> float:
        """The node's weight."""

    def degree(self, node: N) -> int:
        """Number of neighbours of ``node``."""

    def neighbors(self, node: N) -> AbstractSet[N]:
        """The node's neighbours, as a set the caller may keep."""

    def has_edge(self, u: N, v: N) -> bool:
        """True when ``u`` and ``v`` are adjacent."""
        return v in self.neighbors(u)

    def total_weight(self, nodes: Iterable[N]) -> float:
        """Sum of the given nodes' weights, in the given order."""
        return sum(self.weight(node) for node in nodes)

    def is_independent_set(self, nodes: Iterable[N]) -> bool:
        """True when no two of ``nodes`` are adjacent or repeated."""
        selected = list(nodes)
        selected_set = set(selected)
        if len(selected_set) != len(selected):
            return False
        return not any(self.neighbors(node) & selected_set for node in selected)


class ConflictGraph(MWISGraph[NodeId]):
    """Undirected graph with weighted nodes and explicit adjacency sets."""

    def __init__(self) -> None:
        self._weights: Dict[NodeId, float] = {}
        self._adjacency: Dict[NodeId, Set[NodeId]] = {}

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._weights

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._weights)

    def add_node(self, node: NodeId, weight: float) -> None:
        """Add a node with a non-negative weight (duplicates rejected)."""
        if node in self._weights:
            raise ConfigurationError(f"duplicate node {node!r}")
        if weight < 0:
            raise ConfigurationError(f"node weight must be >= 0, got {weight}")
        self._weights[node] = weight
        self._adjacency[node] = set()

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Connect two existing nodes (idempotent; self-loops rejected)."""
        if u == v:
            raise ConfigurationError("self-loops are not allowed")
        if u not in self._weights or v not in self._weights:
            raise ConfigurationError("both endpoints must be added first")
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True when ``u`` and ``v`` are adjacent."""
        return v in self._adjacency.get(u, ())

    def weight(self, node: NodeId) -> float:
        """The node's weight."""
        return self._weights[node]

    def degree(self, node: NodeId) -> int:
        """Number of neighbours of ``node``."""
        return len(self._adjacency[node])

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """A copy of the node's neighbour set."""
        return set(self._adjacency[node])

    @property
    def nodes(self) -> List[NodeId]:
        return list(self._weights)

    @property
    def num_edges(self) -> int:
        return sum(len(n) for n in self._adjacency.values()) // 2

    def subgraph_without(self, removed: Set[NodeId]) -> "ConflictGraph":
        """Copy of the graph with ``removed`` nodes (and their edges) gone."""
        result = ConflictGraph()
        for node, weight in self._weights.items():
            if node not in removed:
                result.add_node(node, weight)
        for node, neighbors in self._adjacency.items():
            if node in removed:
                continue
            for neighbor in neighbors:
                if neighbor not in removed and not result.has_edge(node, neighbor):
                    result.add_edge(node, neighbor)
        return result
