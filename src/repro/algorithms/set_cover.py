"""Weighted set cover: greedy (H_n-approximation) and exact solvers.

Theorem 2 of the paper reduces batch energy-aware scheduling to weighted
set cover: elements = queued requests, sets = disks, weight = the marginal
energy of using that disk (Eq. 5). The paper's experiments use the classic
greedy algorithm — iteratively pick the most *cost-effective* set
(weight divided by newly covered elements) — which is an ``H_n``-factor
approximation. :func:`exact_weighted_set_cover` is a branch-and-bound
solver for small instances used to validate the greedy in tests.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Mapping, Sequence, Set, Tuple

from repro.errors import ConfigurationError

Element = Hashable
SetId = Hashable


@dataclass(frozen=True)
class SetCoverInstance:
    """A weighted set cover problem.

    Attributes:
        universe: Elements to cover.
        sets: Mapping set id -> elements it covers.
        weights: Mapping set id -> non-negative weight.
    """

    universe: FrozenSet[Element]
    sets: Mapping[SetId, FrozenSet[Element]]
    weights: Mapping[SetId, float]

    @staticmethod
    def build(
        universe: Sequence[Element],
        sets: Mapping[SetId, Sequence[Element]],
        weights: Mapping[SetId, float],
    ) -> "SetCoverInstance":
        frozen_universe = frozenset(universe)
        frozen_sets = {
            set_id: frozenset(members) & frozen_universe
            for set_id, members in sets.items()
        }
        for set_id in frozen_sets:
            if set_id not in weights:
                raise ConfigurationError(f"set {set_id!r} has no weight")
            if weights[set_id] < 0:
                raise ConfigurationError(f"set {set_id!r} has negative weight")
        covered = (
            frozenset().union(*frozen_sets.values()) if frozen_sets else frozenset()
        )
        if covered != frozen_universe:
            missing = frozen_universe - covered
            raise ConfigurationError(
                f"universe elements not coverable: {sorted(map(repr, missing))}"
            )
        return SetCoverInstance(
            universe=frozen_universe,
            sets=frozen_sets,
            weights=dict(weights),
        )

    def cover_weight(self, chosen: Sequence[SetId]) -> float:
        """Total weight of a chosen set list."""
        return sum(self.weights[set_id] for set_id in chosen)

    def is_cover(self, chosen: Sequence[SetId]) -> bool:
        """True when the chosen sets cover the whole universe."""
        covered: Set[Element] = set()
        for set_id in chosen:
            covered |= self.sets[set_id]
        return covered >= self.universe


def greedy_weighted_set_cover(instance: SetCoverInstance) -> List[SetId]:
    """Classic greedy: repeatedly pick the most cost-effective set.

    Cost-effectiveness of a set with weight ``w`` covering ``c`` new
    elements is ``w / c``; zero-weight sets are free and picked first.
    Ties break on larger coverage, then on the set id's repr for
    determinism. Returns the chosen set ids in pick order.
    """
    uncovered = set(instance.universe)
    chosen: List[SetId] = []
    remaining = {
        set_id: set(members) for set_id, members in instance.sets.items() if members
    }
    while uncovered:
        best_id = None
        best_key: Tuple[float, int, str] = (math.inf, 0, "")
        for set_id, members in remaining.items():
            new = members & uncovered
            if not new:
                continue
            ratio = instance.weights[set_id] / len(new)
            key = (ratio, -len(new), repr(set_id))
            if best_id is None or key < best_key:
                best_id = set_id
                best_key = key
        if best_id is None:
            raise ConfigurationError("instance is not coverable")
        chosen.append(best_id)
        uncovered -= remaining.pop(best_id)
    return chosen


def exact_weighted_set_cover(
    instance: SetCoverInstance, max_sets: int = 24
) -> List[SetId]:
    """Optimal cover by best-first branch and bound (small instances only).

    Raises:
        ConfigurationError: when the instance has more than ``max_sets``
            sets (the search is exponential; this is a validation tool).
    """
    set_ids = sorted(instance.sets, key=repr)
    if len(set_ids) > max_sets:
        raise ConfigurationError(
            f"exact solver limited to {max_sets} sets, got {len(set_ids)}"
        )
    # Best-first search over (weight, covered) states.
    universe = instance.universe
    counter = 0
    heap: List[Tuple[float, int, FrozenSet[Element], List[SetId]]] = [
        (0.0, counter, frozenset(), [])
    ]
    best_seen: Dict[FrozenSet[Element], float] = {}
    while heap:
        weight, _tie, covered, chosen = heapq.heappop(heap)
        if covered >= universe:
            return chosen
        if best_seen.get(covered, math.inf) < weight:
            continue
        for set_id in set_ids:
            if set_id in chosen:
                continue
            members = instance.sets[set_id]
            new_covered = covered | members
            if new_covered == covered:
                continue
            new_weight = weight + instance.weights[set_id]
            if best_seen.get(new_covered, math.inf) <= new_weight:
                continue
            best_seen[new_covered] = new_weight
            counter += 1
            heapq.heappush(heap, (new_weight, counter, new_covered, chosen + [set_id]))
    raise ConfigurationError("instance is not coverable")


def harmonic_number(n: int) -> float:
    """``H_n = 1 + 1/2 + ... + 1/n`` — the greedy approximation factor."""
    if n < 0:
        raise ConfigurationError("n must be >= 0")
    return sum(1.0 / k for k in range(1, n + 1))
