"""Energy-aware online Heuristic (Section 3.3).

On each arrival, evaluate the composite cost ``C(dk)`` (Eq. 6) for every
disk holding the request's data and pick the cheapest. With the paper's
``alpha = 0.2, beta = 100`` the scheduler prefers, in rough order:

1. disks already active or spinning up with short queues (free energy,
   low load — spinning-up disks "overlay" requests into one wake-up),
2. recently-touched idle disks (small idle extension),
3. long-idle disks,
4. standby disks (full ``EPmax`` wake-up cost),

with queue length breaking the energy ties toward responsiveness.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cost import PAPER_COST_FUNCTION, CostFunction, energy_cost
from repro.core.scheduler import OnlineScheduler, SystemView, register_scheduler
from repro.errors import ReplicaUnavailableError
from repro.types import DiskId, Request


class HeuristicScheduler(OnlineScheduler):
    """Cost-function online scheduler.

    Args:
        cost_function: The Eq. 6 instance to minimise; defaults to the
            paper's ``alpha=0.2, beta=100``.
    """

    def __init__(self, cost_function: Optional[CostFunction] = None):
        self.cost_function = cost_function or PAPER_COST_FUNCTION

    def choose(self, request: Request, view: SystemView) -> DiskId:
        locations = view.available_locations(request.data_id)
        if not locations:
            raise ReplicaUnavailableError(
                f"no live replica for data {request.data_id}"
            )
        cost_function = self.cost_function
        # The only Eq. 5/Eq. 6 evaluation for online arrivals: a scalar
        # loop over the request's few replicas. CostFunction.cost() is
        # inlined — hoisting the weights and reading each disk's queue
        # once roughly halves its attribute traffic — and the arithmetic
        # matches it bit for bit (evaluation order `energy * alpha / beta`
        # included).
        alpha = cost_function.alpha
        beta = cost_function.beta
        load_weight = cost_function.load_weight
        now = view.now
        profile = view.profile
        disk_of = view.disk
        best_disk: Optional[DiskId] = None
        best_cost = 0.0
        best_queue = 0
        for disk_id in locations:
            disk = disk_of(disk_id)
            try:
                energy = disk.marginal_energy(now)
            except AttributeError:  # plain DiskView (tests, analyses)
                energy = energy_cost(disk.state, disk.last_request_time, now, profile)
            queue_length = disk.queue_length
            cost = energy * alpha / beta + queue_length * load_weight
            # Deterministic tie-breaks: shorter queue, then lower disk id —
            # the unrolled comparisons equal `<` on the old
            # (cost, queue_length, disk_id) tuple key without allocating it.
            if (
                best_disk is None
                or cost < best_cost
                or (
                    cost == best_cost
                    and (
                        queue_length < best_queue
                        or (queue_length == best_queue and disk_id < best_disk)
                    )
                )
            ):
                best_cost = cost
                best_queue = queue_length
                best_disk = disk_id
        assert best_disk is not None  # locations is non-empty
        return best_disk

    @property
    def name(self) -> str:
        return (
            f"Heuristic(a={self.cost_function.alpha:g},"
            f"b={self.cost_function.beta:g})"
        )


@register_scheduler("heuristic")
def _make_heuristic() -> HeuristicScheduler:
    return HeuristicScheduler()
