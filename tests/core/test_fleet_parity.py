"""Hypothesis parity: the schedulers' scalar Eq. 5/Eq. 6 path vs the oracle.

:class:`~repro.core.heuristic.HeuristicScheduler` inlines
:meth:`~repro.core.cost.CostFunction.cost` in its per-arrival loop, and
:class:`~repro.core.wsc.WSCBatchScheduler` weights covering disks through
``_disk_weight``. Both must agree bit for bit with the reference
evaluation — :meth:`CostFunction.cost` for Eq. 6 and
:func:`~repro.core.cost.energy_cost` for Eq. 5 — and the heuristic must
break ties on (cost, queue length, disk id). These properties pin that
on randomly generated fleets, power states and candidate sets.
"""

from typing import Dict, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostFunction, energy_cost
from repro.core.heuristic import HeuristicScheduler
from repro.core.wsc import WSCBatchScheduler
from repro.power.profile import PAPER_EVAL
from repro.power.states import DiskPowerState
from repro.types import OpKind, Request

NOW = 100.0

#: Small value pools make cost ties common instead of measure-zero.
_TLAST_POOL = (None, 0.0, 10.0, 50.0, NOW)
_QUEUE_POOL = (0, 1, 2, 3)
_STATES = tuple(DiskPowerState)


class FakeDisk:
    """Protocol-only disk view: no memo, so schedulers fall back to
    :func:`energy_cost`."""

    def __init__(
        self,
        state: DiskPowerState,
        queue_length: int,
        last_request_time: Optional[float],
    ):
        self.state = state
        self.queue_length = queue_length
        self.last_request_time = last_request_time


class FakeView:
    """Minimal :class:`~repro.core.scheduler.SystemView` over fake disks."""

    def __init__(
        self, disks: Dict[int, FakeDisk], locations: Tuple[int, ...]
    ):
        self._disks = disks
        self._locations = locations
        self.now = NOW
        self.profile = PAPER_EVAL

    def disk(self, disk_id: int) -> FakeDisk:
        return self._disks[disk_id]

    def available_locations(self, data_id: int) -> Tuple[int, ...]:
        return self._locations


@st.composite
def fleet_instances(draw):
    num_disks = draw(st.integers(min_value=1, max_value=12))
    disks = {
        disk_id: FakeDisk(
            state=draw(st.sampled_from(_STATES)),
            queue_length=draw(st.sampled_from(_QUEUE_POOL)),
            last_request_time=draw(st.sampled_from(_TLAST_POOL)),
        )
        for disk_id in range(num_disks)
    }
    count = draw(st.integers(min_value=1, max_value=num_disks))
    candidates = tuple(draw(st.permutations(range(num_disks)))[:count])
    alpha = draw(
        st.one_of(
            st.sampled_from([0.0, 0.2, 1.0]),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
    )
    beta = draw(st.floats(min_value=0.01, max_value=1000.0, allow_nan=False))
    return disks, candidates, CostFunction(alpha=alpha, beta=beta)


@settings(max_examples=200, deadline=None)
@given(fleet_instances())
def test_choose_parity_including_ties(instance) -> None:
    """choose() returns the (cost, queue, disk id) minimum of the oracle."""
    disks, candidates, cost_function = instance
    view = FakeView(disks, candidates)
    request = Request(
        request_id=0, time=NOW, data_id=0, size_bytes=1, op=OpKind.READ
    )
    expected = min(
        candidates,
        key=lambda disk_id: (
            cost_function.cost(disks[disk_id], NOW, PAPER_EVAL),
            disks[disk_id].queue_length,
            disk_id,
        ),
    )
    assert HeuristicScheduler(cost_function).choose(request, view) == expected


@settings(max_examples=200, deadline=None)
@given(fleet_instances())
def test_weights_parity_full_precision(instance) -> None:
    """WSC's Eq. 6 disk weights equal CostFunction.cost bit for bit."""
    disks, candidates, cost_function = instance
    view = FakeView(disks, candidates)
    scheduler = WSCBatchScheduler(cost_function=cost_function)
    for disk_id in candidates:
        expected = cost_function.cost(disks[disk_id], NOW, PAPER_EVAL)
        assert scheduler._disk_weight(disk_id, view) == expected


@settings(max_examples=200, deadline=None)
@given(fleet_instances())
def test_energies_parity_full_precision(instance) -> None:
    """WSC's pure Eq. 5 disk weights equal energy_cost bit for bit."""
    disks, candidates, cost_function = instance
    view = FakeView(disks, candidates)
    scheduler = WSCBatchScheduler(
        cost_function=cost_function, use_cost_function=False
    )
    for disk_id in candidates:
        disk = disks[disk_id]
        expected = energy_cost(
            disk.state, disk.last_request_time, NOW, PAPER_EVAL
        )
        assert scheduler._disk_weight(disk_id, view) == expected
