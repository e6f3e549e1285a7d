"""The Eq. 5 memo on live disks equals the reference evaluation.

:meth:`SimulatedDisk.marginal_energy` does not evaluate Eq. 5: it reads
a per-state constant refreshed on every power transition, and only the
IDLE branch does arithmetic. The schedulers score disks through it, so
at every instant of a run it must equal
:func:`repro.core.cost.energy_cost` on the disk's live state, bit for
bit. These tests sample a full :func:`~repro.sim.runner.simulate` run —
at each arrival and on a fixed probe grid — across every power state.
"""

from typing import List, Optional, Set

from repro.core.cost import energy_cost
from repro.core.heuristic import HeuristicScheduler
from repro.disk.service import ConstantServiceModel
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import PAPER_EVAL
from repro.power.states import DiskPowerState
from repro.sim.config import SimulationConfig
from repro.sim.runner import simulate
from repro.sim.storage import StorageSystem
from repro.types import Request

NUM_DISKS = 4
#: Grid spacing of the probe events, in simulated seconds.
PROBE_STEP_S = 0.5

#: A burst, a gap long enough for 2CPM to spin every disk down (the
#: PAPER_EVAL breakeven is about 43 s, spin-down 4 s), arrivals that
#: land mid-spin-down and mid-spin-up, then a long tail.
ARRIVALS = (
    0.0, 0.01, 0.02, 0.5, 1.0, 1.01,
    45.0, 46.0, 47.0,
    60.0, 61.0, 70.0,
    150.0, 150.5,
)


def make_catalog() -> PlacementCatalog:
    """Eight data ids, each replicated on two neighbouring disks."""
    return PlacementCatalog(
        {
            data_id: [data_id % NUM_DISKS, (data_id + 1) % NUM_DISKS]
            for data_id in range(8)
        }
    )


def make_config() -> SimulationConfig:
    return SimulationConfig(
        num_disks=NUM_DISKS,
        profile=PAPER_EVAL,
        service_model=ConstantServiceModel(0.05),
        initial_state=DiskPowerState.STANDBY,
    )


def make_requests() -> List[Request]:
    return [
        Request(time=t, request_id=i, data_id=i % 8)
        for i, t in enumerate(ARRIVALS)
    ]


def assert_memo_matches_reference(system: StorageSystem, now: float) -> None:
    for disk_id in system.disk_ids:
        disk = system.disk(disk_id)
        expected = energy_cost(
            disk.state, disk.last_request_time, now, disk.profile
        )
        assert disk.marginal_energy(now) == expected, (disk_id, disk.state, now)


class ProbingHeuristic(HeuristicScheduler):
    """Heuristic that checks every disk's memo before each decision.

    On its first decision it also schedules probe events on the run's
    engine every :data:`PROBE_STEP_S` up to ``probe_until``, so the memo
    is sampled between arrivals too — mid-service, while idle, and
    during spin transitions.
    """

    def __init__(self, probe_until: float = 0.0):
        super().__init__()
        self.probe_until = probe_until
        self.system: Optional[StorageSystem] = None
        self.arrival_checks = 0
        self.probe_checks = 0
        self.states_seen: Set[DiskPowerState] = set()

    def choose(self, request, view):
        if self.system is None:
            self.system = view
            self._schedule_probes(view)
        self._check(view.now)
        self.arrival_checks += 1
        return super().choose(request, view)

    def _schedule_probes(self, system: StorageSystem) -> None:
        engine = system.engine

        def probe() -> None:
            self._check(engine.now)
            self.probe_checks += 1

        step = 1
        while step * PROBE_STEP_S <= self.probe_until:
            engine.schedule(step * PROBE_STEP_S, probe)
            step += 1

    def _check(self, now: float) -> None:
        system = self.system
        assert system is not None
        assert_memo_matches_reference(system, now)
        for disk_id in system.disk_ids:
            self.states_seen.add(system.disk(disk_id).state)


class TestMemoOnLiveDisks:
    def test_memo_tracks_a_full_run(self):
        """Every arrival sees exact memos, and so does the drained end."""
        scheduler = ProbingHeuristic()
        report = simulate(make_requests(), make_catalog(), scheduler, make_config())
        assert report.requests_completed == len(ARRIVALS)
        assert scheduler.arrival_checks == len(ARRIVALS)
        assert_memo_matches_reference(scheduler.system, scheduler.system.now)

    def test_memo_tracks_mid_run_states(self):
        """Grid probes see exact memos in every power state."""
        scheduler = ProbingHeuristic(probe_until=ARRIVALS[-1] + 60.0)
        simulate(make_requests(), make_catalog(), scheduler, make_config())
        assert scheduler.probe_checks == int(
            (ARRIVALS[-1] + 60.0) / PROBE_STEP_S
        )
        assert {
            DiskPowerState.STANDBY,
            DiskPowerState.SPIN_UP,
            DiskPowerState.ACTIVE,
            DiskPowerState.IDLE,
            DiskPowerState.SPIN_DOWN,
        } <= scheduler.states_seen

    def test_standby_start_memo_is_wakeup_constant(self):
        """Fresh STANDBY disks charge Eup + Edown + TB * PI."""
        system = StorageSystem(make_catalog(), HeuristicScheduler(), make_config())
        wakeup = (
            PAPER_EVAL.transition_energy
            + PAPER_EVAL.breakeven_time * PAPER_EVAL.idle_power
        )
        for disk_id in system.disk_ids:
            assert system.disk(disk_id).marginal_energy(0.0) == wakeup
        assert_memo_matches_reference(system, 0.0)
