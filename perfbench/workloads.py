"""The benchmark's workloads, each driven through public entry points.

Every workload builds its inputs from the seed, runs one scheduling
phase, runs the always-on reference over the same requests, serialises
the report and returns a :class:`RunOutput`. Only the layers' public
entry points are called: the ``repro.traces`` generators,
``Workload.bind``, scheduler constructors, ``repro.sim.simulate`` /
``run_offline`` / ``always_on_baseline``, ``repro.serve``'s
``SchedulingService`` + ``run_load`` + ``virtual_run``, and
``SimulationConfig(tier=TierConfig(...))``.

``scale`` shrinks every workload for the smoke tests; the benchmark
itself always runs at ``scale=1.0``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import serve, sim, traces
from repro.core.cost import CostFunction
from repro.core.heuristic import HeuristicScheduler
from repro.core.mwis import MWISOfflineScheduler
from repro.core.wsc import WSCBatchScheduler
from repro.experiments.harness import serialize
from repro.placement.schemes import ZipfOriginalUniformReplicas
from repro.power.profile import get_profile
from repro.power.states import DiskPowerState
from repro.report import SimulationReport, percentile
from repro.sim import SimulationConfig
from repro.tape.config import TierConfig
from repro.tape.states import TapePowerState
from repro.types import Request

import checks

#: The paper's fleet and cost-function settings.
PAPER_DISKS = 180
PAPER_PROFILE = "paper-evaluation"
ALPHA = 0.2
BETA = 100.0
#: Scale of the offline MWIS cell (the fig6 MWIS column).
OFFLINE_SCALE = 0.15
#: Serve load: open-loop Poisson at a fixed offered rate.
SERVE_REQUESTS = 20_000
SERVE_RATE_PER_S = 100.0
SERVE_CLIENTS = 8
#: Tiered run: 24 disks + 1 LTO-8 drive over a Zipf id space.
TIER_DISKS = 24
TIER_IDS = 2_000
TIER_REQUESTS = 60_000
TIER_RATE_PER_S = 2.0
TIER_HOT_FRACTION = 0.05
TIER_SEQUENCER = "ltsp"
TIER_SIZE_BYTES = 512 * 1024
#: The MWIS solve whose selection ``cello-offline`` checks; wrapped on
#: every run of that workload, traced or not, until the run ends.
SOLVE_TARGET = "repro.core.mwis:solve_mwis"


@dataclass
class RunOutput:
    """What one workload run hands back to the child process."""

    offered: int
    report_text: str
    record: Dict[str, Any]
    sim: Dict[str, Optional[float]]
    counts: Dict[str, float]
    failures: List[str] = field(default_factory=list)
    skipped_checks: Dict[str, str] = field(default_factory=dict)


class Context:
    """Seed, scale, tracer and phase marks of one run."""

    def __init__(self, seed: int, scale: float, tracer: Any) -> None:
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        #: Host marks of the scheduling phase and the report's end, on
        #: the monotonic clock (``*_cpu``: this process's CPU seconds).
        self.schedule_start = self.schedule_start_cpu = 0.0
        self.schedule_end = self.schedule_end_cpu = 0.0
        self.report_end = 0.0
        #: Host seconds spent on checks inside the run; not part of wall_s.
        self.excluded_s = 0.0
        self.counts: Dict[str, float] = {}
        self.failures: List[str] = []
        self.skipped_checks: Dict[str, str] = {}

    def span(self, name: str) -> Any:
        return self.tracer.span(name)

    def start_schedule(self) -> None:
        self.schedule_start_cpu = time.process_time()
        self.schedule_start = time.perf_counter()

    def end_schedule(self) -> None:
        self.schedule_end = time.perf_counter()
        self.schedule_end_cpu = time.process_time()

    def scaled(self, count: int) -> int:
        return max(1, round(count * self.scale))


def _disks_for(scale: float) -> int:
    return max(3, round(PAPER_DISKS * scale))


def _bind(
    ctx: Context, records: Sequence[Any], replication: int, disks: int
) -> tuple:
    ctx.counts["traces.records"] = len(records)
    with ctx.span("traces.workload"):
        workload = traces.Workload(records)
    with ctx.span("placement.bind"):
        requests, catalog = workload.bind(
            ZipfOriginalUniformReplicas(
                replication_factor=replication, zipf_exponent=1.0
            ),
            num_disks=disks,
            seed=ctx.seed + 7,
        )
    ctx.counts["placement.replicas"] = sum(
        len(catalog.locations(data_id)) for data_id in catalog
    )
    return requests, catalog


def _paper_config(ctx: Context, disks: int) -> SimulationConfig:
    return SimulationConfig(
        num_disks=disks, profile=get_profile(PAPER_PROFILE), seed=ctx.seed
    )


def _cost() -> CostFunction:
    return CostFunction(alpha=ALPHA, beta=BETA)


def _replay(
    ctx: Context,
    requests: Sequence[Request],
    catalog: Any,
    scheduler: Any,
    config: SimulationConfig,
    baseline_config: SimulationConfig,
) -> RunOutput:
    """Event-driven replay + always-on reference + serialisation."""
    ctx.start_schedule()
    with ctx.span("sim.simulate"):
        report = sim.simulate(requests, catalog, scheduler, config)
    ctx.end_schedule()
    if config.tier is not None:
        # The always-on reference is the all-disk fleet over the tiered
        # run's own horizon.
        baseline_config = replace(baseline_config, horizon=report.duration)
    with ctx.span("sim.always_on"):
        baseline = sim.always_on_baseline(requests, catalog, baseline_config)
    tape_profile = config.tier.tape_profile if config.tier is not None else None
    return _finish_report(ctx, report, baseline.total_energy, tape_profile)


def _ledger_joules(stats: Any) -> float:
    """A disk's joules from its power-state seconds and its profile's
    state powers, plus lump transition energy; summed here rather than
    read from the program's energy figure."""
    return (
        sum(
            stats.profile.power(state) * seconds
            for state, seconds in stats.state_time.items()
        )
        + stats.lump_transition_energy
    )


def _finish_report(
    ctx: Context,
    report: SimulationReport,
    always_on_j: float,
    tape_profile: Any = None,
) -> RunOutput:
    with ctx.span("serialize.report"):
        text = serialize.canonical_json(
            {
                "report": serialize.report_to_payload(report),
                "always_on_energy_j": always_on_j,
            }
        )
    ctx.report_end = time.perf_counter()
    stats = [report.disk_stats[disk] for disk in sorted(report.disk_stats)]
    tape = report.tape
    record: Dict[str, Any] = {
        "offered": report.requests_offered,
        "completed": report.requests_completed,
        "lost": report.availability.requests_lost if report.availability else 0,
        "rejected": 0,
        "duration_s": report.duration,
        "disk_time_s": [s.total_time for s in stats],
        "disk_energy_j": [_ledger_joules(s) for s in stats],
        "tape_energy_j": (
            sum(
                tape_profile.power(TapePowerState(state)) * seconds
                for state, seconds in tape.state_time_s.items()
            )
            if tape
            else 0.0
        ),
        "total_energy_j": report.total_energy,
    }
    if tape is not None:
        record["tape_time_s"] = sum(tape.state_time_s.values())
        record["tape_drives"] = tape.num_drives
        total = report.total_energy
        ctx.counts.update(
            {
                "tape.requests_to_tape": tape.requests_to_tape,
                "tape.seek_m": tape.seek_distance_m,
                "tape.mounts": tape.mounts,
                "tape.energy_frac": tape.tape_energy / total if total else 0.0,
            }
        )
    ctx.counts["sim.events"] = report.events_processed
    return _output(
        ctx,
        text,
        record,
        stats,
        report.total_energy,
        always_on_j,
        report.response_times,
    )


def _output(
    ctx: Context,
    text: str,
    record: Dict[str, Any],
    stats: Sequence[Any],
    total_j: float,
    always_on_j: float,
    response_times: Sequence[float],
) -> RunOutput:
    ctx.counts["serialize.bytes"] = len(text.encode("utf-8"))
    ctx.counts.update(_disk_layer(stats, record["duration_s"]))
    spin_ops = sum(s.spin_ups + s.spin_downs for s in stats)
    ordered = sorted(response_times)
    sim_metrics: Dict[str, Optional[float]] = {
        "energy_norm": total_j / always_on_j,
        "energy_j_per_request": total_j / max(1, record["completed"]),
        "spin_ops": float(spin_ops),
        "response_mean_s": sum(ordered) / len(ordered) if ordered else None,
        "response_p50_s": percentile(ordered, 0.5) if ordered else None,
        "response_p999_s": percentile(ordered, 0.999) if ordered else None,
        "response_samples": float(len(ordered)),
    }
    return RunOutput(
        offered=record["offered"],
        report_text=text,
        record=record,
        sim=sim_metrics,
        counts=ctx.counts,
        failures=ctx.failures,
        skipped_checks=ctx.skipped_checks,
    )


def _disk_layer(stats: Sequence[Any], duration_s: float) -> Dict[str, float]:
    """The disk/power layer's sim counters over a fleet's ledgers."""
    totals = {state: 0.0 for state in DiskPowerState}
    for ledger in stats:
        for state, seconds in ledger.state_time.items():
            totals[state] += seconds
    fleet_s = duration_s * len(stats)
    serviced = [ledger.requests_serviced for ledger in stats]
    return {
        "disk.active_frac": totals[DiskPowerState.ACTIVE] / fleet_s,
        "disk.idle_frac": totals[DiskPowerState.IDLE] / fleet_s,
        "disk.standby_frac": totals[DiskPowerState.STANDBY] / fleet_s,
        "disk.transition_frac": (
            totals[DiskPowerState.SPIN_UP] + totals[DiskPowerState.SPIN_DOWN]
        )
        / fleet_s,
        "disk.spin_ups": float(sum(ledger.spin_ups for ledger in stats)),
        "disk.max_share": max(serviced) / max(1, sum(serviced)),
    }


# -- workloads ---------------------------------------------------------


def cello_online(ctx: Context) -> RunOutput:
    with ctx.span("traces.generate"):
        records = traces.generate_cello_like(
            traces.CelloLikeConfig().scaled(ctx.scale), seed=ctx.seed
        )
    disks = _disks_for(ctx.scale)
    requests, catalog = _bind(ctx, records, 3, disks)
    config = _paper_config(ctx, disks)
    return _replay(
        ctx, requests, catalog, HeuristicScheduler(_cost()), config, config
    )


def financial_batch(ctx: Context) -> RunOutput:
    with ctx.span("traces.generate"):
        records = traces.generate_financial_like(
            traces.FinancialLikeConfig().scaled(ctx.scale), seed=ctx.seed
        )
    disks = _disks_for(ctx.scale)
    requests, catalog = _bind(ctx, records, 3, disks)
    config = _paper_config(ctx, disks)
    scheduler = WSCBatchScheduler(interval=0.1, cost_function=_cost())
    return _replay(ctx, requests, catalog, scheduler, config, config)


def cello_offline(ctx: Context) -> RunOutput:
    scale = OFFLINE_SCALE * ctx.scale
    with ctx.span("traces.generate"):
        records = traces.generate_cello_like(
            traces.CelloLikeConfig().scaled(scale), seed=ctx.seed
        )
    disks = _disks_for(scale)
    requests, catalog = _bind(ctx, records, 3, disks)
    config = _paper_config(ctx, disks)
    scheduler = MWISOfflineScheduler(method="gwmin", neighborhood=4)
    solved: List[Any] = []

    def keep_solve(
        span: Any, args: tuple, kwargs: dict, result: Any, state: Any
    ) -> None:
        solved[:] = [args[0], list(result)]

    ctx.tracer.wrap(SOLVE_TARGET, "algorithms.solve_mwis", after=keep_solve)
    ctx.start_schedule()
    with ctx.span("sim.run_offline"):
        evaluation = sim.run_offline(requests, catalog, scheduler, config)
    ctx.end_schedule()
    if not solved:
        ctx.skipped_checks["independent set"] = ctx.tracer.absent.get(
            "algorithms.solve_mwis", "solve_mwis was not called"
        )
    else:
        check_start = time.perf_counter()
        graph, selected = solved
        solved.clear()
        ctx.failures.extend(checks.check_independent_set(graph, selected))
        ctx.counts["core.mwis.selected"] = len(selected)
        del graph, selected
        ctx.excluded_s += time.perf_counter() - check_start
    with ctx.span("sim.always_on"):
        baseline = sim.always_on_baseline(requests, catalog, config)
    return _finish_report(ctx, evaluation.report, baseline.total_energy)


def serve_online(ctx: Context) -> RunOutput:
    config = serve.ServiceConfig(seed=ctx.seed)
    with ctx.span("placement.bind"):
        catalog = config.make_catalog()
    ctx.counts["placement.replicas"] = sum(
        len(catalog.locations(data_id)) for data_id in catalog
    )
    service = serve.SchedulingService(config, catalog=catalog)
    load = serve.LoadgenConfig(
        num_requests=ctx.scaled(SERVE_REQUESTS),
        rate_per_s=SERVE_RATE_PER_S,
        num_clients=SERVE_CLIENTS,
        seed=ctx.seed,
    )
    ctx.start_schedule()
    with ctx.span("serve.run_load"):
        result = serve.virtual_run(serve.run_load(service, load))
    ctx.end_schedule()
    backend = service.backend
    duration_s = service.clock.now
    served = [
        Request(time=o.arrival_s, request_id=o.request_id, data_id=o.data_id)
        for o in result.outcomes
        if isinstance(o, serve.Completed)
    ]
    with ctx.span("sim.always_on"):
        baseline = sim.always_on_baseline(
            served, catalog, replace(config.make_sim_config(), horizon=duration_s)
        )
    with ctx.span("serialize.report"):
        document = serve.serve_document(service, load, result, virtual_clock=True)
        text = serialize.canonical_json(
            {"report": document, "always_on_energy_j": baseline.total_energy}
        )
    ctx.report_end = time.perf_counter()
    stats = [backend.disk(disk).stats for disk in backend.disk_ids]
    gauges = document["result"]["metrics"]["gauges"]
    total_j = float(gauges["energy.joules"])
    record = {
        "offered": result.offered,
        "completed": result.completed,
        "lost": 0,
        "rejected": result.rejected,
        "duration_s": duration_s,
        "disk_time_s": [s.total_time for s in stats],
        "disk_energy_j": [_ledger_joules(s) for s in stats],
        "tape_energy_j": 0.0,
        "total_energy_j": total_j,
    }
    ctx.counts.update(
        {
            "sim.events": backend.events_processed,
            "serve.queue_wait_p50_s": service.metrics.histogram(
                "queue_wait_s"
            ).percentile(0.5),
            "serve.rejected": result.rejected,
        }
    )
    return _output(
        ctx,
        text,
        record,
        stats,
        total_j,
        baseline.total_energy,
        result.response_times_s,
    )


def zipf_tiered(ctx: Context) -> RunOutput:
    count = ctx.scaled(TIER_REQUESTS)
    with ctx.span("traces.generate"):
        times = traces.PoissonArrivals(TIER_RATE_PER_S).generate(
            count, random.Random(ctx.seed)
        )
        popularity = traces.ZipfPopularity(TIER_IDS, 1.0)
        id_rng = random.Random(ctx.seed * 31 + 7)
        records = [
            traces.TraceRecord(
                time=arrival_s,
                data_key=popularity.sample(id_rng),
                size_bytes=TIER_SIZE_BYTES,
            )
            for arrival_s in times
        ]
    requests, catalog = _bind(ctx, records, 2, TIER_DISKS)
    disk_config = SimulationConfig(num_disks=TIER_DISKS, seed=ctx.seed)
    config = replace(
        disk_config,
        tier=TierConfig(hot_fraction=TIER_HOT_FRACTION, sequencer=TIER_SEQUENCER),
    )
    return _replay(
        ctx, requests, catalog, HeuristicScheduler(), config, disk_config
    )


WORKLOADS: Dict[str, Callable[[Context], RunOutput]] = {
    "cello-online": cello_online,
    "financial-batch": financial_batch,
    "cello-offline": cello_offline,
    "serve-online": serve_online,
    "zipf-tiered": zipf_tiered,
}
