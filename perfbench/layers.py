"""Per-layer split of a traced run.

:data:`WRAPS` lists the program's public callables that the traced run
wraps at their module or class attribute; :func:`install` puts the
wrappers in place. :data:`LAYER_METRICS` names every per-layer metric
with its unit, and :func:`layer_metrics` derives them from the spans,
the counts the workload recorded and the run's timing.

A metric whose span never fired in a workload reads 0: that workload
does not use the layer. A metric whose wrap target no longer exists in
the program is reported as 0 and listed under ``absent`` with the
reason.
"""

from __future__ import annotations

import resource
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from spans import LayerTotals, Span, Tracer, totals_by_name


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _count_batch(span: Span, args: tuple, kwargs: dict, result: Any, state: Any) -> None:
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    span.counts["batch"] = len(requests)


def _graph_before(args: tuple, kwargs: dict) -> int:
    return _rss_kb()


def _graph_after(span: Span, args: tuple, kwargs: dict, result: Any, rss_before: int) -> None:
    graph = result[0]
    span.counts["nodes"] = len(graph)
    span.counts["edges"] = graph.num_edges
    span.counts["rss_growth_kb"] = _rss_kb() - rss_before


#: (span name, wrap target, before hook, after hook). The MWIS solve,
#: ``algorithms.solve_mwis``, is wrapped by the ``cello-offline``
#: workload itself on every run, because its selection is checked.
WRAPS: Tuple[Tuple[str, str, Optional[Callable[..., Any]], Optional[Callable[..., Any]]], ...] = (
    ("core.wsc.choose_batch", "repro.core.wsc:WSCBatchScheduler.choose_batch", None, _count_batch),
    ("core.heuristic.choose", "repro.core.heuristic:HeuristicScheduler.choose", None, None),
    ("core.problem", "repro.core.problem:SchedulingProblem.build", None, None),
    ("core.mwis.schedule", "repro.core.mwis:MWISOfflineScheduler.schedule_detailed", None, None),
    ("core.mwis.build_graph", "repro.core.mwis:MWISOfflineScheduler.build_graph", _graph_before, _graph_after),
    ("core.offline.evaluate", "repro.core.offline:OfflineEvaluator.evaluate", None, None),
    ("serve.backend.advance", "repro.serve.backend:SimBackend.advance_to", None, None),
    ("tape.run", "repro.tape.tier:TieredStorageSystem.run", None, None),
    ("tape.plan", "repro.tape.sequencer:TapeSequencer.plan", None, None),
)

#: Per-layer metrics: (name, unit, better).
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("python.startup_s", "s", "lower"),
    ("import_s", "s", "lower"),
    ("traces.generate_s", "s", "lower"),
    ("traces.workload_s", "s", "lower"),
    ("placement.bind_s", "s", "lower"),
    ("traces.records", "count", "higher"),
    ("placement.replicas", "count", "higher"),
    ("sim.simulate_s", "s", "lower"),
    ("sim.run_offline_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_request", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.always_on_s", "s", "lower"),
    ("disk.active_frac", "fraction", "lower"),
    ("disk.idle_frac", "fraction", "lower"),
    ("disk.standby_frac", "fraction", "higher"),
    ("disk.transition_frac", "fraction", "lower"),
    ("disk.spin_ups", "count", "lower"),
    ("disk.max_share", "fraction", "lower"),
    ("core.wsc.choose_batch_s", "s", "lower"),
    ("core.wsc.calls", "count", "lower"),
    ("core.wsc.batch_mean", "count", "higher"),
    ("core.heuristic.choose_s", "s", "lower"),
    ("core.heuristic.calls", "count", "lower"),
    ("core.problem_s", "s", "lower"),
    ("core.mwis.build_graph_s", "s", "lower"),
    ("core.mwis.nodes", "count", "lower"),
    ("core.mwis.edges", "count", "lower"),
    ("core.mwis.edges_per_request", "count", "lower"),
    ("core.mwis.build_graph_rss_mb", "MB", "lower"),
    ("core.mwis.derive_s", "s", "lower"),
    ("core.mwis.selected", "count", "higher"),
    ("core.offline.evaluate_s", "s", "lower"),
    ("algorithms.solve_mwis_s", "s", "lower"),
    ("serve.self_s", "s", "lower"),
    ("serve.backend.advance_s", "s", "lower"),
    ("serve.backend.advance_calls", "count", "lower"),
    ("serve.us_per_request", "us", "lower"),
    ("serve.queue_wait_p50_s", "s", "lower"),
    ("serve.rejected", "count", "lower"),
    ("tape.run_s", "s", "lower"),
    ("tape.plan_s", "s", "lower"),
    ("tape.plans", "count", "lower"),
    ("tape.requests_to_tape", "count", "lower"),
    ("tape.seek_m", "m", "lower"),
    ("tape.mounts", "count", "lower"),
    ("tape.energy_frac", "fraction", "lower"),
    ("serialize.report_s", "s", "lower"),
    ("serialize.bytes", "bytes", "lower"),
    ("energy_j_per_request", "J", "lower"),
    ("spin_ops", "count", "lower"),
    ("response_mean_s", "s", "lower"),
    ("response_p50_s", "s", "lower"),
    ("response_p999_s", "s", "lower"),
    ("failed_fraction", "fraction", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

#: Metric -> the wrapped span it depends on (for absent-target reporting).
_DEPENDS = {
    "core.wsc.choose_batch_s": "core.wsc.choose_batch",
    "core.wsc.calls": "core.wsc.choose_batch",
    "core.wsc.batch_mean": "core.wsc.choose_batch",
    "core.heuristic.choose_s": "core.heuristic.choose",
    "core.heuristic.calls": "core.heuristic.choose",
    "core.problem_s": "core.problem",
    "core.mwis.derive_s": "core.mwis.schedule",
    "core.mwis.build_graph_s": "core.mwis.build_graph",
    "core.mwis.nodes": "core.mwis.build_graph",
    "core.mwis.edges": "core.mwis.build_graph",
    "core.mwis.edges_per_request": "core.mwis.build_graph",
    "core.mwis.build_graph_rss_mb": "core.mwis.build_graph",
    "core.offline.evaluate_s": "core.offline.evaluate",
    "algorithms.solve_mwis_s": "algorithms.solve_mwis",
    "serve.backend.advance_s": "serve.backend.advance",
    "serve.backend.advance_calls": "serve.backend.advance",
    "tape.run_s": "tape.run",
    "tape.plan_s": "tape.plan",
    "tape.plans": "tape.plan",
}


def install(tracer: Tracer) -> None:
    """Wrap every target of :data:`WRAPS` (missing ones become absent)."""
    for name, target, before, after in WRAPS:
        tracer.wrap(target, name, before=before, after=after)


def _sum_counts(spans: Sequence[Span], name: str, key: str) -> float:
    return float(sum(s.counts.get(key, 0) for s in spans if s.name == name))


def layer_metrics(
    tracer: Tracer,
    offered: int,
    counts: Dict[str, float],
    sim_metrics: Dict[str, Optional[float]],
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer values of one traced run, and the absent ones' reasons.

    Times are seconds of self time where the span has wrapped children
    (``sim.simulate_s``, ``sim.run_offline_s``, ``core.mwis.derive_s``,
    ``serve.self_s``, ``tape.run_s``) and inclusive seconds elsewhere.
    """
    spans = tracer.spans
    totals = totals_by_name(spans)
    empty = LayerTotals()

    def total(name: str) -> float:
        return totals.get(name, empty).total_s

    def own(name: str) -> float:
        return totals.get(name, empty).self_s

    def calls(name: str) -> float:
        return float(totals.get(name, empty).calls)

    events = float(counts.get("sim.events", 0))
    engine_s = own("sim.simulate") + own("tape.run") + own("serve.backend.advance")
    wsc_calls = calls("core.wsc.choose_batch")
    nodes = _sum_counts(spans, "core.mwis.build_graph", "nodes")
    edges = _sum_counts(spans, "core.mwis.build_graph", "edges")
    values: Dict[str, float] = {
        "python.startup_s": total("python.startup"),
        "import_s": total("import"),
        "traces.generate_s": total("traces.generate"),
        "traces.workload_s": total("traces.workload"),
        "placement.bind_s": total("placement.bind"),
        "sim.simulate_s": own("sim.simulate"),
        "sim.run_offline_s": own("sim.run_offline"),
        "sim.events_per_request": events / offered if offered else 0.0,
        "sim.ns_per_event": engine_s / events * 1e9 if events else 0.0,
        "sim.always_on_s": total("sim.always_on"),
        "core.wsc.choose_batch_s": total("core.wsc.choose_batch"),
        "core.wsc.calls": wsc_calls,
        "core.wsc.batch_mean": (
            _sum_counts(spans, "core.wsc.choose_batch", "batch") / wsc_calls
            if wsc_calls
            else 0.0
        ),
        "core.heuristic.choose_s": total("core.heuristic.choose"),
        "core.heuristic.calls": calls("core.heuristic.choose"),
        "core.problem_s": total("core.problem"),
        "core.mwis.build_graph_s": total("core.mwis.build_graph"),
        "core.mwis.nodes": nodes,
        "core.mwis.edges": edges,
        "core.mwis.edges_per_request": edges / offered if nodes and offered else 0.0,
        "core.mwis.build_graph_rss_mb": _sum_counts(
            spans, "core.mwis.build_graph", "rss_growth_kb"
        )
        / 1024.0,
        "core.mwis.derive_s": own("core.mwis.schedule"),
        "core.offline.evaluate_s": total("core.offline.evaluate"),
        "algorithms.solve_mwis_s": total("algorithms.solve_mwis"),
        "serve.self_s": own("serve.run_load"),
        "serve.backend.advance_s": total("serve.backend.advance"),
        "serve.backend.advance_calls": calls("serve.backend.advance"),
        "serve.us_per_request": (
            total("serve.run_load") / offered * 1e6
            if offered and "serve.run_load" in totals
            else 0.0
        ),
        "tape.run_s": own("tape.run"),
        "tape.plan_s": total("tape.plan"),
        "tape.plans": calls("tape.plan"),
        "serialize.report_s": total("serialize.report"),
        "trace.wall_s": total("run"),
        "trace.spans": float(len(spans)),
        "trace.unattributed_s": own("run"),
    }
    for name, _unit, _better in LAYER_METRICS:
        if name in values:
            continue
        if name in counts:
            values[name] = float(counts[name])
        elif sim_metrics.get(name) is not None:
            values[name] = float(sim_metrics[name])  # type: ignore[arg-type]
        else:
            values[name] = 0.0
    absent = {
        metric: tracer.absent[span]
        for metric, span in _DEPENDS.items()
        if span in tracer.absent
    }
    return values, absent

