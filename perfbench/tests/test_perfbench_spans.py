"""Span arithmetic and attribute wrapping of the traced run."""

import types

import pytest

import layers
import workloads
from spans import NullTracer, Span, Tracer, self_times, totals_by_name


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("run", 0.0, 10.0, parent=-1),
        Span("a", 1.0, 5.0, parent=0),
        Span("b", 2.0, 3.0, parent=1),
        Span("c", 6.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 3.0])
    # Self times of every span add up to the root's duration.
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        Span("parent", 0.0, 4.0, parent=-1),
        Span("x", 1.0, 3.0, parent=0),
        Span("y", 2.0, 6.0, parent=0),  # overlaps x and outlives the parent
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_totals_count_nested_same_name_once():
    spans = [
        Span("f", 0.0, 4.0, parent=-1),
        Span("f", 1.0, 2.0, parent=0),
    ]
    totals = totals_by_name(spans)["f"]
    assert totals.calls == 2
    assert totals.total_s == pytest.approx(4.0)
    assert totals.self_s == pytest.approx(4.0)


def _ticking_clock():
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]

    return clock


class _Target:
    def method(self, x):
        return x * 2

    @staticmethod
    def static(x):
        return x + 1

    @classmethod
    def klass(cls, x):
        return (cls.__name__, x)


def test_wrap_records_parented_spans_and_restores(monkeypatch):
    module = types.ModuleType("perfbench_fake_module")
    module.Target = _Target
    module.function = lambda x: _Target().method(x)
    monkeypatch.setitem(__import__("sys").modules, module.__name__, module)

    original_method = _Target.__dict__["method"]
    original_static = _Target.__dict__["static"]
    original_function = module.function
    tracer = Tracer(clock=_ticking_clock())
    assert tracer.wrap(f"{module.__name__}:function", "outer")
    assert tracer.wrap(f"{module.__name__}:Target.method", "inner")
    assert tracer.wrap(f"{module.__name__}:Target.static", "static")
    assert tracer.wrap(f"{module.__name__}:Target.klass", "klass")

    assert module.function(3) == 6
    assert _Target.static(1) == 2
    assert _Target().klass(5) == ("_Target", 5)
    names = [span.name for span in tracer.spans]
    assert names == ["outer", "inner", "static", "klass"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[2].parent == -1

    tracer.restore()
    assert module.function is original_function
    assert _Target.__dict__["method"] is original_method
    assert _Target.__dict__["static"] is original_static


def test_missing_wrap_target_is_marked_absent_and_run_continues():
    tracer = Tracer()
    assert not tracer.wrap("repro.core.mwis:MWISOfflineScheduler.no_such_step", "core.mwis.build_graph")
    assert not tracer.wrap("repro.no_such_module:thing", "tape.plan")
    assert set(tracer.absent) == {"core.mwis.build_graph", "tape.plan"}
    values, absent = layers.layer_metrics(tracer, 10, {}, {})
    assert values["core.mwis.build_graph_s"] == 0.0
    assert "core.mwis.edges" in absent and "tape.plans" in absent
    assert "core.wsc.calls" not in absent


def test_every_wrap_target_exists_in_the_program():
    tracer = Tracer()
    layers.install(tracer)
    tracer.wrap(workloads.SOLVE_TARGET, "algorithms.solve_mwis")
    try:
        assert tracer.absent == {}
    finally:
        tracer.restore()


def test_null_tracer_records_nothing_but_runs_hooks(monkeypatch):
    module = types.ModuleType("perfbench_fake_null")
    module.function = lambda x: x + 1
    monkeypatch.setitem(__import__("sys").modules, module.__name__, module)
    original = module.function
    seen = []
    tracer = NullTracer()
    with tracer.span("anything"):
        assert tracer.wrap(
            f"{module.__name__}:function",
            "function",
            after=lambda span, args, kwargs, result, state: seen.append(result),
        )
        assert module.function(1) == 2
    tracer.restore()
    assert seen == [2]
    assert tracer.spans == []
    assert module.function is original
