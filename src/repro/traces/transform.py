"""Trace transformations: slicing, time-scaling, merging, mix adjustment.

Real traces rarely fit an experiment as-is — the paper itself replays a
70 000-request *slice* of each trace. These utilities make the common
surgeries explicit and testable:

* :func:`slice_requests` — the first N records (the paper's slicing).
* :func:`time_window` — records within an interval, rebased to t=0.
* :func:`scale_rate` — compress/stretch time by a factor (arrival-rate
  calibration without touching the access pattern).
* :func:`merge_traces` — interleave several traces on a shared timeline.
* :func:`with_read_fraction` — deterministically relabel ops to hit a
  target read/write mix (write off-loading experiments).
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.traces.record import RECORD_ORDER, TraceRecord
from repro.types import OpKind


def slice_requests(records: Sequence[TraceRecord], count: int) -> List[TraceRecord]:
    """The first ``count`` records in time order (paper-style slicing)."""
    if count < 0:
        raise ConfigurationError("count must be >= 0")
    return sorted(records, key=RECORD_ORDER)[:count]


def time_window(
    records: Sequence[TraceRecord], start: float, end: float
) -> List[TraceRecord]:
    """Records with ``start <= time < end``, rebased so the window opens
    at t = 0."""
    if end <= start:
        raise ConfigurationError("window end must exceed start")
    selected = [r for r in sorted(records, key=RECORD_ORDER) if start <= r.time < end]
    return [
        TraceRecord(
            time=r.time - start,
            data_key=r.data_key,
            op=r.op,
            size_bytes=r.size_bytes,
        )
        for r in selected
    ]


def scale_rate(
    records: Sequence[TraceRecord], factor: float
) -> List[TraceRecord]:
    """Multiply the arrival *rate* by ``factor`` (divide every timestamp).

    Doubling the rate halves all inter-arrival gaps while preserving the
    access pattern, burstiness *shape* and popularity skew — the knob used
    to calibrate the synthetic traces against the breakeven time.
    """
    if factor <= 0:
        raise ConfigurationError("factor must be positive")
    return [
        TraceRecord(
            time=r.time / factor,
            data_key=r.data_key,
            op=r.op,
            size_bytes=r.size_bytes,
        )
        for r in sorted(records, key=RECORD_ORDER)
    ]


def merge_traces(*traces: Sequence[TraceRecord]) -> List[TraceRecord]:
    """Interleave traces on one timeline.

    Data keys are namespaced per source trace (``(index, key)``) so equal
    keys in different traces stay distinct data items.
    """
    merged: List[TraceRecord] = []
    for index, trace in enumerate(traces):
        for record in trace:
            merged.append(
                TraceRecord(
                    time=record.time,
                    data_key=(index, record.data_key),
                    op=record.op,
                    size_bytes=record.size_bytes,
                )
            )
    merged.sort(key=RECORD_ORDER)
    return merged


def with_read_fraction(
    records: Sequence[TraceRecord], read_fraction: float, seed: int = 0
) -> List[TraceRecord]:
    """Relabel ops so ~``read_fraction`` of records are reads.

    Deterministic given the seed; timestamps, keys and sizes untouched.
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ConfigurationError("read_fraction must be in [0, 1]")
    rng = random.Random(seed)
    return [
        TraceRecord(
            time=r.time,
            data_key=r.data_key,
            op=OpKind.READ if rng.random() < read_fraction else OpKind.WRITE,
            size_bytes=r.size_bytes,
        )
        for r in sorted(records, key=RECORD_ORDER)
    ]
