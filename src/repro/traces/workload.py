"""Workload: a trace bound to a data population and a placement.

A :class:`Workload` takes raw :class:`~repro.traces.record.TraceRecord`
streams, filters them to reads (the scheduler only handles reads — the
paper assumes write off-loading), maps each distinct data key to a dense
integer :data:`~repro.types.DataId` in *descending popularity order*
(data id 0 is the hottest item, which popularity-aware placement schemes
rely on), and produces the request stream ``R`` plus summary statistics.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.placement.catalog import PlacementCatalog
from repro.placement.schemes import PlacementScheme
from repro.traces.record import RECORD_ORDER, TraceRecord
from repro.traces.synthetic import coefficient_of_variation, inter_arrival_gaps
from repro.types import DataId, OpKind, Request


@dataclass(frozen=True)
class WorkloadStats:
    """Summary statistics of a bound workload.

    ``duration`` is the trace span in seconds (first to last arrival).
    """

    num_requests: int
    num_data: int
    duration: float
    mean_rate: float
    interarrival_cv: float
    max_popularity_share: float

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.num_requests} requests over {self.num_data} data items, "
            f"{self.duration:.0f} s ({self.mean_rate:.2f} req/s), "
            f"inter-arrival CV {self.interarrival_cv:.2f}, "
            f"hottest item {self.max_popularity_share * 100:.2f}% of accesses"
        )


class Workload:
    """Read-request stream derived from a trace."""

    def __init__(self, records: Sequence[TraceRecord], include_writes: bool = False):
        if not records:
            raise ConfigurationError("workload needs at least one trace record")
        selected = [
            record
            for record in sorted(records, key=RECORD_ORDER)
            if include_writes or record.op is OpKind.READ
        ]
        if not selected:
            raise ConfigurationError("no read records in trace")
        # Popularity census first, so data ids are dense and sorted by heat.
        counts = Counter(record.data_key for record in selected)
        by_popularity = sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        self._data_id_of: Dict[Hashable, DataId] = {
            key: data_id for data_id, (key, _count) in enumerate(by_popularity)
        }
        self._access_counts: Dict[DataId, int] = {
            self._data_id_of[key]: count for key, count in counts.items()
        }
        self._requests: List[Request] = [
            Request(r.time, index, self._data_id_of[r.data_key], r.size_bytes, r.op)
            for index, r in enumerate(selected)
        ]

    @property
    def requests(self) -> List[Request]:
        return list(self._requests)

    @property
    def num_requests(self) -> int:
        return len(self._requests)

    @property
    def data_ids(self) -> List[DataId]:
        """All data ids, ascending == descending popularity."""
        return sorted(self._access_counts)

    @property
    def num_data(self) -> int:
        return len(self._access_counts)

    def access_count(self, data_id: DataId) -> int:
        """How many requests touch ``data_id``."""
        return self._access_counts[data_id]

    @property
    def duration(self) -> float:
        """Trace span in seconds (first to last arrival)."""
        return self._requests[-1].time - self._requests[0].time

    def stats(self) -> WorkloadStats:
        """Summary statistics (rate, burstiness, skew)."""
        times = [request.time for request in self._requests]
        if len(times) >= 3:
            cv = coefficient_of_variation(inter_arrival_gaps(times))
        else:
            cv = 0.0
        duration = self.duration
        hottest = max(self._access_counts.values())
        return WorkloadStats(
            num_requests=self.num_requests,
            num_data=self.num_data,
            duration=duration,
            mean_rate=self.num_requests / duration if duration > 0 else 0.0,
            interarrival_cv=cv,
            max_popularity_share=hottest / self.num_requests,
        )

    def place(
        self, scheme: PlacementScheme, num_disks: int, seed: int = 0
    ) -> PlacementCatalog:
        """Lay the workload's data population out with ``scheme``."""
        rng = random.Random(seed)
        return scheme.place(self.data_ids, num_disks, rng)

    def bind(
        self, scheme: PlacementScheme, num_disks: int, seed: int = 0
    ) -> Tuple[List[Request], PlacementCatalog]:
        """Convenience: (requests, catalog) ready for a scheduler."""
        return self.requests, self.place(scheme, num_disks, seed)
