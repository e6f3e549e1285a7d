"""Raw trace records.

A :class:`TraceRecord` is one line of a block-level I/O trace before it is
bound to a placement: a timestamp, an opaque data key (the paper treats
each unique ``(disk id, logical block address)`` pair as one data item),
a size, and the I/O direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Hashable

from repro.types import DEFAULT_REQUEST_BYTES, OpKind


@dataclass(frozen=True, order=True)
class TraceRecord:
    """One block-level I/O event.

    Attributes:
        time: Seconds since trace start.
        data_key: Identity of the accessed data item; any hashable —
            synthetic traces use ints, parsed traces use
            ``(device, lba)`` tuples.
        op: Read or write.
        size_bytes: Transfer size.
    """

    time: float
    data_key: Hashable
    op: OpKind = OpKind.READ
    size_bytes: int = DEFAULT_REQUEST_BYTES

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"trace time must be >= 0, got {self.time}")
        if self.size_bytes <= 0:
            raise ValueError(f"size must be positive, got {self.size_bytes}")


#: Sort key in the field order ``order=True`` compares: sorting with it
#: gives the same order as ``sorted(records)``, without a ``__lt__`` call
#: per comparison.
RECORD_ORDER = attrgetter("time", "data_key", "op", "size_bytes")
