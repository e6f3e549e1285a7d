"""Building blocks for synthetic traces: arrival processes and popularity.

The two real traces the paper replays differ chiefly in their arrival
structure — Cello is bursty (timesharing workload; high inter-arrival
variance), Financial1 is a steadier OLTP stream — and share heavy-tailed
block popularity. These primitives model both axes:

* :class:`PoissonArrivals` — memoryless baseline (CV = 1).
* :class:`MMPPArrivals` — two-state Markov-modulated Poisson process; the
  standard parsimonious model of bursty storage traffic (CV > 1).
* :class:`ParetoArrivals` — heavy-tailed inter-arrivals, an alternative
  burstiness model used in sensitivity tests.
* :class:`ZipfPopularity` — Zipf-like block popularity (Breslau et al.,
  cited by the paper for the skew it observed in Cello).
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.placement.zipf import ZipfSampler
from repro.traces.record import TraceRecord
from repro.types import OpKind


class ArrivalProcess(ABC):
    """Generates monotonically non-decreasing arrival timestamps."""

    @abstractmethod
    def generate(self, count: int, rng: random.Random) -> List[float]:
        """Return ``count`` arrival times starting at ~0."""


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate`` requests/second."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        self.rate = rate

    def generate(self, count: int, rng: random.Random) -> List[float]:
        times: List[float] = []
        now = 0.0
        for _ in range(count):
            now += rng.expovariate(self.rate)
            times.append(now)
        return times


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process.

    The process alternates between a *burst* state with high arrival rate
    and a *quiet* state with low rate; dwell times in each state are
    exponential. This produces the clustered arrivals and long quiet gaps
    characteristic of the Cello timesharing trace.

    Args:
        burst_rate: Requests/second while bursting.
        quiet_rate: Requests/second while quiet.
        mean_burst: Mean seconds per burst period.
        mean_quiet: Mean seconds per quiet period.
    """

    def __init__(
        self,
        burst_rate: float,
        quiet_rate: float,
        mean_burst: float,
        mean_quiet: float,
    ):
        for name, value in (
            ("burst_rate", burst_rate),
            ("quiet_rate", quiet_rate),
            ("mean_burst", mean_burst),
            ("mean_quiet", mean_quiet),
        ):
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if burst_rate < quiet_rate:
            raise ConfigurationError("burst_rate must be >= quiet_rate")
        self.burst_rate = burst_rate
        self.quiet_rate = quiet_rate
        self.mean_burst = mean_burst
        self.mean_quiet = mean_quiet

    @property
    def mean_rate(self) -> float:
        """Long-run average arrival rate."""
        weight_burst = self.mean_burst / (self.mean_burst + self.mean_quiet)
        return self.burst_rate * weight_burst + self.quiet_rate * (1 - weight_burst)

    def generate(self, count: int, rng: random.Random) -> List[float]:
        times: List[float] = []
        now = 0.0
        bursting = rng.random() < self.mean_burst / (self.mean_burst + self.mean_quiet)
        state_ends = now + rng.expovariate(
            1.0 / (self.mean_burst if bursting else self.mean_quiet)
        )
        while len(times) < count:
            rate = self.burst_rate if bursting else self.quiet_rate
            candidate = now + rng.expovariate(rate)
            if candidate <= state_ends:
                now = candidate
                times.append(now)
            else:
                now = state_ends
                bursting = not bursting
                state_ends = now + rng.expovariate(
                    1.0 / (self.mean_burst if bursting else self.mean_quiet)
                )
        return times


class ParetoArrivals(ArrivalProcess):
    """Heavy-tailed (Pareto) inter-arrival times.

    Args:
        rate: Target mean arrival rate (requests/second).
        shape: Pareto tail index; must be > 1 for a finite mean. Values
            near 1.5 give pronounced burstiness.
    """

    def __init__(self, rate: float, shape: float = 1.5):
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        if shape <= 1.0:
            raise ConfigurationError(f"shape must exceed 1, got {shape}")
        self.rate = rate
        self.shape = shape
        # mean of Pareto(xm, a) = xm * a / (a - 1); solve xm for 1/rate.
        self._scale = (1.0 / rate) * (shape - 1.0) / shape

    def generate(self, count: int, rng: random.Random) -> List[float]:
        times: List[float] = []
        now = 0.0
        for _ in range(count):
            u = 1.0 - rng.random()  # in (0, 1]
            gap = self._scale / u ** (1.0 / self.shape)
            now += gap
            times.append(now)
        return times


class ZipfPopularity:
    """Zipf-like popularity over ``num_items`` data items.

    Item 0 is the most popular; the synthetic generators rely on this so
    popularity-ordered placement schemes can consume their output directly.
    """

    def __init__(self, num_items: int, exponent: float = 0.9):
        if num_items <= 0:
            raise ConfigurationError("num_items must be positive")
        self.num_items = num_items
        self.exponent = exponent
        self._sampler = ZipfSampler(num_items, exponent)

    def sample(self, rng: random.Random) -> int:
        """Draw one item index (0 = hottest)."""
        return self._sampler.sample(rng)


def zipf_records(
    arrivals: Sequence[float],
    popularity: ZipfPopularity,
    read_fraction: float,
    size_bytes: int,
    rng: random.Random,
) -> List[TraceRecord]:
    """The synthetic generators' record loop: one record per arrival.

    Each record draws its op first (a read with probability
    ``read_fraction``), then its data key from ``popularity``.
    """
    draw, sample = rng.random, popularity.sample
    records: List[TraceRecord] = []
    for arrival in arrivals:
        op = OpKind.READ if draw() < read_fraction else OpKind.WRITE
        records.append(TraceRecord(arrival, sample(rng), op, size_bytes))
    return records


def coefficient_of_variation(values: List[float]) -> float:
    """CV = stddev / mean (burstiness measure of inter-arrival gaps)."""
    if len(values) < 2:
        raise ConfigurationError("need at least two values")
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(variance) / mean


def inter_arrival_gaps(times: List[float]) -> List[float]:
    """Consecutive differences (seconds) of an arrival-time sequence."""
    return [b - a for a, b in zip(times, times[1:])]
