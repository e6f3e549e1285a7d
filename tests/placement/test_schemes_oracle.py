"""Placement schemes against a reference copy of their original algorithm.

The schemes draw replicas in O(replicas) per item. The reference below is
the O(disks)-per-item algorithm they replaced, kept verbatim: it lists
every disk but the excluded ones and samples from that list. For every
scheme, disk count, replication factor, Zipf exponent and seed, both must
give the same catalog *and* leave the generator in the same state, so
that nothing drawn after placement can drift.
"""

import random
from typing import Dict, List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError
from repro.placement.schemes import (
    PackedPlacement,
    UniformPlacement,
    ZipfOriginalUniformReplicas,
)
from repro.placement.zipf import ZipfSampler, rank_permutation
from repro.types import DataId, DiskId


def _uniform_distinct(
    rng: random.Random, num_disks: int, count: int, exclude: Sequence[DiskId]
) -> List[DiskId]:
    """Draw ``count`` distinct disks uniformly, avoiding ``exclude``."""
    if count == 0:
        return []
    available = [disk for disk in range(num_disks) if disk not in set(exclude)]
    if count > len(available):
        raise PlacementError(
            f"cannot pick {count} distinct disks from {len(available)} remaining"
        )
    return rng.sample(available, count)


def reference_zipf(data_ids, num_disks, rng, replication_factor, zipf_exponent):
    sampler = ZipfSampler(num_disks, zipf_exponent)
    rank_to_disk = rank_permutation(num_disks, rng)
    locations: Dict[DataId, List[DiskId]] = {}
    for data_id in data_ids:
        original = rank_to_disk[sampler.sample(rng)]
        disks = [original]
        disks.extend(
            _uniform_distinct(rng, num_disks, replication_factor - 1, disks)
        )
        locations[data_id] = disks
    return locations


def reference_uniform(data_ids, num_disks, rng, replication_factor):
    locations: Dict[DataId, List[DiskId]] = {}
    for data_id in data_ids:
        locations[data_id] = _uniform_distinct(
            rng, num_disks, replication_factor, []
        )
    return locations


def reference_packed(data_ids, num_disks, rng, replication_factor, items_per_disk):
    locations: Dict[DataId, List[DiskId]] = {}
    for index, data_id in enumerate(data_ids):
        original = min(index // items_per_disk, num_disks - 1)
        disks = [original]
        disks.extend(
            _uniform_distinct(rng, num_disks, replication_factor - 1, disks)
        )
        locations[data_id] = disks
    return locations


@st.composite
def layouts(draw):
    num_disks = draw(st.integers(min_value=1, max_value=200))
    replication_factor = draw(st.integers(1, min(5, num_disks)))
    num_data = draw(st.integers(0, 80))
    seed = draw(st.integers(0, 2**32 - 1))
    return num_disks, replication_factor, list(range(num_data)), seed


def assert_same_draws(scheme, reference, data_ids, num_disks, seed):
    rng = random.Random(seed)
    expected_rng = random.Random(seed)
    catalog = scheme.place(data_ids, num_disks, rng)
    expected = reference(data_ids, num_disks, expected_rng)
    assert list(catalog) == list(expected)
    assert {d: list(disks) for d, disks in catalog.mapping().items()} == expected
    assert rng.getstate() == expected_rng.getstate()


@settings(max_examples=150, deadline=None)
@given(layouts(), st.sampled_from([0.0, 0.5, 1.0]))
def test_zipf_original_uniform_replicas_matches_reference(layout, zipf_exponent):
    num_disks, rf, data_ids, seed = layout
    assert_same_draws(
        ZipfOriginalUniformReplicas(replication_factor=rf, zipf_exponent=zipf_exponent),
        lambda d, n, rng: reference_zipf(d, n, rng, rf, zipf_exponent),
        data_ids,
        num_disks,
        seed,
    )


@settings(max_examples=150, deadline=None)
@given(layouts())
def test_uniform_placement_matches_reference(layout):
    num_disks, rf, data_ids, seed = layout
    assert_same_draws(
        UniformPlacement(replication_factor=rf),
        lambda d, n, rng: reference_uniform(d, n, rng, rf),
        data_ids,
        num_disks,
        seed,
    )


@settings(max_examples=150, deadline=None)
@given(layouts(), st.integers(1, 40))
def test_packed_placement_matches_reference(layout, items_per_disk):
    num_disks, rf, data_ids, seed = layout
    assert_same_draws(
        PackedPlacement(replication_factor=rf, items_per_disk=items_per_disk),
        lambda d, n, rng: reference_packed(d, n, rng, rf, items_per_disk),
        data_ids,
        num_disks,
        seed,
    )
