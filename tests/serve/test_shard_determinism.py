"""The sharded determinism tier: serial ≡ multiprocess, byte for byte.

Two layers of the contract, in increasing strictness:

1. the same deployment run twice (multiprocess) is byte-identical;
2. the serial reference path and the multiprocess path produce
   byte-identical per-shard documents *and* merged document,
   extending the byte-equality determinism tier in
   ``tests/experiments/test_determinism.py`` across the process
   boundary.

The merged reports the real CLI writes for the smoke deployments below
are digest-pinned as ``shard`` in ``tests/test_pins.py``.
"""

from __future__ import annotations

import asyncio
from typing import List

from repro.experiments.harness.schema import validate_bench_payload
from repro.serve.admission import Outcome
from repro.serve.clock import virtual_run
from repro.serve.loadgen import LoadgenConfig
from repro.serve.service import SchedulingService
from repro.serve.shard import (
    ShardedServiceConfig,
    assign_data,
    build_topology,
    plan_messages,
    run_sharded,
    sharded_document,
)
from repro.serve.shard.reporting import canonical_json

#: The canonical smoke parameters — the ``shard r=1`` pin's deployment
#: (``serve --shards 2``; ``window_s`` is the CLI default).
SMOKE_CONFIG = ShardedServiceConfig(
    policy="online",
    num_shards=2,
    num_disks=18,
    replication_factor=3,
    seed=5,
    window_s=1.0,
)
SMOKE_LOAD = LoadgenConfig(
    num_requests=800, rate_per_s=200.0, num_clients=8, seed=5
)

#: The replicated smoke: same fleet and load, three shards holding every
#: data id on two of them, no faults injected — the ``shard r=2`` pin's
#: deployment (``serve --shards 3 --replication-factor 2``).
SMOKE_R2_CONFIG = ShardedServiceConfig(
    policy="online",
    num_shards=3,
    num_disks=18,
    replication_factor=3,
    shard_replication_factor=2,
    seed=5,
    window_s=1.0,
)


def test_multiprocess_run_is_byte_reproducible() -> None:
    first = run_sharded(SMOKE_CONFIG, SMOKE_LOAD)
    second = run_sharded(SMOKE_CONFIG, SMOKE_LOAD)
    assert first.outcomes == second.outcomes
    assert canonical_json(
        sharded_document(SMOKE_CONFIG, SMOKE_LOAD, first)
    ) == canonical_json(sharded_document(SMOKE_CONFIG, SMOKE_LOAD, second))


def test_serial_and_multiprocess_paths_are_byte_identical() -> None:
    serial = run_sharded(SMOKE_CONFIG, SMOKE_LOAD, multiprocess=False)
    multi = run_sharded(SMOKE_CONFIG, SMOKE_LOAD, multiprocess=True)
    assert serial.outcomes == multi.outcomes
    assert len(serial.shard_results) == SMOKE_CONFIG.num_shards
    for ours, theirs in zip(serial.shard_results, multi.shard_results):
        assert ours.shard_id == theirs.shard_id
        assert ours.indices == theirs.indices
        assert ours.outcomes == theirs.outcomes
        assert ours.registry_dump == theirs.registry_dump
        assert ours.virtual_elapsed_s == theirs.virtual_elapsed_s
        assert canonical_json(dict(ours.document)) == canonical_json(
            dict(theirs.document)
        )
    assert canonical_json(
        sharded_document(SMOKE_CONFIG, SMOKE_LOAD, serial)
    ) == canonical_json(sharded_document(SMOKE_CONFIG, SMOKE_LOAD, multi))


def test_merged_document_is_schema_valid() -> None:
    run = run_sharded(SMOKE_CONFIG, SMOKE_LOAD, multiprocess=False)
    document = sharded_document(SMOKE_CONFIG, SMOKE_LOAD, run)
    assert validate_bench_payload(document) == []


def test_replicated_paths_are_byte_identical() -> None:
    """Layer 2 again, at ``shard_replication_factor = 2``."""
    serial = run_sharded(SMOKE_R2_CONFIG, SMOKE_LOAD, multiprocess=False)
    multi = run_sharded(SMOKE_R2_CONFIG, SMOKE_LOAD, multiprocess=True)
    assert serial.outcomes == multi.outcomes
    assert canonical_json(
        sharded_document(SMOKE_R2_CONFIG, SMOKE_LOAD, serial)
    ) == canonical_json(sharded_document(SMOKE_R2_CONFIG, SMOKE_LOAD, multi))
    # Healthy replicated run: nothing failed over, nothing replayed.
    assert multi.requests_failed_over == 0
    assert multi.requests_replayed == 0
    assert multi.recoveries == ()
    completed = sum(1 for outcome in multi.outcomes if outcome.accepted)
    assert multi.availability == completed / len(multi.outcomes)


def test_replicated_document_records_its_deployment() -> None:
    run = run_sharded(SMOKE_R2_CONFIG, SMOKE_LOAD, multiprocess=False)
    document = sharded_document(SMOKE_R2_CONFIG, SMOKE_LOAD, run)
    assert validate_bench_payload(document) == []
    deployment = document["result"]["deployment"]
    assert deployment["shard_replication_factor"] == 2
    assert "recovery" not in document["result"]


def test_shard_worker_equals_an_independent_unsharded_service() -> None:
    """The tentpole contract, tested without the worker's own code.

    A plain :class:`SchedulingService` over shard 0's sub-fleet
    (its config, catalog and request sub-stream, driven by a session
    written here from scratch) must produce the exact outcomes the
    worker process reports for shard 0.
    """
    spec = build_topology(SMOKE_CONFIG)[0]
    table = assign_data(SMOKE_CONFIG)
    sub_stream = [
        message
        for message in plan_messages(SMOKE_CONFIG, SMOKE_LOAD)
        if table[message.data_id] == spec.shard_id
    ]

    async def session() -> List[Outcome]:
        service = SchedulingService(spec.service, catalog=spec.make_catalog())
        await service.start()
        loop = asyncio.get_running_loop()
        tasks: "List[asyncio.Task[Outcome]]" = []
        for message in sub_stream:
            await service.clock.sleep_until(message.arrival_s)
            tasks.append(
                loop.create_task(
                    service.submit(message.client_id, message.data_id)
                )
            )
        outcomes = list(await asyncio.gather(*tasks))
        await service.drain(grace_s=spec.drain_grace_s)
        return outcomes

    direct = virtual_run(session())
    run = run_sharded(SMOKE_CONFIG, SMOKE_LOAD, multiprocess=True)
    assert tuple(direct) == run.shard_results[spec.shard_id].outcomes


def test_per_shard_reports_are_schema_valid() -> None:
    run = run_sharded(SMOKE_CONFIG, SMOKE_LOAD, multiprocess=False)
    for result in run.shard_results:
        assert validate_bench_payload(dict(result.document)) == []
