"""Byte-identity pin of the set-up path: trace generation, binding, placement.

``data/setup_pins.sha256`` holds the digests of the synthetic records, the
bound request stream and the placement catalog for both synthetic traces
at paper scale (see ``data/README.md``). Any change that moves one record,
one request or one replica location fails here.

Regenerate (only for a deliberate change) with::

    PYTHONPATH=src python tests/traces/test_setup_pins.py \\
        > tests/traces/data/setup_pins.sha256
"""

import hashlib
from pathlib import Path

import pytest

from repro.placement.schemes import ZipfOriginalUniformReplicas
from repro.traces import (
    CelloLikeConfig,
    FinancialLikeConfig,
    Workload,
    generate_cello_like,
    generate_financial_like,
)

PIN = Path(__file__).parent / "data" / "setup_pins.sha256"

SEED = 1
NUM_DISKS = 180
REPLICATION_FACTORS = (1, 3, 5)
GENERATORS = {
    "cello": lambda: generate_cello_like(CelloLikeConfig(), seed=SEED),
    "financial": lambda: generate_financial_like(FinancialLikeConfig(), seed=SEED),
}


def sha256_lines(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
    return digest.hexdigest()


def setup_digests(trace):
    """``{"<trace> rf=<rf> <part>": sha256}`` for one synthetic trace."""
    records = GENERATORS[trace]()
    records_digest = sha256_lines(
        f"{r.time!r} {r.data_key!r} {r.op.value} {r.size_bytes}\n" for r in records
    )
    workload = Workload(records)
    digests = {}
    for rf in REPLICATION_FACTORS:
        requests, catalog = workload.bind(
            ZipfOriginalUniformReplicas(replication_factor=rf, zipf_exponent=1.0),
            num_disks=NUM_DISKS,
            seed=SEED + 7,
        )
        digests[f"{trace} rf={rf} records"] = records_digest
        digests[f"{trace} rf={rf} requests"] = sha256_lines(
            f"{q.time!r} {q.request_id} {q.data_id} {q.size_bytes} {q.op.value}\n"
            for q in requests
        )
        digests[f"{trace} rf={rf} catalog"] = sha256_lines(
            f"{data_id} {' '.join(map(str, disks))}\n"
            for data_id, disks in catalog.mapping().items()
        )
    return digests


def read_pins():
    pins = {}
    for line in PIN.read_text().splitlines():
        key, digest = line.rsplit(" ", 1)
        pins[key] = digest
    return pins


@pytest.mark.parametrize("trace", sorted(GENERATORS))
def test_setup_matches_pin(trace):
    pins = read_pins()
    digests = setup_digests(trace)
    assert digests == {key: pins[key] for key in digests}


if __name__ == "__main__":
    for name in sorted(GENERATORS):
        for key, value in setup_digests(name).items():
            print(f"{key} {value}")
