"""Every digest pin of the reproduction: one registry, one file, one test.

``data/pins.sha256`` holds one ``<key> <sha256>`` line per digest. The
first word of a key names the pin in :data:`PINS` that computes it (see
``data/README.md`` for each pin's parameters). ``test_pin[<name>]``
recomputes one pin and compares every one of its keys, so any change
that moves a pinned byte fails here, naming the key.

After a deliberate change that moves pinned bytes, rewrite only the
named pins' lines with::

    PYTHONPATH=src python tests/test_pins.py NAME...

and mention the byte-moving change in the same commit.
"""

import hashlib
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.cli import main as cli_main
from repro.core.mwis import MWISOfflineScheduler
from repro.core.problem import SchedulingProblem
from repro.experiments.harness import canonical_json, execute_spec
from repro.experiments.harness.bench import BENCHES, _ablation_result_payload
from repro.experiments.harness.runner import get_binding
from repro.experiments.harness.serialize import sha256_hex
from repro.experiments.tape_tier import run_tape_tier
from repro.placement.schemes import ZipfOriginalUniformReplicas
from repro.power.profile import get_profile
from repro.traces import (
    CelloLikeConfig,
    FinancialLikeConfig,
    Workload,
    generate_cello_like,
    generate_financial_like,
)

PIN_FILE = Path(__file__).parent / "data" / "pins.sha256"
REGENERATE = "PYTHONPATH=src python tests/test_pins.py"

Digests = Dict[str, str]


def sha256_lines(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
    return digest.hexdigest()


def fig6_digests(tmp: Path) -> Digests:
    """Every fig6 spec's canonical report at scale 0.05, seed 1, folded
    into one digest (specs in label order)."""
    specs = sorted(BENCHES["fig6"].specs(0.05, 0.05, 1), key=lambda s: s.label())
    combined = sha256_hex(
        "\n".join(
            f"{spec.label()} {sha256_hex(canonical_json(execute_spec(spec)['report']))}"
            for spec in specs
        )
    )
    return {"fig6": combined}


def tape_tier_digests(tmp: Path) -> Digests:
    """The tape_tier sweep's bench result payload at scale 0.05, seed 11."""
    payload = _ablation_result_payload(run_tape_tier(scale=0.05, seed=11))
    return {"tape_tier": sha256_hex(canonical_json(payload))}


#: Extra ``serve`` arguments per sharded deployment; the rest is shared.
SHARD_RUNS = {
    "shard r=1": ["--shards", "2"],
    "shard r=2": ["--shards", "3", "--replication-factor", "2"],
}
SHARD_LOAD = ["--requests", "800", "--rate", "200", "--clients", "8", "--seed", "5"]


def shard_digests(tmp: Path) -> Digests:
    """The bytes the real CLI writes for two multiprocess deployments."""
    digests = {}
    for index, (key, shards) in enumerate(SHARD_RUNS.items()):
        output_dir = tmp / f"shard-{index}"
        argv = ["serve", "--policy", "online", *shards, *SHARD_LOAD]
        assert cli_main([*argv, "--output-dir", str(output_dir)]) == 0
        report = (output_dir / "SERVE_online.json").read_bytes()
        digests[key] = hashlib.sha256(report).hexdigest()
    return digests


def mwis_digests(tmp: Path, rfs=(3, 5)) -> Digests:
    """GWMIN's picks, in pick order, on the cello scale-0.05 cells."""
    digests = {}
    for rf in rfs:
        requests, catalog, disks = get_binding("cello", rf, 1.0, 0.05, 1)
        problem = SchedulingProblem.build(
            requests, catalog, get_profile("paper-evaluation"), disks
        )
        scheduler = MWISOfflineScheduler(method="gwmin", neighborhood=4)
        selected = scheduler.schedule_detailed(problem).selected
        digests[f"mwis rf={rf}"] = sha256_lines(
            f"{t.predecessor} {t.successor} {t.disk}\n" for t in selected
        )
    return digests


SETUP_TRACES = {
    "cello": lambda: generate_cello_like(CelloLikeConfig(), seed=1),
    "financial": lambda: generate_financial_like(FinancialLikeConfig(), seed=1),
}


def setup_digests(tmp: Path, traces=tuple(SETUP_TRACES)) -> Digests:
    """Records, bound requests and catalog of the traces at paper scale."""
    digests = {}
    for trace in traces:
        records = SETUP_TRACES[trace]()
        records_digest = sha256_lines(
            f"{r.time!r} {r.data_key!r} {r.op.value} {r.size_bytes}\n"
            for r in records
        )
        workload = Workload(records)
        for rf in (1, 3, 5):
            requests, catalog = workload.bind(
                ZipfOriginalUniformReplicas(replication_factor=rf, zipf_exponent=1.0),
                num_disks=180,
                seed=8,
            )
            prefix = f"setup {trace} rf={rf}"
            digests[f"{prefix} records"] = records_digest
            digests[f"{prefix} requests"] = sha256_lines(
                f"{q.time!r} {q.request_id} {q.data_id} {q.size_bytes} {q.op.value}\n"
                for q in requests
            )
            digests[f"{prefix} catalog"] = sha256_lines(
                f"{data_id} {' '.join(map(str, disks))}\n"
                for data_id, disks in catalog.mapping().items()
            )
    return digests


#: Pin name -> the function computing its ``{key: sha256}``; every key
#: starts with the pin's name. File order follows this order.
PINS: Dict[str, Callable[[Path], Digests]] = {
    "fig6": fig6_digests,
    "tape_tier": tape_tier_digests,
    "shard": shard_digests,
    "mwis": mwis_digests,
    "setup": setup_digests,
}


def pin_of(key: str) -> str:
    return key.split(" ", 1)[0]


def read_pins() -> Digests:
    pins = {}
    for line in PIN_FILE.read_text().splitlines():
        key, digest = line.rsplit(" ", 1)
        pins[key] = digest
    return pins


def assert_pinned(prefix: str, measured: Digests) -> None:
    """Compare ``measured`` with every pinned key that is ``prefix`` or
    starts with ``prefix`` and a space."""
    pinned = {
        key: digest
        for key, digest in read_pins().items()
        if key == prefix or key.startswith(prefix + " ")
    }
    regenerate = f"if the change is deliberate, regenerate with `{REGENERATE} {pin_of(prefix)}`"
    unmatched = sorted(set(measured) ^ set(pinned))
    assert not unmatched, f"keys {unmatched} are computed or pinned, not both; {regenerate}"
    moved = [key for key in measured if measured[key] != pinned[key]]
    assert not moved, f"digest moved for {moved}; {regenerate}"


#: Pins checked one cell per test next to the code they pin, through
#: :func:`assert_pinned`: ``mwis`` in ``core/test_mwis_pins.py`` and
#: ``setup`` in ``traces/test_setup_pins.py``.
PER_CELL = ("mwis", "setup")


@pytest.mark.parametrize("name", [name for name in PINS if name not in PER_CELL])
def test_pin(name: str, tmp_path: Path) -> None:
    assert_pinned(name, PINS[name](tmp_path))


def test_every_pinned_key_belongs_to_a_pin() -> None:
    assert {pin_of(key) for key in read_pins()} <= set(PINS)


def main(names: List[str]) -> int:
    """Recompute the named pins and rewrite only their lines."""
    unknown = sorted(set(names) - set(PINS))
    if not names or unknown:
        print(f"usage: {REGENERATE} NAME...  (NAME in: {' '.join(PINS)})", file=sys.stderr)
        return 2
    groups = {name: {} for name in PINS}
    for key, digest in read_pins().items():
        groups.setdefault(pin_of(key), {})[key] = digest
    with tempfile.TemporaryDirectory() as tmp:
        for name in dict.fromkeys(names):
            groups[name] = PINS[name](Path(tmp))
    PIN_FILE.write_text(
        "".join(f"{key} {digest}\n" for group in groups.values() for key, digest in group.items())
    )
    print(f"rewrote {', '.join(dict.fromkeys(names))} in {PIN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
