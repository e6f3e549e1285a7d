"""Output checks applied to every benchmark run.

Each check takes a run *record* — a plain dict the child builds from the
program's report right after the run — and returns a list of failure
messages, empty when the check passes. Keeping the input a plain dict
lets the tests doctor a record (drop a completion, perturb an energy)
and watch the matching check reject it.

Record keys:

* ``offered``, ``completed``, ``lost``, ``rejected`` — request counts;
* ``duration_s`` — the run's simulated duration;
* ``disk_time_s`` — per disk, seconds summed over its power states;
* ``disk_energy_j`` — per disk, joules, recomputed by the benchmark
  from the disk's power-state seconds and its profile's state powers;
* ``tape_energy_j`` — joules of the tape drives, recomputed the same
  way from the tier's per-state seconds (0 without a tape tier);
* ``total_energy_j`` — the program's total joules: the report's total
  on replays, the service's ``energy.joules`` gauge when serving;
* ``tape_time_s``, ``tape_drives`` — tiered runs only: seconds summed
  over every tape drive's power states, and the number of drives.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

#: Relative tolerance of the floating-point sums.
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def check_accounting(record: Dict[str, Any]) -> List[str]:
    """completed + lost + rejected must equal offered (nothing undrained)."""
    accounted = record["completed"] + record["lost"] + record["rejected"]
    if accounted != record["offered"]:
        return [
            f"accounting: completed {record['completed']} + lost "
            f"{record['lost']} + rejected {record['rejected']} = {accounted}, "
            f"offered {record['offered']}"
        ]
    return []


def check_state_time(record: Dict[str, Any]) -> List[str]:
    """Every disk's power-state seconds must sum to the run's duration."""
    duration = record["duration_s"]
    failures = [
        f"state time: disk {disk} accounts {seconds!r} s of {duration!r} s"
        for disk, seconds in enumerate(record["disk_time_s"])
        if not _close(seconds, duration)
    ]
    if not record["disk_time_s"]:
        failures.append("state time: report has no disks")
    if "tape_time_s" in record:
        expected = record["tape_drives"] * duration
        if not _close(record["tape_time_s"], expected):
            failures.append(
                f"state time: tape drives account {record['tape_time_s']!r} s "
                f"of {expected!r} s"
            )
    return failures


def check_energy(record: Dict[str, Any]) -> List[str]:
    """Joules recomputed from the state-time ledgers must match the
    program's total.

    The program derives its total from the same ledgers today, so on
    replays this guards against a change in how it turns state time
    into joules or sums them; when serving, the total comes from the
    live energy gauge, a separate path.
    """
    summed = sum(record["disk_energy_j"]) + record["tape_energy_j"]
    if not _close(summed, record["total_energy_j"]):
        return [
            f"energy: disks + tape = {summed!r} J, report total "
            f"{record['total_energy_j']!r} J"
        ]
    return []


def check_independent_set(graph: Any, selected: Sequence[int]) -> List[str]:
    """The MWIS selection must be an independent set of its graph."""
    from repro.algorithms.independent_set import independence_check
    from repro.errors import ConfigurationError

    try:
        independence_check(graph, list(selected))
    except ConfigurationError as error:
        return [f"independent set: {error}"]
    return []


def check_digests(digests: Sequence[str]) -> List[str]:
    """All runs of one seed must serialise to the same canonical report."""
    distinct = sorted(set(digests))
    if len(distinct) > 1:
        return [f"digest: {len(distinct)} distinct report digests {distinct}"]
    return []


RECORD_CHECKS = (check_accounting, check_state_time, check_energy)


def check_record(record: Dict[str, Any]) -> List[str]:
    """Every record check, failures concatenated."""
    failures: List[str] = []
    for check in RECORD_CHECKS:
        failures.extend(check(record))
    return failures
