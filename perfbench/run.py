"""End-to-end benchmark runner.

Runs one workload repeatedly, each run in a fresh interpreter
(``child.py``) and one at a time, for about ``--seconds`` seconds;
checks every run's outputs; prints a table of every metric by name and
unit; and prints, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json`` (medians over the runs). With ``--trace 1`` untraced
and traced runs alternate and the metrics are the per-layer ones
(medians over the traced runs), with the tracing overhead.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cello-online --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Child runs get the checkout's ``src`` as their only ``PYTHONPATH`` and
no ``REPRO_*`` variables, so ambient settings and run caches cannot
change what is measured.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402

WORKLOADS = (
    "cello-online",
    "financial-batch",
    "cello-offline",
    "serve-online",
    "zipf-tiered",
)

#: End-to-end metrics in the result line: (name, unit, better).
E2E_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("energy_norm", "ratio", "lower"),
)

#: End-to-end metrics printed in the table but not in the result line.
#: Host timings other than set-up drift with the machine's speed, in
#: CPU seconds as in wall seconds: on a shared 2-core VM the spread of
#: requests_per_s over ten seeds reached 0.35, beyond the largest
#: allowed bound; the traced JSON still records wall_s and
#: requests_per_s. Energy per request and spin operations vary too much
#: from seed to seed on the bursty Cello-like trace. cello-offline has
#: no response times (the offline model has no queueing), and
#: failed_fraction is carried by ``attempted`` and ``failed``.
E2E_TABLE_ONLY: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("energy_j_per_request", "J", "lower"),
    ("spin_ops", "count", "lower"),
    ("response_mean_s", "s", "lower"),
    ("response_p50_s", "s", "lower"),
    ("response_p999_s", "s", "lower"),
    ("failed_fraction", "fraction", "lower"),
)

#: At least this many runs per invocation, time permitting.
MIN_RUNS = 3
#: Hard ceiling on one invocation, in seconds.
CEILING_S = 165.0


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink every workload (tests only)"
    )
    return parser.parse_args(argv)


def child_env() -> Dict[str, str]:
    """The parent's environment minus REPRO_*, with only src importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class ChildError(RuntimeError):
    """A child run crashed, timed out or printed no result."""


def run_child(
    workload: str, seed: int, scale: float, traced: bool, timeout_s: float
) -> Dict[str, Any]:
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--scale",
        repr(scale),
    ]
    if traced:
        OUT.mkdir(exist_ok=True)
        command += ["--trace-out", str(OUT / f"trace-{workload}-seed{seed}.json")]
    spawn_t = time.perf_counter()
    command += ["--spawn-t", repr(spawn_t)]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired as error:
        raise ChildError(f"{workload}: run exceeded {timeout_s:.0f} s") from error
    if done.returncode != 0:
        raise ChildError(
            f"{workload}: run exited {done.returncode}\n{done.stderr.strip()}"
        )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise ChildError(f"{workload}: run printed no result")
    result: Dict[str, Any] = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - spawn_t
    return result


def run_series(
    workload: str, seed: int, seconds: float, traced: bool, scale: float
) -> List[Dict[str, Any]]:
    """Runs while the next run is expected to end by ``seconds``.

    A run is started when at most half of it would fall after the
    deadline, so a series lasts about ``seconds`` on average. Untraced
    series run untraced children only; traced series alternate untraced
    and traced children, starting untraced.
    """
    start = time.perf_counter()
    runs: List[Dict[str, Any]] = []
    while True:
        elapsed = time.perf_counter() - start
        if runs:
            typical = statistics.median(run["elapsed_s"] for run in runs)
            if elapsed + typical > CEILING_S:
                break
            if len(runs) >= MIN_RUNS and elapsed + typical / 2 > seconds:
                break
        want_trace = traced and len(runs) % 2 == 1
        runs.append(
            run_child(workload, seed, scale, want_trace, CEILING_S + 10 - elapsed)
        )
    return runs


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Checks, failure counts and medians over one workload's runs."""
    digest_failures = checks.check_digests([run["digest"] for run in runs])
    attempted = failed = 0
    failures: List[str] = list(digest_failures)
    for run in runs:
        record = run["record"]
        offered = record["offered"]
        attempted += offered
        if run["failures"] or digest_failures:
            failed += offered
            failures.extend(run["failures"])
        else:
            failed += offered - record["completed"]
    untraced = [run for run in runs if not run["traced"]]
    first = runs[0]
    host: Dict[str, float] = {
        "wall_s": statistics.median(run["wall_s"] for run in untraced),
        "setup_s": statistics.median(run["setup_s"] for run in untraced),
        "requests_per_s": statistics.median(
            run["offered"] / run["schedule_s"] for run in untraced
        ),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in untraced),
        "failed_fraction": failed / attempted,
    }
    metrics: Dict[str, Optional[float]] = dict(host)
    for name, _unit, _better in E2E_METRICS + E2E_TABLE_ONLY:
        if name not in metrics:
            metrics[name] = first["sim"].get(name)
    traced = [run for run in runs if run["traced"]]
    layers: Dict[str, float] = {}
    absent: Dict[str, str] = {}
    if traced:
        for name, _unit, _better in LAYER_METRICS:
            layers[name] = statistics.median(run["layers"][name] for run in traced)
        for run in traced:
            absent.update(run["absent"])
        # Each traced run is paired with the untraced run just before
        # it, so slow drifts in machine speed mostly cancel.
        layers["trace.overhead_s"] = statistics.median(
            after["wall_s"] - before["wall_s"]
            for before, after in zip(runs, runs[1:])
            if after["traced"] and not before["traced"]
        )
        for name in ("wall_s", "requests_per_s", "failed_fraction"):
            layers[name] = host[name]
    skipped: Dict[str, str] = {}
    for run in runs:
        skipped.update(run["skipped_checks"])
    return {
        "runs": len(runs),
        "traced_runs": len(traced),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "skipped_checks": skipped,
        "metrics": metrics,
        "layers": layers,
        "absent": absent,
        "response_samples": first["sim"].get("response_samples"),
        "digest": first["digest"],
    }


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}"


def print_table(workload: str, summary: Dict[str, Any], traced: bool) -> None:
    print(
        f"== {workload}: {summary['runs']} runs ({summary['traced_runs']} traced), "
        f"{summary['attempted']} requests attempted, {summary['failed']} failed"
    )
    for rows, kind in ((E2E_METRICS, "gated"), (E2E_TABLE_ONLY, "table only")):
        for name, unit, better in rows:
            value = _fmt(summary["metrics"][name])
            print(f"  {name:<28} {value:>14} {unit:<8} ({better} is better; {kind})")
    print(f"  {'response samples':<28} {summary['response_samples']:>14.0f}")
    print(f"  {'report sha256':<28} {summary['digest']}")
    if traced:
        print("  -- per layer (median over traced runs)")
        for name, unit, _better in LAYER_METRICS:
            note = f"  absent: {summary['absent'][name]}" if name in summary["absent"] else ""
            print(f"  {name:<28} {_fmt(summary['layers'][name]):>14} {unit}{note}")
    for message in summary["failures"]:
        print(f"  CHECK FAILED: {message}")
    for check, reason in summary["skipped_checks"].items():
        print(f"  check skipped ({check}): {reason}")


def result_line(
    summaries: Dict[str, Dict[str, Any]], traced: bool
) -> Dict[str, Any]:
    specs = LAYER_METRICS if traced else E2E_METRICS
    metrics: Dict[str, Dict[str, Any]] = {}
    for workload, summary in summaries.items():
        values = summary["layers"] if traced else summary["metrics"]
        prefix = "" if len(summaries) == 1 else f"{workload}."
        for name, unit, _better in specs:
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    failed = sum(s["failed"] for s in summaries.values())
    return {
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # Byte-compile once so no run pays for it (an installed package
    # would not either).
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    traced = bool(args.trace)
    summaries: Dict[str, Dict[str, Any]] = {}
    try:
        for name in names:
            runs = run_series(name, args.seed, args.seconds, traced, args.scale)
            summaries[name] = summarise(runs)
            print_table(name, summaries[name], traced)
    except ChildError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(result_line(summaries, traced)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
