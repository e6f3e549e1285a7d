"""One benchmark run in a fresh interpreter.

Runs one workload once and prints one JSON object on stdout: phase
times, peak memory, sim metrics, the canonical report's sha256, check
failures and, for a traced run, the per-layer metrics. The runner
(``run.py``) starts this script once per run, one at a time, and passes
the monotonic instant it spawned the process so that ``wall_s``
includes interpreter start-up. ``setup_s`` and ``schedule_s`` are CPU
seconds of this process, which leave out the time it waits for a CPU.

Usage::

    python3 perfbench/child.py --workload cello-online --seed 1 \
        --spawn-t <time.perf_counter() of the parent> [--trace-out PATH]
"""

from __future__ import annotations

import time

_MAIN_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

from spans import NullTracer, Tracer  # noqa: E402


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spawn-t", type=float, default=None)
    parser.add_argument("--trace-out", default=None)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> Dict[str, Any]:
    spawn_t = _MAIN_START if args.spawn_t is None else args.spawn_t
    traced = args.trace_out is not None
    tracer: Any = Tracer() if traced else NullTracer()
    if traced:
        root = tracer.open("run", start=spawn_t)
        startup = tracer.open("python.startup", start=spawn_t)
        tracer.close(startup, end=_MAIN_START)
    with tracer.span("import"):
        import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if traced:
        import layers

        layers.install(tracer)
    ctx = workloads.Context(args.seed, args.scale, tracer)
    try:
        out = workloads.WORKLOADS[args.workload](ctx)
    finally:
        tracer.restore()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import checks

    failures = list(out.failures) + checks.check_record(out.record)
    result: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": traced,
        "offered": out.offered,
        "record": {k: v for k, v in out.record.items() if not isinstance(v, list)},
        "wall_s": ctx.report_end - spawn_t - ctx.excluded_s,
        # CPU seconds: the process's CPU clock starts when it is
        # created, so set-up includes interpreter start-up.
        "setup_s": ctx.schedule_start_cpu,
        "schedule_s": ctx.schedule_end_cpu - ctx.schedule_start_cpu,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "sim": out.sim,
        "digest": hashlib.sha256(out.report_text.encode("utf-8")).hexdigest(),
        "failures": failures,
        "skipped_checks": out.skipped_checks,
    }
    if traced:
        tracer.close(root, end=ctx.report_end)
        values, absent = layers.layer_metrics(tracer, out.offered, out.counts, out.sim)
        values["trace.wall_s"] -= ctx.excluded_s
        values["trace.unattributed_s"] -= ctx.excluded_s
        result["layers"] = values
        result["absent"] = absent
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "excluded_s": ctx.excluded_s,
                    "spans": tracer.export(),
                },
                handle,
                separators=(",", ":"),
            )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    result = run(parse_args(argv))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
