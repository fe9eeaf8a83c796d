"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload {signoff,closure,eco} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` prints the workload's own figures as ``name = value
unit`` lines, then the end-to-end metrics as the last line.  ``--trace
1`` times every input both untraced and traced and prints the per-layer
metrics, each layer's self time and the tracing overhead instead.
Either way the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pin_environment() -> None:
    """Make ambient settings unable to change what is measured."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def end_to_end(run) -> "dict[str, tuple[float, str]]":
    """The bounded metrics, from the untraced operations.  The times
    are scaled to the reference machine speed.  The peak memory is the
    whole process's, so it includes input generation and the inputs and
    oracle answers the harness keeps."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed = run.speed()
    return {
        "setup_s": (run.setup_s() * speed, "s"),
        "ops_per_s": (run.ops_per_s() / speed, "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def per_layer(tracer, run) -> "dict[str, tuple[float, str]]":
    """Per-layer totals per traced operation, plus the tracing overhead."""
    from probes import per_layer_metrics

    metrics = per_layer_metrics(tracer, run.traced_count())
    overhead, plain = run.tracing_overhead()
    metrics["trace.ops"] = (float(run.traced_count()), "count")
    metrics["trace.overhead_ms"] = (1000.0 * overhead, "ms")
    metrics["trace.overhead_pct"] = (100.0 * overhead / plain, "%")
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("signoff", "closure", "eco"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _pin_environment()
    from probes import Tracer, guard
    from workloads import run_workload

    tracer = Tracer() if args.trace else None
    run = run_workload(args.workload, args.seed, args.seconds, tracer)
    if not run.ops or (tracer is not None and not run.traced_ops):
        print(f"{args.workload}: no operation completed", file=sys.stderr)
        return 1
    if tracer is None:
        for name, (value, unit) in run.details.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
        print(f"{args.workload} machine_speed = {run.speed():.6g} x")
        metrics = end_to_end(run)
    else:
        metrics = per_layer(tracer, run)
        silent = guard(tracer, args.workload)
        if silent:
            print(f"layers with no calls on {args.workload}: "
                  f"{', '.join(silent)}", file=sys.stderr)
            run.attempted += 1
            run.failed += 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
