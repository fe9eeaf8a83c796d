"""Fast self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is emitted (and
nothing else), that each oracle check trips on a deliberately
corrupted answer, and that two runs with one seed agree exactly on the
deterministic figures.  Exits non-zero with a message on the first
failure.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

bench._pin_environment()

from probes import Tracer, guard  # noqa: E402
import workloads as wl  # noqa: E402

TINY = wl.Profile(
    signoff_design="D1", signoff_designs=1, pba_k=5,
    closure_design="D1", closure_designs=1, max_transforms=5,
    eco_design="D1", eco_designs=2, eco_requests=40,
    whatif_candidates=2, eco_pba_k=4,
)
SEED = 7
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def measure(workload: str, traced: bool):
    tracer = Tracer() if traced else None
    run = wl.run_workload(workload, SEED, 0.0, tracer, TINY)
    require(run.failed == 0, f"{workload} failed {run.failed} checks")
    require(bool(run.ops), f"{workload} completed no operation")
    if not traced:
        return run, bench.end_to_end(run)
    silent = guard(tracer, workload)
    require(not silent, f"{workload} layers saw no calls: {silent}")
    return run, bench.per_layer(tracer, run)


def same_names(got: "dict[str, tuple[float, str]]",
               want: "dict[str, str]", what: str) -> None:
    require(set(got) == set(want),
            f"{what}: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}")
    for name, (value, unit) in got.items():
        require(unit == want[name], f"{what}: {name} unit {unit!r}")
        require(math.isfinite(value), f"{what}: {name} = {value}")


def test_metrics_and_determinism() -> None:
    details = {"signoff": ("golden_s", "fit_s", "fit_pass_ratio"),
               "closure": ("closure_s", "closure_area_um2",
                           "closure_leakage_nw"),
               "eco": ("read_p85_ms", "whatif_p50_ms",
                       "whatif_p85_ms")}
    for workload in ("signoff", "closure", "eco"):
        first, metrics = measure(workload, traced=False)
        same_names(metrics, END_TO_END, f"{workload} end-to-end")
        require(all(v > 0 for v, _ in metrics.values()),
                f"{workload}: an end-to-end metric is not positive")
        require(set(first.details) == set(details[workload]),
                f"{workload} details {sorted(first.details)}")
        second, _ = measure(workload, traced=False)
        for name in ("fit_pass_ratio", "closure_area_um2",
                     "closure_leakage_nw"):
            if name in first.details:
                require(first.details[name] == second.details[name],
                        f"{name} differs between same-seed runs")
        _, layers = measure(workload, traced=True)
        same_names(layers, PER_LAYER, f"{workload} per-layer")
        if workload == "closure":
            _, again = measure(workload, traced=True)
            require(layers["opt.transforms.tried"]
                    == again["opt.transforms.tried"],
                    "opt.transforms.tried differs between same-seed runs")


def test_checks_trip() -> None:
    design = wl.make_design("D1", SEED)
    engine = wl.fresh_engine(design)
    slacks = wl.slack_pairs(engine.setup_slacks())
    require(not wl.check_equal_slacks(slacks, list(slacks)),
            "identical slacks flagged")
    bad = list(slacks)
    name, value = bad[0]
    bad[0] = (name, math.nextafter(value, math.inf))
    require(bool(wl.check_equal_slacks(bad, slacks)),
            "one-ulp slack change passed the oracle check")
    require(bool(wl.check_unchanged(slacks, bad)),
            "a what-if that moved a slack passed")
    gba = {s.node: s.slack for s in engine.setup_slacks()}
    golden = {node: slack + 1.0 for node, slack in gba.items()}
    require(not wl.check_golden(golden, gba), "valid golden flagged")
    node = next(iter(golden))
    golden[node] = gba[node] - 1.0
    require(bool(wl.check_golden(golden, gba)),
            "golden below GBA passed")
    require(bool(wl.check_pass_ratio(0.5, 0.6)),
            "a fit worse than GBA passed")
    result = wl.api.sta_result_from_engine(engine)
    require(not wl.check_same(result, result, "sta"), "equal sta flagged")
    require(bool(wl.check_same(replace(result, wns=result.wns - 1.0),
                               result, "sta")),
            "a corrupted sta answer passed")


def main() -> int:
    test_checks_trip()
    test_metrics_and_determinism()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
