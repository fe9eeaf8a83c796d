"""Post-flow invariant: closure's incremental state is a from-scratch fixpoint.

A closure run times thousands of moves incrementally (apply, update the
cone, keep or revert).  Whatever it ends on must be exactly what a
fresh engine computes for the same netlist and mGBA weights: the same
endpoint slacks and the same per-pin arrivals and slews, compared with
``==`` — no tolerance.
"""

from dataclasses import replace

import pytest

from repro.designs.generator import generate_design
from repro.designs.suite import DESIGN_SPECS
from repro.mgba.flow import MGBAConfig
from repro.opt.closure import ClosureConfig, TimingClosureOptimizer
from repro.timing.sta import STAEngine

#: The smallest suite design: ~300 gates, a few hundred fixing and
#: recovery moves per run, well under a second each.
SPEC = DESIGN_SPECS["D1"]


def _per_pin(engine: STAEngine) -> "dict":
    graph, timing = engine.graph, engine.state
    return {
        node.ref: (
            float(timing.arrival_late[node.id]),
            float(timing.arrival_early[node.id]),
            float(timing.slew[node.id]),
        )
        for node in graph.live_nodes()
    }


@pytest.mark.parametrize("kernel", ["vector", "scalar"])
@pytest.mark.parametrize("use_mgba", [False, True], ids=["gba", "mgba"])
def test_closure_final_state_matches_fresh_engine(kernel, use_mgba):
    design = generate_design(SPEC)
    sta_config = replace(design.sta_config, kernel=kernel)
    optimizer = TimingClosureOptimizer(
        design.netlist, design.constraints, design.placement, sta_config,
        ClosureConfig(
            use_mgba=use_mgba, max_transforms=40,
            mgba=MGBAConfig(workers=1, parallel_backend="serial"),
        ),
    )
    report = optimizer.run()
    assert report.transforms_tried > 0
    engine = optimizer.engine
    assert bool(engine.weights) == use_mgba

    fresh = STAEngine(
        design.netlist, design.constraints, design.placement, sta_config,
    )
    if engine.weights:
        fresh.set_gate_weights(engine.weights)
    fresh.update_timing()

    got = [(s.name, s.slack) for s in engine.setup_slacks()]
    want = [(s.name, s.slack) for s in fresh.setup_slacks()]
    assert got == want
    assert _per_pin(engine) == _per_pin(fresh)
