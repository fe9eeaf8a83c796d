"""The delay calculator's per-net memo: invalidation contract.

``DelayCalculator`` memoizes ``output_load(net)`` and each net arc's
wire delay.  An engine's ``apply_change`` drops the nets the edit
touched (``ChangeRecord.nets``), and every full update — an engine's
own or a scenario-stack sweep — starts from an empty memo.  These tests
pin that contract against from-scratch engines, value for value.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.designs.generator import generate_design
from repro.netlist.edit import (
    ChangeRecord, insert_buffer, remove_buffer, resize_gate, swap_vt,
)
from repro.obs.metrics import counter
from repro.timing.graph import EdgeKind
from repro.timing.scenarios import ScenarioStack
from repro.timing.sta import STAEngine
from tests.conftest import SMALL_SPEC
from tests.timing.test_incremental_mixed import _loaded_nets, edit_step

#: Config pins the kernel so these tests mean the same on every CI leg.
KERNELS = ("vector", "scalar")


def _engine(design, kernel: str = "vector", **overrides) -> STAEngine:
    engine = STAEngine(
        design.netlist, design.constraints, design.placement,
        replace(design.sta_config, kernel=kernel, **overrides),
    )
    engine.update_timing()
    return engine


def _edge_values(engine: STAEngine) -> "dict":
    """(delay, out slew) per live edge, keyed by its pin pair."""
    graph = engine.graph
    return {
        (graph.node(e.src).ref, graph.node(e.dst).ref): (e.delay, e.out_slew)
        for e in graph.live_edges()
    }


def _driver_arcs(engine: STAEngine, gate: str) -> "dict":
    """(delay, out slew) of one gate's cell arcs."""
    return {
        pins: values for pins, values in _edge_values(engine).items()
        if pins[0].gate == gate and pins[1].gate == gate
    }


def _assert_matches(engine: STAEngine, fresh: STAEngine) -> None:
    """Same loads, edge values, per-pin timing and slacks as ``fresh``."""
    netlist = fresh.netlist
    for net in netlist.nets:
        assert engine.calc.output_load(net) == fresh.calc.output_load(net), net
    assert _edge_values(engine) == _edge_values(fresh)
    for node in fresh.graph.live_nodes():
        mine = engine.graph.node_of[node.ref]
        for field in ("arrival_late", "arrival_early", "slew"):
            assert (
                getattr(engine.state, field)[mine]
                == getattr(fresh.state, field)[node.id]
            ), (node.ref, field)
    got = [(s.name, s.slack) for s in engine.setup_slacks()]
    want = [(s.name, s.slack) for s in fresh.setup_slacks()]
    assert got == want


def _fanin_driven_gate(netlist) -> "tuple[str, str, str]":
    """(gate, input net, driving gate) of the first resizable gate fed by
    another gate."""
    for gate in netlist.combinational_gates():
        if gate.startswith("ckbuf"):
            continue
        if netlist.library.next_size_up(netlist.gate(gate).cell_name) is None:
            continue
        cell = netlist.cell_of(gate)
        for pin in cell.input_pins:
            net = netlist.gate(gate).connections.get(pin.name)
            driver = netlist.net_driver(net) if net is not None else None
            if driver is not None and driver.gate is not None:
                return gate, net, driver.gate
    raise AssertionError("no gate-driven resizable gate in the design")


def test_resize_moves_fanin_driver_load_and_arc_delay():
    for kernel in KERNELS:
        design = generate_design(SMALL_SPEC)
        engine = _engine(design, kernel)
        gate, net, driver = _fanin_driven_gate(design.netlist)
        load_before = engine.calc.output_load(net)
        arcs_before = _driver_arcs(engine, driver)
        engine.apply_change(resize_gate(design.netlist, gate, up=True))
        fresh = _engine(design, kernel)
        # The resized gate's input pin cap moved, so its driver's load
        # and cell-arc delays must move with it — to the fresh values.
        assert fresh.calc.output_load(net) != load_before
        assert engine.calc.output_load(net) == fresh.calc.output_load(net)
        arcs_after = _driver_arcs(fresh, driver)
        assert arcs_after.keys() == arcs_before.keys()
        assert arcs_after != arcs_before
        assert _driver_arcs(engine, driver) == arcs_after
        _assert_matches(engine, fresh)


def test_edit_through_one_corner_reaches_the_others_full_updates():
    """Corner engines share a netlist and placement; an edit timed by
    one engine reaches the others at their next full update."""
    design = generate_design(SMALL_SPEC)
    editor = _engine(design)
    other = _engine(design, "scalar", delay_scale=1.1)
    stacked = [
        _engine(design, delay_scale=scale) for scale in (0.9, 1.2)
    ]
    # Swap two placed gates: every wire touching them changes length,
    # while the placement's bounding box (and so the GBA distance) and
    # every graph's topology stay as they were.
    gates = [
        g for g in design.netlist.combinational_gates()
        if not g.startswith("ckbuf")
    ]
    first, second = gates[0], gates[len(gates) // 2]
    placement = design.placement
    loc_a, loc_b = placement.location(first), placement.location(second)
    placement.place(first, loc_b.x, loc_b.y)
    placement.place(second, loc_a.x, loc_a.y)
    nets = sorted({
        net for g in (first, second)
        for net in design.netlist.gate(g).connections.values()
    })
    stale = {net: other.calc.output_load(net) for net in nets}
    editor.apply_change(ChangeRecord(kind="move", gates=[first, second],
                                     nets=nets))
    _assert_matches(editor, _engine(design))

    fresh_other = _engine(design, "scalar", delay_scale=1.1)
    assert any(
        fresh_other.calc.output_load(net) != stale[net] for net in nets
    )
    other.update_timing()
    _assert_matches(other, fresh_other)

    ScenarioStack.from_engines(stacked).update_all()
    for engine, scale in zip(stacked, (0.9, 1.2)):
        _assert_matches(engine, _engine(design, delay_scale=scale))


def _apply(design, engine: STAEngine, action: str, idx: int,
           inserted: "list[str]") -> None:
    netlist = design.netlist
    gates = [
        g for g in netlist.combinational_gates() if not g.startswith("ckbuf")
    ]
    gate = gates[idx % len(gates)]
    change = None
    if action in ("up", "down"):
        change = resize_gate(netlist, gate, up=action == "up")
    elif action in ("lvt", "hvt"):
        if not netlist.cell_of(gate).is_buffer:
            change = swap_vt(netlist, gate, action)
    elif action == "buffer":
        nets = _loaded_nets(design)
        change = insert_buffer(
            netlist, nets[idx % len(nets)], "BUF_X2",
            placement=design.placement,
        )
        inserted.append(change.gates[0])
    elif inserted:
        victim = inserted.pop(idx % len(inserted))
        change = remove_buffer(netlist, victim)
        change.gates.append(victim)
        design.placement.locations.pop(victim, None)
    if change is not None:
        engine.apply_change(change)


@settings(
    max_examples=3, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    plan=st.lists(edit_step, min_size=30, max_size=40),
    kernel=st.sampled_from(KERNELS),
)
def test_long_mixed_edit_sequences_match_fresh_engines(plan, kernel):
    design = generate_design(SMALL_SPEC)
    engine = _engine(design, kernel)
    inserted: list[str] = []
    for step, (action, idx) in enumerate(plan, start=1):
        _apply(design, engine, action, idx, inserted)
        if step % 10 == 0:
            _assert_matches(engine, _engine(design, kernel))
    _assert_matches(engine, _engine(design, kernel))


def test_memo_misses_count_only_misses():
    design = generate_design(SMALL_SPEC)
    engine = _engine(design)
    misses = counter("delaycalc.memo_misses")
    net = next(iter(design.netlist.nets))
    engine.calc.output_load(net)
    before = misses.value
    engine.calc.output_load(net)
    edge = next(
        e for e in engine.graph.live_edges() if e.kind is EdgeKind.NET
    )
    engine.calc.net_edge(engine.graph, edge, 0.0)
    assert misses.value == before
    engine.calc.invalidate_nets([net, edge.net])
    engine.calc.output_load(net)
    engine.calc.net_edge(engine.graph, edge, 0.0)
    assert misses.value == before + 2
