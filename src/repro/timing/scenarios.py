"""Scenario-stacked propagation: N corners × M modes in one sweep.

The levelized CSR layout of :mod:`repro.timing.kernel` turns forward
propagation into per-level segment reductions over per-edge arrays.
Scenarios — PVT corners, constraint modes — that share one netlist
differ only in *values* (delay scale, derate tables, mGBA weights,
boundary conditions), never in structure, so the whole MCMM matrix
stacks as one extra leading numpy axis: arrivals become
``(S, n_nodes)``, per-edge delays ``(S, n_edges)``, and every level
reduction one ``np.maximum.reduceat(..., axis=1)`` whose row ``s``
evaluates exactly the arithmetic the scalar oracle evaluates for
scenario ``s`` alone.  One NLDM lookup batch serves all scenarios at
once (:meth:`~repro.timing.delaycalc.DelayCalculator.compute_arcs_stack`
flattens the stack through the shared LUT grids), which is why the
marginal cost per scenario is near zero compared to one process per
corner.

**Bit-identity contract** (tier-1 gate in
``tests/timing/test_scenarios.py``, CI gate in
``benchmarks/bench_scenarios.py --check``): after
:meth:`ScenarioStack.update_all`, every engine's state is bit-identical
— IEEE-754 equality on arrivals, slews, delays, derates, required
times, and slack dictionaries including insertion order — to running
that engine's own ``update_timing()`` in isolation.  Elementwise
broadcasting and per-row ``reduceat`` preserve the scalar kernel's
operations per element, and the scalar kernel is already gated against
the per-node oracle.

Structural compatibility is validated up front: anything that could
make the scenarios disagree on topology or shared statics (different
netlist objects, clock ports, kernels, wire models, placements) raises
:class:`ScenarioError`, which
:meth:`repro.timing.corners.MultiCornerAnalysis.update_all` treats as
"fall back to the per-corner :mod:`repro.parallel` fan-out".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.aocv.depth import compute_gba_depths
from repro.errors import TimingError
from repro.obs.metrics import counter, gauge
from repro.obs.trace import span
from repro.timing import kernel as kernel_mod
from repro.timing import slack as slack_mod
from repro.timing.propagation import (
    POS_INF,
    BoundaryConditions,
    TimingState,
)

if TYPE_CHECKING:
    from repro.timing.graph import TimingGraph
    from repro.timing.kernel import LevelizedLayout
    from repro.timing.slack import EndpointSlack
    from repro.timing.sta import STAEngine


class ScenarioError(TimingError):
    """The engines cannot be stacked (structurally incompatible)."""


def _boundary_rows(
    layout: LevelizedLayout,
    graph: TimingGraph,
    boundary: BoundaryConditions,
) -> "tuple[np.ndarray, np.ndarray]":
    """(arrival, slew) boundary vectors for one scenario's conditions.

    Mirrors the source-node fill in ``kernel._build_layout`` (itself a
    mirror of ``propagation.apply_boundary``) so modes with their own
    input delays or boundary slews stack next to the base scenario.
    """
    arrival = np.zeros(layout.n_node_slots)
    slew = np.zeros(layout.n_node_slots)
    for node_id in layout.source_ids.tolist():
        node = graph.node(node_id)
        if node.ref.is_port and node.ref.pin in boundary.clock_ports:
            arrival[node_id] = 0.0
            slew[node_id] = boundary.clock_slew
        elif node.ref.is_port:
            arrival[node_id] = boundary.input_delays.get(node.ref.pin, 0.0)
            slew[node_id] = boundary.input_slew
        else:
            arrival[node_id] = 0.0
            slew[node_id] = boundary.input_slew
    return arrival, slew


class ScenarioStack:
    """N scenario engines propagated as one stacked array sweep.

    Construct with :meth:`from_engines`; :meth:`update_all` then runs
    the stacked forward pass and scatters per-scenario results back
    into every engine, leaving each exactly as its own
    ``update_timing()`` would have.  The stack keeps its ``(S, ...)``
    arrays afterwards for stacked reductions (:meth:`worst_slacks`,
    :meth:`merged_setup`, :meth:`required_all`).
    """

    def __init__(
        self,
        engines: "list[STAEngine]",
        names: "list[str] | None" = None,
    ):
        self.engines = engines
        self.names = names or [f"s{i}" for i in range(len(engines))]
        base = engines[0]
        self.graph = base.graph
        # Stacked results, populated by update_all().
        self.arrival_late = np.zeros((0, 0))
        self.arrival_early = np.zeros((0, 0))
        self.slew = np.zeros((0, 0))
        self.derate_late = np.zeros((0, 0))
        self.derate_early = np.zeros((0, 0))
        self.edge_delay = np.zeros((0, 0))
        self.edge_out_slew = np.zeros((0, 0))
        self._states: "list[TimingState]" = []
        self._required: "np.ndarray | None" = None

    # ------------------------------------------------------------------
    # Construction / validation
    # ------------------------------------------------------------------
    @classmethod
    def from_engines(
        cls,
        engines: "list[STAEngine]",
        names: "list[str] | None" = None,
    ) -> "ScenarioStack":
        """Validate structural compatibility and build a stack.

        Scenarios may disagree on anything value-like — delay scale,
        derating tables, mGBA weights, constraint modes, boundary
        delays — but must agree on everything the shared layout bakes
        in: the netlist *object*, clock ports, placement, parasitics,
        wire model, and the vector kernel itself.
        """
        if not engines:
            raise ScenarioError("need at least one scenario engine")
        if names is not None and len(names) != len(engines):
            raise ScenarioError("scenario names do not match engine count")
        base = engines[0]
        for i, eng in enumerate(engines):
            if eng.kernel != "vector":
                raise ScenarioError(
                    f"scenario {i} runs the {eng.kernel!r} kernel; "
                    "stacking needs the vector kernel everywhere"
                )
            if eng.netlist is not base.netlist:
                raise ScenarioError(
                    f"scenario {i} has its own netlist object; "
                    "stacked scenarios must share one netlist"
                )
            if eng.placement is not base.placement:
                raise ScenarioError(f"scenario {i} has its own placement")
            if eng.calc.parasitics is not base.calc.parasitics:
                raise ScenarioError(f"scenario {i} has its own parasitics")
            if (
                eng.config.wire_r_per_nm != base.config.wire_r_per_nm
                or eng.config.wire_c_per_nm != base.config.wire_c_per_nm
            ):
                raise ScenarioError(
                    f"scenario {i} uses a different wire model"
                )
            if frozenset(eng.clock_ports) != frozenset(base.clock_ports):
                raise ScenarioError(
                    f"scenario {i} defines different clock ports"
                )
            if (
                eng.graph.structure_version != base.graph.structure_version
                or len(eng.graph.nodes) != len(base.graph.nodes)
                or len(eng.graph.edges) != len(base.graph.edges)
            ):
                raise ScenarioError(
                    f"scenario {i}'s timing graph diverged structurally"
                )
        return cls(list(engines), list(names) if names else None)

    # ------------------------------------------------------------------
    # The stacked sweep
    # ------------------------------------------------------------------
    def update_all(self) -> None:
        """One stacked forward pass; every engine ends fully updated."""
        base = self.engines[0]
        graph = self.graph
        if base._structure_dirty or not base.gba_depths:
            graph.mark_clock_tree(base.clock_ports)
            base.gba_depths = compute_gba_depths(base.netlist)
        layout = base._ensure_layout()
        for eng in self.engines:
            eng.calc.clear_memo()
        n_scen = len(self.engines)
        with span(
            "kernel.scenario_propagate",
            scenarios=n_scen, levels=layout.levels,
            nodes=int(layout.order.size), edges=int(layout.live_eids.size),
        ):
            self._propagate(layout)
            self._scatter(layout)
        counter("kernel.scenario_sweeps").inc()
        gauge("kernel.scenario_count").set(n_scen)

    def _propagate(self, layout: LevelizedLayout) -> None:
        base = self.engines[0]
        graph = self.graph
        calc = base.calc
        n_scen = len(self.engines)
        n_nodes = layout.n_node_slots
        n_edges = layout.n_edge_slots
        arrival_late = np.zeros((n_scen, n_nodes))
        arrival_early = np.zeros((n_scen, n_nodes))
        slew = np.zeros((n_scen, n_nodes))
        derate_late = np.ones((n_scen, n_edges))
        derate_early = np.ones((n_scen, n_edges))
        edge_delay = np.zeros((n_scen, n_edges))
        edge_out_slew = np.zeros((n_scen, n_edges))
        # Row views alias the stacked arrays: the per-scenario derate
        # fill and the scalar endpoint/slack helpers all run unchanged
        # on views — ensure_capacity no-ops on exactly-sized rows.
        states = [
            TimingState(
                arrival_late=arrival_late[i],
                arrival_early=arrival_early[i],
                slew=slew[i],
                derate_late=derate_late[i],
                derate_early=derate_early[i],
            )
            for i in range(n_scen)
        ]
        base_boundary = base.boundary()
        b_arrival = np.zeros((n_scen, n_nodes))
        b_slew = np.zeros((n_scen, n_nodes))
        for i, eng in enumerate(self.engines):
            kernel_mod.compute_edge_derates(
                layout, graph, states[i], eng.derate_settings(), eng.weights
            )
            boundary = eng.boundary()
            if boundary == base_boundary:
                b_arrival[i] = layout.boundary_arrival
                b_slew[i] = layout.boundary_slew
            else:
                b_arrival[i], b_slew[i] = _boundary_rows(
                    layout, graph, boundary
                )
        # Delay-calc statics are scenario-invariant: loads depend on pin
        # caps/wires only, and net-arc delays are never delay-scaled
        # (``DelayCalculator.net_edge``), so one value broadcasts down
        # every scenario column — the identical double per row.
        net_loads = np.asarray(
            [calc.output_load(net) for net in layout.cell_nets]
        ) if layout.cell_nets else np.empty(0)
        load_of_edge = np.zeros(n_edges)
        covered = layout.cell_edge_net >= 0
        if covered.any():
            load_of_edge[covered] = net_loads[layout.cell_edge_net[covered]]
        for eids in layout.net_eids_by_level:
            for eid in eids.tolist():
                edge = graph.edges[eid]
                assert edge is not None
                edge_delay[:, eid] = calc.net_edge(graph, edge, 0.0)[0]
        scales = np.asarray([eng.calc.delay_scale for eng in self.engines])
        groups = layout.cell_groups(graph)
        if layout.order.size:
            src_ids = layout.source_ids
            arrival_late[:, src_ids] = b_arrival[:, src_ids]
            arrival_early[:, src_ids] = b_arrival[:, src_ids]
            slew[:, src_ids] = b_slew[:, src_ids]
            for lv in range(layout.levels):
                p0 = int(layout.level_ptr[lv])
                p1 = int(layout.level_ptr[lv + 1])
                ids = layout.order[p0:p1]
                if lv > 0:
                    s, e = int(layout.in_ptr[p0]), int(layout.in_ptr[p1])
                    seg = layout.in_ptr[p0:p1] - s
                    eids = layout.in_edge[s:e]
                    srcs = layout.in_src[s:e]
                    delays = edge_delay[:, eids]
                    late_vals = (
                        arrival_late[:, srcs] + delays * derate_late[:, eids]
                    )
                    early_vals = (
                        arrival_early[:, srcs] + delays * derate_early[:, eids]
                    )
                    arrival_late[:, ids] = np.maximum.reduceat(
                        late_vals, seg, axis=1
                    )
                    arrival_early[:, ids] = np.minimum.reduceat(
                        early_vals, seg, axis=1
                    )
                    slew[:, ids] = np.maximum(
                        np.maximum.reduceat(
                            edge_out_slew[:, eids], seg, axis=1
                        ),
                        0.0,
                    )
                net_eids = layout.net_eids_by_level[lv]
                if net_eids.size:
                    edge_out_slew[:, net_eids] = (
                        slew[:, layout.net_srcs_by_level[lv]]
                    )
                for dtab, stab, eids, srcs in groups[lv]:
                    delays, out_slews = calc.compute_arcs_stack(
                        dtab, stab, slew[:, srcs], load_of_edge[eids], scales
                    )
                    edge_delay[:, eids] = delays
                    edge_out_slew[:, eids] = out_slews
        self.arrival_late = arrival_late
        self.arrival_early = arrival_early
        self.slew = slew
        self.derate_late = derate_late
        self.derate_early = derate_early
        self.edge_delay = edge_delay
        self.edge_out_slew = edge_out_slew
        self._states = states
        self._required = None

    def _scatter(self, layout: LevelizedLayout) -> None:
        """Install each scenario's row into its engine.

        Leaves every engine exactly as its own ``update_timing()``
        would: state arrays filled, edge objects carrying the
        scenario's delays/out-slews, layouts synced, caches dropped,
        freshness flags set.
        """
        n_nodes = layout.n_node_slots
        n_edges = layout.n_edge_slots
        base = self.engines[0]
        for i, eng in enumerate(self.engines):
            eng.state.ensure_capacity(
                len(eng.graph.nodes), len(eng.graph.edges)
            )
            eng.state.arrival_late[:n_nodes] = self.arrival_late[i]
            eng.state.arrival_early[:n_nodes] = self.arrival_early[i]
            eng.state.slew[:n_nodes] = self.slew[i]
            eng.state.derate_late[:n_edges] = self.derate_late[i]
            eng.state.derate_early[:n_edges] = self.derate_early[i]
            delays = self.edge_delay[i].tolist()
            out_slews = self.edge_out_slew[i].tolist()
            for edge in eng.graph.edges:
                if edge is not None:
                    edge.delay = delays[edge.id]
                    edge.out_slew = out_slews[edge.id]
            if eng is not base:
                if eng._structure_dirty:
                    eng.graph.mark_clock_tree(eng.clock_ports)
                if not eng.gba_depths:
                    eng.gba_depths = dict(base.gba_depths)
            # Do NOT build layouts eagerly here (that would erase the
            # stacking win); engines that already have one must see the
            # scenario's edge values on their next backward pass.
            if eng._layout is not None:
                kernel_mod.sync_edge_arrays(eng._layout, eng.graph)
            eng.crpr.invalidate()
            eng._setup_slack_cache = None
            eng._structure_dirty = False
            eng._timing_fresh = True

    # ------------------------------------------------------------------
    # Stacked reductions
    # ------------------------------------------------------------------
    def state_view(self, index: int) -> TimingState:
        """The row-view state of one scenario (aliases the stack)."""
        return self._states[index]

    def setup_slacks(self, index: int) -> "list[EndpointSlack]":
        """Setup slacks of one scenario, straight off its stack row."""
        eng = self.engines[index]
        return slack_mod.setup_slacks(
            self.graph, self._states[index], eng.constraints
        )

    def hold_slacks(self, index: int) -> "list[EndpointSlack]":
        """Hold slacks of one scenario, straight off its stack row."""
        eng = self.engines[index]
        return slack_mod.hold_slacks(
            self.graph, self._states[index], eng.constraints
        )

    def endpoint_matrix(self) -> "tuple[list[str], np.ndarray]":
        """(endpoint names, ``(S, n_endpoints)`` setup-slack matrix)."""
        names: "list[str]" = []
        rows: "list[list[float]]" = []
        for i in range(len(self.engines)):
            slacks = self.setup_slacks(i)
            if not names:
                names = [s.name for s in slacks]
            rows.append([s.slack for s in slacks])
        return names, np.asarray(rows) if rows else np.zeros((0, 0))

    def worst_slacks(self) -> np.ndarray:
        """Per-scenario setup WNS — one stacked min over the matrix."""
        _, matrix = self.endpoint_matrix()
        if not matrix.size:
            return np.zeros(len(self.engines))
        return matrix.min(axis=1)

    def merged_setup(self) -> "list[tuple[str, float, str]]":
        """Per-endpoint worst (slack, scenario) across the stack.

        ``argmin`` along the scenario axis keeps the *first* scenario on
        ties, matching the declaration-order tie-break of
        ``MultiCornerAnalysis._merge``; rows come back worst-first.
        """
        names, matrix = self.endpoint_matrix()
        if not matrix.size:
            return []
        worst = matrix.min(axis=0)
        which = matrix.argmin(axis=0)
        merged = [
            (name, float(worst[j]), self.names[int(which[j])])
            for j, name in enumerate(names)
        ]
        return sorted(merged, key=lambda row: row[1])

    def required_all(self) -> np.ndarray:
        """``(S, n_nodes)`` late required times, one stacked backward pass.

        The per-level body mirrors ``kernel.compute_required_times``
        with the scenario axis in front; endpoint initialization stays
        scalar per scenario (one LUT lookup per endpoint, against each
        scenario's own constraints), so rows are bit-identical to each
        engine's ``required_times()``.
        """
        if self._required is not None:
            return self._required
        base = self.engines[0]
        layout = base._ensure_layout()
        graph = self.graph
        n_scen = len(self.engines)
        required = np.full((n_scen, len(graph.nodes)), POS_INF)
        for i, eng in enumerate(self.engines):
            clock_map = slack_mod.endpoint_clock_map(graph, eng.constraints)
            view = self._states[i]
            for node_id in sorted(graph.endpoints):
                info = graph.endpoints[node_id]
                value, _ = slack_mod.setup_required(
                    graph, view, info, clock_map[node_id], eng.constraints
                )
                required[i, node_id] = value
        clock_node = layout.node_is_clock_tree
        for lv in range(layout.levels - 1, -1, -1):
            p0 = int(layout.level_ptr[lv])
            p1 = int(layout.level_ptr[lv + 1])
            ids = layout.order[p0:p1]
            data_mask = ~clock_node[ids]
            if not data_mask.any():
                continue
            s, e = int(layout.out_ptr[p0]), int(layout.out_ptr[p1])
            if s == e:
                continue  # no fanout in this level: inits stand
            seg = layout.out_ptr[p0:p1] - s
            counts = np.diff(np.append(seg, e - s))
            eids = layout.out_edge[s:e]
            dsts = layout.out_dst[s:e]
            cand = (
                required[:, dsts]
                - self.edge_delay[:, eids] * self.derate_late[:, eids]
            )
            cand[:, clock_node[dsts]] = POS_INF
            nonempty = counts > 0
            reduced = np.full((n_scen, ids.size), POS_INF)
            if nonempty.any():
                reduced[:, nonempty] = np.minimum.reduceat(
                    cand, seg[nonempty], axis=1
                )
            upd = ids[data_mask]
            required[:, upd] = np.minimum(
                required[:, upd], reduced[:, data_mask]
            )
        self._required = required
        return required
