"""Delay calculation: cell arcs via NLDM lookup, net arcs via Elmore-lite.

Wire parasitics come from one of two sources, in precedence order:

1. an installed :class:`~repro.netlist.parasitics.Parasitics` set
   (extracted / SPEF-lite annotated) — each covered net uses its lumped
   pi RC;
2. the geometric model — each driver-to-load segment is an RC wire of
   length equal to the Manhattan distance between the placed instances.

Either way, net arc delay to one load is ``R * (C/2 + C_pin)`` and the
net's total wire capacitance additionally loads the driving cell arc.
Unplaced, unannotated objects contribute zero wire, so purely logical
designs still time correctly with cell delays only.

Both quantities are memoized per net (:class:`DelayCalculator` keeps
``output_load(net)`` and each net arc's wire delay, keyed by load pin):
an incremental update re-derives the same net's load once per edit
instead of once per arc.  The memo's contract: an edit invalidates the
nets it touched (:meth:`DelayCalculator.invalidate_nets`, fed
``ChangeRecord.nets``), and every full update starts from an empty memo
(:meth:`DelayCalculator.clear_memo`), so anything edited behind the
engine's back — a shared netlist edited through another corner's
engine, a parasitics set installed later — is picked up by the next
full update.
"""

from __future__ import annotations

from repro.netlist.core import Netlist, PinRef
from repro.netlist.parasitics import Parasitics
from repro.netlist.placement import Placement
from repro.obs.metrics import counter
from repro.timing.graph import EdgeKind, TimingEdge, TimingGraph


def _anchor_name(ref: PinRef) -> str:
    """Placement key of a pin reference (gate name, or port name)."""
    return ref.gate if ref.gate is not None else ref.pin


def segment_length(placement: Placement | None, a: PinRef, b: PinRef) -> float:
    """Manhattan wire length between two pins (nm); 0 when unplaced."""
    if placement is None:
        return 0.0
    name_a, name_b = _anchor_name(a), _anchor_name(b)
    if not placement.has(name_a) or not placement.has(name_b):
        return 0.0
    return placement.distance(name_a, name_b)


class DelayCalculator:
    """Computes base edge delays and output slews for one design."""

    def __init__(self, netlist: Netlist, placement: Placement | None,
                 wire_r_per_nm: float, wire_c_per_nm: float,
                 parasitics: Parasitics | None = None,
                 delay_scale: float = 1.0):
        self.netlist = netlist
        self.placement = placement
        self.wire_r_per_nm = wire_r_per_nm
        self.wire_c_per_nm = wire_c_per_nm
        self.parasitics = parasitics
        #: PVT corner scale applied to cell delays and slews (wires are
        #: extracted geometry and scale separately via r/c per nm).
        self.delay_scale = delay_scale
        #: net -> ``output_load(net)``.
        self._load_memo: dict[str, float] = {}
        #: net -> {load pin -> net-arc wire delay}.  Keyed by pin, never
        #: by edge id: a buffer edit recycles edge ids across nets.
        self._wire_memo: dict[str, dict[PinRef, float]] = {}

    def clear_memo(self) -> None:
        """Forget every memoized load and wire delay (full updates)."""
        self._load_memo.clear()
        self._wire_memo.clear()

    def invalidate_nets(self, nets: "list[str]") -> None:
        """Forget the memoized load and wire delays of edited nets."""
        for net_name in nets:
            self._load_memo.pop(net_name, None)
            self._wire_memo.pop(net_name, None)

    def net_wire_capacitance(self, net_name: str) -> float:
        """Total wire capacitance of a net (fF).

        Annotated nets use their extracted value; others fall back to
        star-topology geometry.
        """
        if self.parasitics is not None:
            annotation = self.parasitics.get(net_name)
            if annotation is not None:
                return annotation.capacitance
        driver = self.netlist.net_driver(net_name)
        if driver is None:
            return 0.0
        total_length = 0.0
        for load in self.netlist.net_loads(net_name):
            total_length += segment_length(self.placement, driver, load)
        return self.wire_c_per_nm * total_length

    def output_load(self, net_name: str) -> float:
        """Capacitance seen by the driver of a net: pins + wire (fF)."""
        load = self._load_memo.get(net_name)
        if load is None:
            counter("delaycalc.memo_misses").inc()
            load = (
                self.netlist.net_load_capacitance(net_name)
                + self.net_wire_capacitance(net_name)
            )
            self._load_memo[net_name] = load
        return load

    def cell_edge(self, graph: TimingGraph, edge: TimingEdge,
                  input_slew: float) -> tuple[float, float]:
        """(delay, output slew) of a cell arc at the given input slew."""
        assert edge.kind is EdgeKind.CELL and edge.arc is not None
        dst_ref = graph.node(edge.dst).ref
        assert dst_ref.gate is not None
        net_name = self.netlist.gate(dst_ref.gate).connections.get(dst_ref.pin)
        load = self.output_load(net_name) if net_name is not None else 0.0
        delay = edge.arc.delay.lookup(input_slew, load)
        assert edge.arc.output_slew is not None
        out_slew = edge.arc.output_slew.lookup(input_slew, load)
        return delay * self.delay_scale, out_slew * self.delay_scale

    def net_edge(self, graph: TimingGraph, edge: TimingEdge,
                 input_slew: float) -> tuple[float, float]:
        """(delay, output slew) of a net arc; slew passes through."""
        assert edge.kind is EdgeKind.NET and edge.net is not None
        dst_ref = graph.node(edge.dst).ref
        by_load = self._wire_memo.get(edge.net)
        if by_load is None:
            by_load = self._wire_memo[edge.net] = {}
        delay = by_load.get(dst_ref)
        if delay is None:
            counter("delaycalc.memo_misses").inc()
            delay = by_load[dst_ref] = self._wire_delay(
                edge.net, graph.node(edge.src).ref, dst_ref
            )
        return delay, input_slew

    def _wire_delay(self, net_name: str, src_ref: PinRef,
                    dst_ref: PinRef) -> float:
        """Elmore delay of one driver-to-load wire segment."""
        pin_cap = 0.0
        if dst_ref.gate is not None:
            cell = self.netlist.cell_of(dst_ref.gate)
            pin_cap = cell.pin(dst_ref.pin).capacitance
        if self.parasitics is not None:
            annotation = self.parasitics.get(net_name)
            if annotation is not None:
                return annotation.elmore_to_load(pin_cap)
        length = segment_length(self.placement, src_ref, dst_ref)
        if length == 0.0:
            return 0.0
        resistance = self.wire_r_per_nm * length
        wire_cap = self.wire_c_per_nm * length
        return resistance * (wire_cap / 2.0 + pin_cap)

    def compute_edge(self, graph: TimingGraph, edge: TimingEdge,
                     input_slew: float) -> None:
        """Fill in ``edge.delay`` and ``edge.out_slew``."""
        if edge.kind is EdgeKind.CELL:
            edge.delay, edge.out_slew = self.cell_edge(graph, edge, input_slew)
        else:
            edge.delay, edge.out_slew = self.net_edge(graph, edge, input_slew)

    # ------------------------------------------------------------------
    # Batched (vector-kernel) entry points
    # ------------------------------------------------------------------
    def compute_arcs_batch(self, delay_table, slew_table, input_slews,
                           loads) -> "tuple":
        """(delays, output slews) of many cell arcs sharing one table pair.

        One vectorized bilinear lookup per table — the batch analogue of
        :meth:`cell_edge`, bit-identical per element because
        ``lookup_many`` evaluates the same interpolation expression as
        ``lookup`` and the corner scale multiplies the looked-up value
        exactly as the scalar path does.  When the two tables share axes
        (the usual library shape) the grid coordinates are computed once
        via :func:`repro.liberty.lut.lookup_pair_many`.
        """
        from repro.liberty.lut import lookup_pair_many

        delays, out_slews = lookup_pair_many(
            delay_table, slew_table, input_slews, loads
        )
        return delays * self.delay_scale, out_slews * self.delay_scale

    def compute_arcs_stack(self, delay_table, slew_table, input_slews,
                           loads, scales) -> "tuple":
        """(delays, output slews) of one table pair across a scenario stack.

        ``input_slews`` is ``(S, k)`` — per-scenario slews of ``k`` arcs
        — while ``loads`` (length ``k``) is scenario-invariant and
        ``scales`` (length ``S``) carries each scenario's absolute
        corner multiplier (``self.delay_scale`` is deliberately ignored:
        the stack owns the per-scenario scaling).  The stack flattens
        row-major through *one* :func:`~repro.liberty.lut.lookup_pair_many`
        call; row ``s`` of the reshaped result is bit-identical to
        :meth:`compute_arcs_batch` at ``delay_scale = scales[s]``
        because the flattened lookup evaluates the same per-element
        interpolation and the column-broadcast multiply is the same
        scalar multiply per element.
        """
        import numpy as np

        from repro.liberty.lut import lookup_pair_many

        slews = np.asarray(input_slews, dtype=float)
        n_scen = slews.shape[0]
        flat_loads = np.tile(np.asarray(loads, dtype=float), n_scen)
        delays, out_slews = lookup_pair_many(
            delay_table, slew_table, slews.ravel(), flat_loads
        )
        scale_col = np.asarray(scales, dtype=float)[:, None]
        return (
            delays.reshape(slews.shape) * scale_col,
            out_slews.reshape(slews.shape) * scale_col,
        )

    def compute_edges_batch(self, graph: TimingGraph,
                            edges: "list[TimingEdge]",
                            input_slews) -> None:
        """Delay-calc a mixed batch of edges at per-edge input slews.

        Cell arcs are grouped by their (delay, slew) table pair and run
        through :meth:`compute_arcs_batch`; net arcs fall through to the
        scalar :meth:`net_edge` (their delay is slew-independent wire
        arithmetic, not a table lookup).  Results land on the edge
        objects, exactly like a :meth:`compute_edge` loop would.
        """
        import numpy as np

        by_table: dict[tuple[int, int], list[int]] = {}
        for i, edge in enumerate(edges):
            if edge.kind is not EdgeKind.CELL:
                edge.delay, edge.out_slew = self.net_edge(
                    graph, edge, float(input_slews[i])
                )
                continue
            assert edge.arc is not None
            by_table.setdefault(
                (id(edge.arc.delay), id(edge.arc.output_slew)), []
            ).append(i)
        for members in by_table.values():
            first = edges[members[0]]
            assert first.arc is not None
            slews = np.asarray([float(input_slews[i]) for i in members])
            loads = np.empty(len(members))
            for j, i in enumerate(members):
                dst_ref = graph.node(edges[i].dst).ref
                assert dst_ref.gate is not None
                net = self.netlist.gate(dst_ref.gate).connections.get(
                    dst_ref.pin
                )
                loads[j] = self.output_load(net) if net is not None else 0.0
            delays, out_slews = self.compute_arcs_batch(
                first.arc.delay, first.arc.output_slew, slews, loads
            )
            for j, i in enumerate(members):
                edges[i].delay = float(delays[j])
                edges[i].out_slew = float(out_slews[j])
