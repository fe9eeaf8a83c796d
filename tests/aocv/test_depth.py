"""GBA worst-depth computation tests — the heart of the pessimism gap."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import TimingError
from repro.liberty.builder import make_unit_delay_library
from repro.netlist.core import Netlist, PortDirection
from repro.aocv.depth import (
    backward_min_depths,
    compute_gba_depths,
    forward_min_depths,
)
from repro.designs.paper_example import EXPECTED_GBA_DEPTHS, build_fig2_design
from tests.timing.strategies import designs

LIB = make_unit_delay_library()


def _chain(length: int) -> Netlist:
    """in -> inv x length -> out."""
    n = Netlist("chain", LIB)
    n.add_port("a", PortDirection.INPUT)
    n.add_port("y", PortDirection.OUTPUT)
    prev = "a"
    for i in range(length):
        out = "y" if i == length - 1 else f"w{i}"
        n.add_gate(f"u{i}", "INV_U", {"A": prev, "Z": out})
        prev = out
    return n


class TestChain:
    def test_forward_depths_count_position(self):
        fwd = forward_min_depths(_chain(4))
        assert fwd == {"u0": 1, "u1": 2, "u2": 3, "u3": 4}

    def test_backward_depths_count_remaining(self):
        bwd = backward_min_depths(_chain(4))
        assert bwd == {"u0": 4, "u1": 3, "u2": 2, "u3": 1}

    def test_gba_depth_is_chain_length_everywhere(self):
        depths = compute_gba_depths(_chain(5))
        assert all(d == 5 for d in depths.values())


class TestBranching:
    def test_short_branch_pulls_depth_down(self):
        """A gate on both a long and a short path gets the short depth."""
        n = _chain(4)
        # u1 also drives an output port directly: a 2-gate path u0-u1.
        n.add_port("tap", PortDirection.OUTPUT)
        n.add_gate("tapg", "INV_U", {"A": "w1", "Z": "tap"})
        depths = compute_gba_depths(n)
        # u0,u1 now lie on the 3-gate path u0-u1-tapg.
        assert depths["u0"] == 3
        assert depths["u1"] == 3
        # Gates after the branch point are unaffected.
        assert depths["u2"] == 4
        assert depths["u3"] == 4

    def test_flop_boundary_restarts_depth(self):
        n = Netlist("ff", LIB)
        n.add_port("clk", PortDirection.INPUT)
        n.add_port("a", PortDirection.INPUT)
        n.add_port("y", PortDirection.OUTPUT)
        n.add_gate("u0", "INV_U", {"A": "a", "Z": "w0"})
        n.add_gate("ff", "DFF_U", {"D": "w0", "CK": "clk", "Q": "q"})
        n.add_gate("u1", "INV_U", {"A": "q", "Z": "y"})
        depths = compute_gba_depths(n)
        assert depths["u0"] == 1
        assert depths["u1"] == 1

    def test_dangling_gate_counts_itself(self):
        n = Netlist("dangle", LIB)
        n.add_gate("solo", "INV_U", {})
        assert compute_gba_depths(n) == {"solo": 1}


class TestPaperExample:
    def test_fig2_depths_match_paper(self):
        design = build_fig2_design()
        assert compute_gba_depths(design.netlist) == EXPECTED_GBA_DEPTHS


class TestInvariant:
    def test_gba_depth_bounds_every_path_depth(self, small_engine):
        """For every enumerated path, every gate's GBA depth <= path depth.

        This is THE inequality that makes GBA pessimistic (Fig. 2): it
        must hold for arbitrary generated designs.
        """
        from repro.pba.enumerate import enumerate_worst_paths
        from repro.pba.engine import PBAEngine

        engine = small_engine
        depths = compute_gba_depths(engine.netlist)
        paths = enumerate_worst_paths(engine.graph, engine.state, 8)
        PBAEngine(engine).analyze(paths)
        assert paths
        for path in paths:
            for gate in path.gates():
                assert depths[gate] <= path.depth, (
                    f"{gate}: gba depth {depths[gate]} > "
                    f"path depth {path.depth}"
                )

    def test_loop_raises(self):
        n = Netlist("loop", LIB)
        n.add_gate("u1", "INV_U", {"A": "w2", "Z": "w1"})
        n.add_gate("u2", "INV_U", {"A": "w1", "Z": "w2"})
        with pytest.raises(TimingError):
            compute_gba_depths(n)


def _wrapper_depths(netlist: Netlist) -> dict:
    """``fwd + bwd - 1`` from the public per-direction wrappers."""
    fwd = forward_min_depths(netlist)
    bwd = backward_min_depths(netlist)
    return {g: fwd[g] + bwd[g] - 1 for g in fwd}


class TestSharedSweepGraph:
    """``compute_gba_depths`` builds the DAG once for both sweeps and
    must agree with the wrappers that build it per direction — values
    and gate order alike (the layout cache key reprs the map)."""

    def test_fixture_designs(self, small_design):
        for netlist in (
            _chain(5), build_fig2_design().netlist, small_design.netlist,
        ):
            got = compute_gba_depths(netlist)
            want = _wrapper_depths(netlist)
            assert list(got.items()) == list(want.items())

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(design=designs())
    def test_hypothesis_designs(self, design):
        got = compute_gba_depths(design.netlist)
        assert list(got.items()) == list(
            _wrapper_depths(design.netlist).items()
        )
