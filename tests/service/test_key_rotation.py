"""Key rotation after an edit equals a from-scratch design key.

``TimingService.apply_change`` keeps the pre-edit key as a stale base,
and the next ``design_key`` rehashes only the netlist and placement
(``keys.design_key(..., previous=)``).  That is sound only because no
edit primitive touches the library, constraints or STA config; these
tests pin the rotated key to a full recompute after every commit of a
long mixed edit sequence, and check that re-registering a design drops
the stale base.
"""

import random
from dataclasses import replace

import pytest

from repro import api
from repro.context import RunContext
from repro.designs.generator import generate_design
from repro.netlist.edit import (
    insert_buffer, remove_buffer, resize_gate, swap_vt,
)
from repro.service import TimingService, keys
from tests.conftest import SMALL_SPEC
from tests.timing.test_incremental_mixed import _loaded_nets

COMMITS = 36


def _service(tmp_path) -> TimingService:
    return TimingService(context=RunContext.from_env(
        workers=1, backend="serial", cache_dir=str(tmp_path / "cache"),
    ))


def _fresh_key(bundle) -> keys.DesignKey:
    return keys.design_key(
        bundle.netlist, bundle.constraints, bundle.placement,
        bundle.sta_config,
    )


def _commit(design, rng: random.Random, inserted: "list[str]"):
    """One seeded resize / vt_swap / insert_buffer / remove_buffer edit;
    None when the drawn edit does not apply."""
    netlist = design.netlist
    gates = [
        g for g in netlist.combinational_gates() if not g.startswith("ckbuf")
    ]
    gate = rng.choice(gates)
    kind = rng.choice(["resize", "vt_swap", "insert_buffer", "remove_buffer"])
    if kind == "resize":
        return resize_gate(netlist, gate, up=rng.random() < 0.5)
    if kind == "vt_swap":
        if netlist.cell_of(gate).is_buffer:
            return None
        return swap_vt(netlist, gate, rng.choice(["lvt", "hvt"]))
    if kind == "insert_buffer" or not inserted:
        change = insert_buffer(
            netlist, rng.choice(_loaded_nets(design)), "BUF_X2",
            placement=design.placement,
        )
        inserted.append(change.gates[0])
        return change
    victim = inserted.pop(rng.randrange(len(inserted)))
    design.placement.locations.pop(victim, None)
    return remove_buffer(netlist, victim)


@pytest.mark.parametrize("seed", [3, 17])
def test_rotated_key_equals_fresh_key(tmp_path, monkeypatch, seed):
    service = _service(tmp_path)
    service.register_design("dut", design=generate_design(SMALL_SPEC))
    design = service.design("dut")
    service.sta("dut")  # a live engine, so commits update it too
    assert service.design_key("dut") == _fresh_key(design)

    liberty_calls = []
    liberty_hash = keys.liberty_hash
    monkeypatch.setattr(
        keys, "liberty_hash",
        lambda lib: liberty_calls.append(lib) or liberty_hash(lib),
    )
    rng = random.Random(seed)
    inserted: "list[str]" = []
    kinds = set()
    commits = 0
    while commits < COMMITS:
        change = _commit(design, rng, inserted)
        if change is None:
            continue
        service.apply_change(change, design="dut")
        commits += 1
        kinds.add(change.kind)
        rotated = service.design_key("dut")
        assert not liberty_calls  # rotation carried the liberty over
        assert rotated == _fresh_key(design), (commits, change.kind)
        liberty_calls.clear()
    assert kinds == {"resize", "vt_swap", "insert_buffer", "remove_buffer"}
    # The rotated key addresses the live engine's current answers.
    engine = service.engine("dut")
    assert service.sta("dut").slacks == api.sta_result_from_engine(
        engine).slacks


def test_register_design_drops_the_stale_base(tmp_path):
    service = _service(tmp_path)
    design = generate_design(SMALL_SPEC)
    service.register_design("dut", design=design)
    service.design_key("dut")
    gate = design.netlist.combinational_gates()[0]
    change = resize_gate(design.netlist, gate, up=True) or resize_gate(
        design.netlist, gate, up=False
    )
    service.apply_change(change, design="dut")
    # Another corner under the same name: a carried-over config digest
    # would address the old corner's artifacts.
    other = generate_design(SMALL_SPEC)
    other = replace(
        other, sta_config=replace(other.sta_config, delay_scale=0.8)
    )
    service.register_design("dut", design=other)
    assert service.design_key("dut") == _fresh_key(other)
    assert service.design_key("dut").config != _fresh_key(design).config
