"""Deprecation shims: old import paths work for one release, warning.

Policy (``docs/api.md``): a moved or renamed public symbol keeps its
old import path for one release behind a ``DeprecationWarning``; the
shim resolves to the *same object* as the new path so behavior cannot
drift between the two.
"""

import sys
import warnings

import pytest


class TestParallelFanoutMove:
    def test_attribute_access_warns_and_aliases(self):
        import repro.parallel
        from repro.service import suite

        for name in ("evaluate_suite", "evaluate_design", "DesignReport"):
            with pytest.warns(DeprecationWarning, match="repro.service.suite"):
                moved = getattr(repro.parallel, name)
            assert moved is getattr(suite, name)

    def test_fanout_module_import_warns(self):
        sys.modules.pop("repro.parallel.fanout", None)
        with pytest.warns(DeprecationWarning, match="repro.service.suite"):
            import repro.parallel.fanout as fanout
        from repro.service import suite

        assert fanout.evaluate_suite is suite.evaluate_suite

    def test_package_import_is_silent(self):
        """Importing repro.parallel itself must not warn."""
        sys.modules.pop("repro.parallel", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            import repro.parallel  # noqa: F401

    def test_unknown_attribute_still_raises(self):
        import repro.parallel

        with pytest.raises(AttributeError):
            repro.parallel.no_such_name


class TestNetlistFingerprintRename:
    def test_warns_and_matches_internal(self):
        import repro.mgba.persistence as persistence
        from repro.designs.generator import generate_design
        from tests.conftest import SMALL_SPEC

        with pytest.warns(DeprecationWarning, match="netlist_hash"):
            deprecated = persistence.netlist_fingerprint
        design = generate_design(SMALL_SPEC)
        assert (deprecated(design.netlist)
                == persistence._structure_fingerprint(design.netlist))

    def test_weight_files_unaffected(self, tmp_path):
        """The shim must not change the on-disk weight-file format."""
        from repro.designs.generator import generate_design
        from repro.mgba.persistence import load_weights, save_weights
        from tests.conftest import SMALL_SPEC

        design = generate_design(SMALL_SPEC)
        gate = design.netlist.combinational_gates()[0]
        path = tmp_path / "w.json"
        save_weights({gate: 0.5}, design.netlist, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            loaded = load_weights(path, design.netlist, strict=True)
        assert loaded == {gate: 0.5}


class TestApplyChangeUnification:
    """``TimingService.apply_change`` now matches ``STAEngine``'s shape."""

    def _service_and_change(self, tmp_path):
        from repro.context import RunContext
        from repro.designs.generator import generate_design
        from repro.netlist.edit import resize_gate
        from repro.service import TimingService
        from tests.conftest import SMALL_SPEC

        service = TimingService(context=RunContext.from_env(
            workers=1, backend="serial", cache_dir=str(tmp_path / "cache"),
        ))
        service.register_design("dut", design=generate_design(SMALL_SPEC))
        netlist = service.design("dut").netlist
        gate = netlist.combinational_gates()[0]
        change = resize_gate(netlist, gate, up=True)
        if change is None:
            change = resize_gate(netlist, gate, up=False)
        return service, change

    def test_old_form_is_rejected(self, tmp_path):
        """The ``apply_change(name, change)`` shim is gone: the old
        argument order is a type error, and the key does not rotate."""
        from repro.service import ServiceError

        service, change = self._service_and_change(tmp_path)
        before = service.design_key("dut").token
        with pytest.raises(ServiceError, match="ChangeRecord"):
            service.apply_change("dut", change)
        assert service.design_key("dut").token == before

    def test_new_form_is_silent(self, tmp_path):
        service, change = self._service_and_change(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service.apply_change(change, design="dut")

    def test_wrong_types_still_rejected(self, tmp_path):
        from repro.service import ServiceError

        service, change = self._service_and_change(tmp_path)
        with pytest.raises(ServiceError, match="ChangeRecord"):
            service.apply_change("dut", "also-a-string")
        with pytest.raises(ServiceError, match="design="):
            service.apply_change(change)
