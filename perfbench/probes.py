"""Per-layer accounting from outside the program.

A :class:`Tracer` wraps the public functions and methods each layer
exposes and accumulates, per wrapped function ("probe"), the number of
calls, the work items they handled, their busy (inclusive) seconds and
their exclusive seconds (busy minus the time spent in nested probes).
Nothing is recorded per call and nothing is written until the run
ends: the per-layer metrics are derived from the totals afterwards.

A function imported by name into other modules (``from x import f``)
is bound in several module namespaces; :meth:`Tracer.install` replaces
every binding of the same function object in the ``repro`` package, so
no call site escapes because it imported the name instead of the
module.  A probe that is never called on the workload where its layer
matters most trips :func:`guard`, which catches a wrapper attached to
the wrong object.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Modules whose names the probes patch (imported before scanning so
#: every ``from ... import`` binding exists).
_MODULES = (
    "repro.aocv.depth",
    "repro.timing.graph",
    "repro.timing.kernel",
    "repro.timing.incremental",
    "repro.timing.delaycalc",
    "repro.timing.sta",
    "repro.timing.explain",
    "repro.pba.enumerate",
    "repro.pba.engine",
    "repro.mgba.problem",
    "repro.mgba.flow",
    "repro.opt.closure",
    "repro.opt.transforms",
    "repro.opt.whatif",
    "repro.service.keys",
    "repro.service.store",
    "repro.service.engine",
)


def _graph_edges(args, kwargs, result) -> int:
    return args[0].edge_count()


def _layout_edges(args, kwargs, result) -> int:
    return int(args[0].live_eids.size)


def _batch_arcs(args, kwargs, result) -> int:
    return len(args[3])


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _paths_arg(args, kwargs, result) -> int:
    return len(args[1])


def _problem_rows(args, kwargs, result) -> int:
    return result.num_paths


def _problem_nnz(args, kwargs, result) -> int:
    return int(result.matrix.nnz)


def _solver_iterations(args, kwargs, result) -> int:
    return int(result.iterations)


def _not_none(args, kwargs, result) -> int:
    return int(result is not None)


@dataclass(frozen=True)
class ProbeSpec:
    """One wrapped callable: ``owner`` is a module path or
    ``module:Class``; ``items`` counts the work one call handled."""

    key: str
    layer: str
    owner: str
    attr: str
    items: "Callable[[tuple, dict, Any], int] | None" = None
    #: A second per-call count (e.g. matrix non-zeros beside rows).
    extra: "Callable[[tuple, dict, Any], int] | None" = None


_TRANSFORMS = ("upsize", "downsize", "swap_to_vt", "pad_hold_path",
               "buffer_net")

PROBES: "tuple[ProbeSpec, ...]" = (
    ProbeSpec("graph.build", "timing.graph",
              "repro.timing.graph:TimingGraph", "__init__", _graph_edges),
    ProbeSpec("graph.rebuild_net", "timing.graph",
              "repro.timing.graph:TimingGraph", "rebuild_net"),
    ProbeSpec("aocv.depth", "aocv.depth",
              "repro.aocv.depth", "compute_gba_depths"),
    ProbeSpec("kernel.build_layout", "timing.kernel",
              "repro.timing.kernel", "build_layout"),
    ProbeSpec("kernel.patch_layout", "timing.kernel",
              "repro.timing.kernel", "patch_layout"),
    ProbeSpec("kernel.propagate_full", "timing.kernel",
              "repro.timing.kernel", "propagate_full", _layout_edges),
    ProbeSpec("kernel.derates", "timing.kernel",
              "repro.timing.kernel", "compute_edge_derates"),
    ProbeSpec("incremental.apply", "timing.incremental",
              "repro.timing.incremental", "apply_change_incremental"),
    # Both kernels' incremental sweeps count as one probe: the engine
    # dispatches to exactly one of them per update.
    ProbeSpec("incremental.propagate", "timing.incremental",
              "repro.timing.kernel", "propagate_incremental"),
    ProbeSpec("incremental.propagate", "timing.incremental",
              "repro.timing.incremental", "propagate_incremental"),
    ProbeSpec("delaycalc.edge", "timing.delaycalc",
              "repro.timing.delaycalc:DelayCalculator", "compute_edge"),
    ProbeSpec("delaycalc.batch", "timing.delaycalc",
              "repro.timing.delaycalc:DelayCalculator",
              "compute_arcs_batch", _batch_arcs),
    ProbeSpec("sta.summary", "timing.sta",
              "repro.timing.sta:STAEngine", "summary"),
    ProbeSpec("sta.gate_slacks", "timing.sta",
              "repro.timing.sta:STAEngine", "gate_slacks"),
    ProbeSpec("pba.enumerate", "pba.enumerate",
              "repro.pba.enumerate", "worst_paths_to_endpoint", _result_len),
    ProbeSpec("pba.analyze", "pba.engine",
              "repro.pba.engine:PBAEngine", "analyze", _paths_arg),
    ProbeSpec("pba.golden", "pba.engine",
              "repro.pba.engine:PBAEngine", "golden_endpoint_slacks"),
    ProbeSpec("mgba.problem", "mgba.problem",
              "repro.mgba.problem", "build_problem", _problem_rows,
              _problem_nnz),
    ProbeSpec("mgba.solve", "mgba.solvers",
              "repro.mgba.flow:MGBAConfig", "solve", _solver_iterations),
    ProbeSpec("closure.fix", "opt.closure",
              "repro.opt.closure:TimingClosureOptimizer", "fix_violations"),
    ProbeSpec("closure.recover", "opt.closure",
              "repro.opt.closure:TimingClosureOptimizer", "recover"),
    *(
        ProbeSpec("transforms.try", "opt.transforms",
                  "repro.opt.transforms:TransformEngine", name, _not_none)
        for name in _TRANSFORMS
    ),
    ProbeSpec("transforms.revert", "opt.transforms",
              "repro.opt.transforms:AppliedTransform", "revert"),
    ProbeSpec("whatif.candidate", "opt.whatif",
              "repro.opt.whatif", "evaluate_candidate_on_engine"),
    ProbeSpec("explain", "timing.explain",
              "repro.timing.explain", "explain_design"),
    ProbeSpec("explain", "timing.explain",
              "repro.timing.explain", "explain_endpoint"),
    ProbeSpec("service.submit", "service.engine",
              "repro.service.engine:TimingService", "submit"),
    ProbeSpec("service.apply_change", "service.engine",
              "repro.service.engine:TimingService", "apply_change"),
    ProbeSpec("keys.design_key", "service.keys",
              "repro.service.keys", "design_key"),
    ProbeSpec("store.get", "service.store",
              "repro.service.store:ArtifactCache", "get", _not_none),
    ProbeSpec("store.put", "service.store",
              "repro.service.store:ArtifactCache", "put"),
)

LAYERS: "tuple[str, ...]" = tuple(dict.fromkeys(p.layer for p in PROBES))


class Tally:
    """Accumulated totals of one probe key."""

    __slots__ = ("calls", "items", "extra", "busy", "excl", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.extra = 0
        self.busy = 0.0
        self.excl = 0.0
        self.depth = 0


class Tracer:
    """Installs the probes, accumulates :class:`Tally` totals."""

    def __init__(self, specs: "tuple[ProbeSpec, ...]" = PROBES):
        self.specs = specs
        self.tallies: "dict[str, Tally]" = {
            spec.key: Tally() for spec in specs
        }
        self._stack: "list[float]" = []
        self._restore: "list[tuple[Any, str, Any]]" = []

    def _wrap(self, fn: Callable, spec: ProbeSpec) -> Callable:
        tally = self.tallies[spec.key]
        stack = self._stack
        items, extra = spec.items, spec.extra
        perf = time.perf_counter

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            stack.append(0.0)
            tally.depth += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                tally.depth -= 1
                nested = stack.pop()
                tally.calls += 1
                tally.excl += elapsed - nested
                if tally.depth == 0:
                    tally.busy += elapsed
                if stack:
                    stack[-1] += elapsed
            if items is not None:
                tally.items += items(args, kwargs, result)
            if extra is not None:
                tally.extra += extra(args, kwargs, result)
            return result

        return probe

    def install(self) -> None:
        """Wrap every probe target; :meth:`uninstall` undoes it."""
        for name in _MODULES:
            importlib.import_module(name)
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
        ]
        for spec in self.specs:
            module_name, _, class_name = spec.owner.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                cls = getattr(owner, class_name)
                original = cls.__dict__[spec.attr]
                setattr(cls, spec.attr, self._wrap(original, spec))
                self._restore.append((cls, spec.attr, original))
                continue
            original = getattr(owner, spec.attr)
            wrapped = self._wrap(original, spec)
            for module in modules:
                if module.__dict__.get(spec.attr) is original:
                    setattr(module, spec.attr, wrapped)
                    self._restore.append((module, spec.attr, original))

    def uninstall(self) -> None:
        """Put every original binding back."""
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def tally(self, key: str) -> Tally:
        return self.tallies[key]

    def layer_self_seconds(self, layer: str) -> float:
        """Exclusive seconds of every probe in ``layer``."""
        keys = {spec.key for spec in self.specs if spec.layer == layer}
        return sum(self.tallies[key].excl for key in keys)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric: how to derive it from the tallies and the
    workload on which its layer does the work that matters.

    Counts and seconds are reported per traced operation; rates and
    ratios are over all traced operations.
    """

    name: str
    unit: str
    probes: "tuple[str, ...]"
    main: str
    value: "Callable[[Callable[[str], Tally], int], float]"


def _calls(key):
    return lambda t, ops: t(key).calls / ops


def _busy(key):
    return lambda t, ops: t(key).busy / ops


def _items(key):
    return lambda t, ops: t(key).items / ops


def _rate(key):
    return lambda t, ops: _ratio(t(key).items, t(key).busy)


def _applied(t, ops) -> float:
    return (t("transforms.try").items - t("transforms.revert").calls) / ops


LAYER_METRICS: "tuple[LayerMetric, ...]" = (
    LayerMetric("timing.graph.build_s", "s", ("graph.build",), "signoff",
                _busy("graph.build")),
    LayerMetric("timing.graph.edges_per_s", "edges/s", ("graph.build",),
                "signoff", _rate("graph.build")),
    LayerMetric("timing.graph.rebuild_net_calls", "count",
                ("graph.rebuild_net",), "signoff",
                _calls("graph.rebuild_net")),
    LayerMetric("aocv.depth.calls", "count", ("aocv.depth",), "signoff",
                _calls("aocv.depth")),
    LayerMetric("aocv.depth.s", "s", ("aocv.depth",), "signoff",
                _busy("aocv.depth")),
    LayerMetric("timing.kernel.build_layout_s", "s",
                ("kernel.build_layout",), "signoff",
                _busy("kernel.build_layout")),
    LayerMetric("timing.kernel.patch_layout_calls", "count",
                ("kernel.patch_layout",), "eco",
                _calls("kernel.patch_layout")),
    LayerMetric("timing.kernel.patch_layout_s", "s",
                ("kernel.patch_layout",), "eco",
                _busy("kernel.patch_layout")),
    LayerMetric("timing.kernel.propagate_full_s", "s",
                ("kernel.propagate_full",), "signoff",
                _busy("kernel.propagate_full")),
    LayerMetric("timing.kernel.edges_per_s", "edges/s",
                ("kernel.propagate_full",), "signoff",
                _rate("kernel.propagate_full")),
    LayerMetric("timing.kernel.derates_s", "s", ("kernel.derates",),
                "signoff", _busy("kernel.derates")),
    LayerMetric("timing.incremental.apply_calls", "count",
                ("incremental.apply",), "closure",
                _calls("incremental.apply")),
    LayerMetric("timing.incremental.apply_s", "s", ("incremental.apply",),
                "closure", _busy("incremental.apply")),
    LayerMetric("timing.incremental.propagate_calls", "count",
                ("incremental.propagate",), "closure",
                _calls("incremental.propagate")),
    LayerMetric("timing.incremental.propagate_s", "s",
                ("incremental.propagate",), "closure",
                _busy("incremental.propagate")),
    LayerMetric("timing.delaycalc.edge_calls", "count", ("delaycalc.edge",),
                "closure", _calls("delaycalc.edge")),
    LayerMetric("timing.delaycalc.edge_s", "s", ("delaycalc.edge",),
                "closure", _busy("delaycalc.edge")),
    LayerMetric("timing.delaycalc.batch_calls", "count",
                ("delaycalc.batch",), "signoff", _calls("delaycalc.batch")),
    LayerMetric("timing.delaycalc.arcs_per_batch", "arcs/call",
                ("delaycalc.batch",), "signoff",
                lambda t, ops: _ratio(t("delaycalc.batch").items,
                                      t("delaycalc.batch").calls)),
    LayerMetric("timing.sta.summary_calls", "count", ("sta.summary",),
                "closure", _calls("sta.summary")),
    LayerMetric("timing.sta.summary_s", "s", ("sta.summary",), "closure",
                _busy("sta.summary")),
    LayerMetric("timing.sta.gate_slacks_s", "s", ("sta.gate_slacks",),
                "closure", _busy("sta.gate_slacks")),
    LayerMetric("pba.enumerate.s", "s", ("pba.enumerate",), "signoff",
                _busy("pba.enumerate")),
    LayerMetric("pba.enumerate.paths", "count", ("pba.enumerate",),
                "signoff", _items("pba.enumerate")),
    LayerMetric("pba.engine.analyze_s", "s", ("pba.analyze",), "signoff",
                _busy("pba.analyze")),
    LayerMetric("pba.engine.paths_per_s", "paths/s", ("pba.analyze",),
                "signoff", _rate("pba.analyze")),
    LayerMetric("pba.engine.golden_s", "s", ("pba.golden",), "signoff",
                _busy("pba.golden")),
    LayerMetric("mgba.problem.build_s", "s", ("mgba.problem",), "signoff",
                _busy("mgba.problem")),
    LayerMetric("mgba.problem.rows", "count", ("mgba.problem",), "signoff",
                _items("mgba.problem")),
    LayerMetric("mgba.problem.nnz", "count", ("mgba.problem",), "signoff",
                lambda t, ops: t("mgba.problem").extra / ops),
    LayerMetric("mgba.solvers.s", "s", ("mgba.solve",), "signoff",
                _busy("mgba.solve")),
    LayerMetric("mgba.solvers.iterations", "count", ("mgba.solve",),
                "signoff", _items("mgba.solve")),
    LayerMetric("opt.closure.fix_s", "s", ("closure.fix",), "closure",
                _busy("closure.fix")),
    LayerMetric("opt.closure.recover_s", "s", ("closure.recover",),
                "closure", _busy("closure.recover")),
    LayerMetric("opt.transforms.tried", "count", ("transforms.try",),
                "closure", _calls("transforms.try")),
    LayerMetric("opt.transforms.applied", "count", ("transforms.try",),
                "closure", _applied),
    LayerMetric("opt.transforms.accept_ratio", "ratio",
                ("transforms.try",), "closure",
                lambda t, ops: _ratio(_applied(t, 1),
                                      t("transforms.try").calls)),
    LayerMetric("opt.transforms.revert_s", "s", ("transforms.revert",),
                "closure", _busy("transforms.revert")),
    LayerMetric("opt.whatif.candidates", "count", ("whatif.candidate",),
                "eco", _calls("whatif.candidate")),
    LayerMetric("opt.whatif.candidate_ms", "ms", ("whatif.candidate",),
                "eco", lambda t, ops: 1000.0 * _ratio(
                    t("whatif.candidate").busy,
                    t("whatif.candidate").calls)),
    LayerMetric("timing.explain.calls", "count", ("explain",), "eco",
                _calls("explain")),
    LayerMetric("timing.explain.s", "s", ("explain",), "eco",
                _busy("explain")),
    LayerMetric("service.engine.cache_hit_ratio", "ratio", ("store.get",),
                "eco", lambda t, ops: _ratio(t("store.get").items,
                                             t("store.get").calls)),
    LayerMetric("service.keys.design_key_calls", "count",
                ("keys.design_key",), "eco", _calls("keys.design_key")),
    LayerMetric("service.keys.design_key_s", "s", ("keys.design_key",),
                "eco", _busy("keys.design_key")),
    LayerMetric("service.store.put_s", "s", ("store.put",), "eco",
                _busy("store.put")),
    LayerMetric("service.store.get_s", "s", ("store.get",), "eco",
                _busy("store.get")),
)


def per_layer_metrics(tracer: Tracer, ops: int) \
        -> "dict[str, tuple[float, str]]":
    """Every :data:`LAYER_METRICS` entry plus each layer's self time,
    all per traced operation (``ops`` of them)."""
    ops = max(ops, 1)
    out = {
        metric.name: (float(metric.value(tracer.tally, ops)), metric.unit)
        for metric in LAYER_METRICS
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.layer_self_seconds(layer) / ops, "s")
    return out


def guard(tracer: Tracer, workload: str) -> "list[str]":
    """Metrics whose layer matters most on ``workload`` but saw no call."""
    return [
        metric.name for metric in LAYER_METRICS
        if metric.main == workload
        and any(tracer.tally(key).calls == 0 for key in metric.probes)
    ]
