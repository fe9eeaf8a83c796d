"""The three benchmark workloads: signoff, closure and eco.

Each workload generates its inputs from the seed (outside every timed
region), then repeats its operations until the run's seconds are spent,
timing the cold set-up and the operations separately and checking every
answer against an oracle.  Knobs are pinned: serial execution, the
vector kernel, and a private cache directory per set-up; the caller
clears ambient ``REPRO_*`` settings before ``repro`` is imported.

A run repeats whole cycles over its inputs (``eco``: whole replays of
its request stream) and starts another only while it is expected to
end within the run's seconds, so every input runs equally often and a
run's length does not depend on where a cycle happens to end.  Between
operations it times ``reference()``, whose mean gives the machine's
speed during the run; the end-to-end times are scaled by it.  The
workload figures and the tracing overhead take each input's fastest
time.

``run_workload`` returns a :class:`RunResult`.  With a tracer, each
input runs untraced and traced in ``TRACED_ORDER`` (``eco``: in
replays of the request stream), so the tracing overhead is measured on
the same inputs, and only the traced operations feed the tracer's
totals.
"""

from __future__ import annotations

import gc
import pickle
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import api
from repro.context import RunContext
from repro.designs.generator import Design, generate_design, scaled_spec
from repro.designs.suite import DESIGN_SPECS
from repro.mgba.flow import MGBAConfig, MGBAFlow
from repro.netlist.edit import insert_buffer, resize_gate, swap_vt
from repro.netlist.verilog import write_verilog
from repro.opt.closure import ClosureConfig, TimingClosureOptimizer
from repro.parallel.executor import SerialExecutor
from repro.pba.engine import PBAEngine
from repro.service.engine import TimingService
from repro.timing import kernel
from repro.timing import slack as slack_mod
from repro.timing.sta import STAEngine

perf = time.perf_counter

#: Untraced cycles over the inputs (``eco``: replays of its stream) at
#: least, so that a first-run warm-up is not all a run measures.
REPEATS = 2

#: Order of untraced (False) and traced (True) runs of one input in a
#: traced run: each kind runs twice, and the order cancels both a
#: first-run warm-up and a steady drift of the machine's speed.
TRACED_ORDER = (False, True, True, False)

#: Designs are eighth-size (the flop count ``REPRO_SUITE_SCALE=0.125``
#: gives): one design's cost moves by 20-40% with its random structure,
#: so a run averages over many small designs and times each of them
#: several times.
DESIGN_SCALE = 0.125

#: ``signoff`` designs are quarter-size, so that graph build, PBA and
#: the fit work on more than a few hundred timing nodes.
SIGNOFF_SCALE = 0.25

#: Mean time of ``reference()`` on the machine the end-to-end times are
#: scaled to.
REFERENCE_S = 0.008

#: Parent of the private cache directories; removed run by run.
SCRATCH = Path(__file__).resolve().parent.parent / ".perfbench_tmp"


@dataclass(frozen=True)
class Profile:
    """Sizes of the inputs (the benchmark's, or the self-test's tiny ones)."""

    #: Each workload spreads over several designs drawn from its seed,
    #: so that runs on different seeds stay comparable.
    signoff_design: str = "D9"
    signoff_designs: int = 16
    pba_k: int = 20
    closure_design: str = "D3"
    closure_designs: int = 30
    max_transforms: int = 40
    eco_design: str = "D3"
    eco_designs: int = 8
    #: Requests in the eco stream: 45% reads, 35% what-ifs, 20% commits,
    #: so that the reads and the what-ifs each have at least ten samples
    #: beyond their p85.
    eco_requests: int = 200
    whatif_candidates: int = 4
    eco_pba_k: int = 8


BENCH = Profile()


@dataclass
class RunResult:
    """What one run measured and checked."""

    setups: "list[float]" = field(default_factory=list)
    #: Untraced and traced times of each operation, by its input.
    ops: "dict[Any, list[float]]" = field(default_factory=dict)
    traced_ops: "dict[Any, list[float]]" = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Workload-specific figures: name -> (value, unit).
    details: "dict[str, tuple[float, str]]" = field(default_factory=dict)
    #: Operations in one pass over an input, by input; 1 if absent.
    work: "dict[Any, int]" = field(default_factory=dict)
    #: Times of ``reference()``, taken between operations.
    references: "list[float]" = field(default_factory=list)

    def calibrate(self) -> None:
        self.references.append(reference())

    def speed(self) -> float:
        """The machine's speed during the run, relative to the one on
        which ``reference()`` takes ``REFERENCE_S`` on average."""
        return REFERENCE_S / float(np.mean(self.references))

    def setup_s(self) -> float:
        """The median set-up time."""
        return float(np.median(self.setups))

    def ops_per_s(self) -> float:
        """Untraced operations per second of operation time."""
        done = sum(self.work.get(key, 1) * len(times)
                   for key, times in self.ops.items())
        return done / sum(t for times in self.ops.values() for t in times)

    def record(self, key: Any, seconds: float, traced: bool) -> None:
        """Keep the time of one operation on input ``key``."""
        (self.traced_ops if traced else self.ops).setdefault(
            key, []).append(seconds)

    def fastest(self, traced: bool = False) -> "dict[Any, float]":
        """Each input's fastest operation time."""
        times = self.traced_ops if traced else self.ops
        return {key: min(samples) for key, samples in times.items()}

    def traced_count(self) -> int:
        return sum(len(samples) for samples in self.traced_ops.values())

    def tracing_overhead(self) -> "tuple[float, float]":
        """(traced minus untraced, untraced) mean seconds per operation,
        over the inputs timed both ways."""
        plain, traced = self.fastest(), self.fastest(traced=True)
        shared = [key for key in plain if key in traced]
        base = float(np.mean([plain[key] for key in shared]))
        over = float(np.mean([traced[key] - plain[key] for key in shared]))
        return over, base

    def check(self, problems: "list[str]", what: str) -> None:
        """Count one checked operation; report its problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"check failed ({what}): {problem}", file=sys.stderr)

    def crash(self, what: str) -> None:
        """Count one operation that raised."""
        self.attempted += 1
        self.failed += 1
        print(f"{what} raised:", file=sys.stderr)
        traceback.print_exc()


def reference() -> float:
    """Seconds of a fixed interpreter and numpy workload that calls no
    program code.  Timed between operations all through a run, its mean
    measures how fast the machine ran meanwhile: on a shared host the
    speed of one core moves by up to 1.8x, from one second to the next
    and between phases that last minutes."""
    t0 = perf()
    table: "dict[int, int]" = {}
    for i in range(25000):
        table[i % 499] = table.get(i % 499, 0) + i * i % 7
    values = np.arange(512, dtype=float)
    for _ in range(200):
        values = np.sqrt(values * 1.0001 + 1.0)
    return perf() - t0


class Workdir:
    """Fresh private cache directories under ``SCRATCH``, removed on exit."""

    def __enter__(self) -> "Workdir":
        SCRATCH.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        return self

    def fresh(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.path)

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def reset_process_state() -> None:
    """Forget every layout a previous set-up built or persisted.

    ``TimingService`` installs a process-global layout disk store that
    outlives it, and engines share a content-keyed layout LRU; without
    this reset a later set-up would hydrate from an earlier one.
    """
    kernel.clear_layout_cache()
    kernel.set_layout_disk_store(None)
    gc.collect()


def percentile(values: "list[float]", q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def slack_pairs(slacks) -> "list[tuple[str, float]]":
    return [(s.name, s.slack) for s in slacks]


def derived_seeds(seed: int, count: int) -> "list[int]":
    """``count`` design seeds from one workload seed; the first is the
    workload seed itself."""
    extra = np.random.SeedSequence(seed).generate_state(max(count - 1, 0))
    return [seed, *(int(s) for s in extra)]


def make_design(name: str, seed: int, scale: float = DESIGN_SCALE) -> Design:
    """A scaled suite design with its spec seed replaced and the kernel
    pinned."""
    spec = scaled_spec(replace(DESIGN_SPECS[name], seed=seed), scale)
    design = generate_design(spec)
    design.sta_config = replace(design.sta_config, kernel="vector")
    return design


def fresh_engine(design: Design, kernel_name: str = "vector",
                 weights: "dict[str, float] | None" = None) -> STAEngine:
    """A from-scratch timed engine over the design's current netlist."""
    reset_process_state()
    engine = STAEngine(
        design.netlist, design.constraints, design.placement,
        replace(design.sta_config, kernel=kernel_name),
    )
    if weights:
        engine.set_gate_weights(weights)
    engine.update_timing()
    return engine


def serial_mgba() -> MGBAConfig:
    return MGBAConfig(workers=1, parallel_backend="serial")


# ----------------------------------------------------------------------
# Output checks (pure: the self-test feeds them corrupted answers)
# ----------------------------------------------------------------------
def check_equal_slacks(got: "list[tuple[str, float]]",
                       want: "list[tuple[str, float]]") -> "list[str]":
    """Bit-identical endpoint slacks, endpoint for endpoint."""
    if len(got) != len(want):
        return [f"{len(got)} endpoints, oracle has {len(want)}"]
    return [
        f"{g[0]}: {g[1]!r} != oracle {w[0]}: {w[1]!r}"
        for g, w in zip(got, want) if g != w
    ]


def check_golden(golden: "dict[int, float]",
                 gba: "dict[int, float]") -> "list[str]":
    """Golden PBA never reports less slack than GBA (1e-6 ps slack for
    summation order), and covers every endpoint."""
    problems = [
        f"endpoint {node}: golden {golden.get(node)!r} < GBA {slack!r}"
        for node, slack in gba.items()
        if node not in golden or golden[node] < slack - 1e-6
    ]
    if len(golden) != len(gba):
        problems.append(f"{len(golden)} golden slacks for {len(gba)} "
                        f"endpoints")
    return problems


def check_pass_ratio(mgba: float, gba: float) -> "list[str]":
    """The fit must not pass fewer paths than plain GBA (Table 3)."""
    return [] if mgba >= gba else [f"mGBA pass ratio {mgba} < GBA {gba}"]


def check_unchanged(before: "list[tuple[str, float]]",
                    after: "list[tuple[str, float]]") -> "list[str]":
    """A what-if must leave the engine's slacks exactly as it found them."""
    return [f"what-if moved {p}" for p in check_equal_slacks(after, before)]


def check_same(got: Any, want: Any, what: str) -> "list[str]":
    return [] if got == want else [f"{what} differs from the oracle"]


# ----------------------------------------------------------------------
# Shared loop: whole cycles over the run's designs
# ----------------------------------------------------------------------
@contextmanager
def traced_if(tracer, on: bool):
    """Install the tracer's probes for the duration of one operation."""
    if on:
        tracer.install()
    try:
        yield
    finally:
        if on:
            tracer.uninstall()


def _repeat(seconds: float, minimum: int, step: "Callable[[], None]",
            limit: "int | None" = None) -> None:
    """Call ``step`` ``minimum`` times, then again while one more call,
    at the mean duration so far, is expected to end within ``seconds``
    of the start; never more than ``limit`` times."""
    start = perf()
    done = 0
    while done != limit and (
        done < minimum or (perf() - start) * (done + 1) / done <= seconds
    ):
        step()
        done += 1


def _cycles(run: RunResult, items: "list[Any]", seconds: float, tracer,
            one_pass: "Callable[[int, Any, bool], None]",
            what: str) -> None:
    """Run ``one_pass(index, item, traced)`` in whole cycles over the
    items, at least one, as long as ``_repeat`` allows.  With a tracer
    the items run one by one, each in ``TRACED_ORDER``, and each at most
    once."""
    def attempt(index: int, item: Any, traced: bool) -> None:
        run.calibrate()
        try:
            one_pass(index, item, traced)
        except Exception:
            run.crash(what)

    if tracer is None:
        def cycle() -> None:
            for index, item in enumerate(items):
                attempt(index, item, False)
        _repeat(seconds, REPEATS, cycle)
        return
    pending = iter(enumerate(items))

    def traced_item() -> None:
        index, item = next(pending)
        for traced in TRACED_ORDER:
            attempt(index, item, traced)
    _repeat(seconds, 1, traced_item, limit=len(items))


# ----------------------------------------------------------------------
# signoff: cold build + golden PBA + mGBA fit of large designs
# ----------------------------------------------------------------------
def _signoff(seed: int, seconds: float, tracer, profile: Profile) \
        -> RunResult:
    run = RunResult()
    inputs = []
    for design_seed in derived_seeds(seed, profile.signoff_designs):
        design = make_design(profile.signoff_design, design_seed,
                             SIGNOFF_SCALE)
        oracle = slack_pairs(fresh_engine(design, "scalar").setup_slacks())
        inputs.append((design, oracle))
    golden_s: "list[float]" = []
    fit_s: "list[float]" = []
    pass_ratios: "dict[int, float]" = {}

    def one_pass(index: int, item, traced: bool) -> None:
        design, oracle = item
        reset_process_state()
        with traced_if(tracer, traced):
            t0 = perf()
            engine = STAEngine(design.netlist, design.constraints,
                               design.placement, design.sta_config)
            engine.update_timing()
            t1 = perf()
            golden = PBAEngine(engine).golden_endpoint_slacks(
                k=profile.pba_k, executor=SerialExecutor()
            )
            t2 = perf()
            gba = slack_pairs(engine.setup_slacks())
            gba_by_node = {s.node: s.slack for s in engine.setup_slacks()}
            t3 = perf()
            fit = MGBAFlow(serial_mgba()).run(engine)
            t4 = perf()
        run.setups.append(t1 - t0)
        run.record(index, (t2 - t1) + (t4 - t3), traced)
        golden_s.append(t2 - t1)
        fit_s.append(t4 - t3)
        pass_ratios[id(design)] = fit.pass_ratio_mgba
        run.check(
            check_equal_slacks(gba, oracle)
            + check_golden(golden, gba_by_node)
            + check_pass_ratio(fit.pass_ratio_mgba, fit.pass_ratio_gba),
            "signoff",
        )

    _cycles(run, inputs, seconds, tracer, one_pass, "signoff pass")
    if golden_s:
        run.details = {
            "golden_s": (float(np.median(golden_s)), "s"),
            "fit_s": (float(np.median(fit_s)), "s"),
            "fit_pass_ratio": (float(np.mean(list(pass_ratios.values()))),
                               "ratio"),
        }
    return run


# ----------------------------------------------------------------------
# closure: mGBA-driven closure, fixing + unbounded recovery
# ----------------------------------------------------------------------
def _closure(seed: int, seconds: float, tracer, profile: Profile) \
        -> RunResult:
    run = RunResult()
    blobs = [
        pickle.dumps(make_design(profile.closure_design, s))
        for s in derived_seeds(seed, profile.closure_designs)
    ]
    config = ClosureConfig(
        use_mgba=True, max_transforms=profile.max_transforms,
        mgba=serial_mgba(),
    )
    qor: "dict[int, tuple[float, float]]" = {}
    #: Re-timed final slacks by input, final netlist and final weights:
    #: every pass on one input should end in the same state, so that
    #: state is re-timed once.
    oracles: "dict[tuple, list[tuple[str, float]]]" = {}

    def one_pass(index: int, blob: bytes, traced: bool) -> None:
        design = pickle.loads(blob)
        reset_process_state()
        with traced_if(tracer, traced):
            t0 = perf()
            optimizer = TimingClosureOptimizer(
                design.netlist, design.constraints, design.placement,
                design.sta_config, config,
            )
            t1 = perf()
            report = optimizer.run()
            t2 = perf()
        run.setups.append(t1 - t0)
        run.record(index, t2 - t1, traced)
        qor.setdefault(index, (report.final.area, report.final.leakage))
        moves = run.work.setdefault(index, report.transforms_tried)
        final = slack_pairs(optimizer.engine.setup_slacks())
        weights = dict(optimizer.engine.weights)
        del optimizer
        key = (index, write_verilog(design.netlist),
               tuple(sorted(weights.items())))
        if key not in oracles:
            oracles[key] = slack_pairs(
                fresh_engine(design, weights=weights).setup_slacks()
            )
        run.check(
            check_equal_slacks(final, oracles[key])
            + check_same(report.transforms_tried, moves, "moves tried"),
            "closure",
        )

    _cycles(run, blobs, seconds, tracer, one_pass, "closure pass")
    if qor:
        run.details = {
            "closure_s": (float(np.median(list(run.fastest().values()))),
                          "s"),
            "closure_area_um2": (
                float(np.mean([a for a, _ in qor.values()])), "um2"),
            "closure_leakage_nw": (
                float(np.mean([lk for _, lk in qor.values()])), "nW"),
        }
    return run


# ----------------------------------------------------------------------
# eco: one closed-loop client against one TimingService
# ----------------------------------------------------------------------
class EcoDesign:
    """Client-side view of one registered design."""

    def __init__(self, name: str, design: Design, engine: STAEngine):
        self.name = name
        self.design = design
        self.clock_gates = {
            node.ref.gate for node in engine.graph.live_nodes()
            if node.is_clock_tree and node.ref.gate is not None
        }
        self.worst_endpoint: "str | None" = None

    def gates(self) -> "list[str]":
        return sorted(
            g for g in self.design.netlist.combinational_gates()
            if g not in self.clock_gates
        )

    def note_sta(self, result) -> None:
        if result.slacks:
            self.worst_endpoint = min(result.slacks, key=lambda p: p[1])[0]

    @staticmethod
    def slacks(engine: STAEngine) -> "list[tuple[str, float]]":
        """Current endpoint slacks straight from the engine state (the
        engine's slack memo is left alone)."""
        return slack_pairs(slack_mod.setup_slacks(
            engine.graph, engine.state, engine.constraints
        ))


def eco_ops(seed: int, count: int) -> "list[str]":
    """The operations of the stream's requests in order: 45% reads
    (``sta``, ``explain`` and ``pba_slacks`` alike), 35% what-ifs and
    20% commits, shuffled by the seed.  The mix is exact, so streams of
    different seeds cost alike."""
    read, what_ifs = round(0.15 * count), round(0.35 * count)
    ops = (["sta", "explain", "pba_slacks"] * read
           + ["what_if"] * what_ifs
           + ["commit"] * (count - 3 * read - what_ifs))
    np.random.default_rng([seed, 2]).shuffle(ops)
    return ops


class EcoClient:
    """Draws the seeded request stream from the designs' current state."""

    def __init__(self, designs: "list[EcoDesign]", seed: int,
                 profile: Profile):
        self.designs = designs
        self.profile = profile
        self.rng = np.random.default_rng([seed, 1])
        self.ops = eco_ops(seed, profile.eco_requests)
        library = designs[0].design.netlist.library
        buffers = library.buffers()
        self.buffer_cell = buffers[len(buffers) // 2].name
        self.commits = 0

    def _pick(self, items: "list[Any]") -> Any:
        return items[int(self.rng.integers(len(items)))]

    def edit_spec(self, target: EcoDesign) -> "dict[str, Any]":
        """One valid resize / vt_swap / insert_buffer edit spec."""
        netlist = target.design.netlist
        library = netlist.library
        kind = self._pick(["resize", "vt_swap", "insert_buffer"])
        gates = target.gates()
        while True:
            gate = self._pick(gates)
            cell = netlist.gate(gate).cell_name
            if kind == "resize":
                ups = [up for up, variant in (
                    (True, library.next_size_up(cell)),
                    (False, library.next_size_down(cell)),
                ) if variant is not None]
                if ups:
                    return {"kind": "resize", "gate": gate,
                            "up": bool(self._pick(ups))}
            elif kind == "vt_swap":
                current = library.cell(cell).vt
                vts = sorted({c.vt for c in library.vt_flavours(cell)}
                             - {current})
                if vts:
                    return {"kind": "vt_swap", "gate": gate,
                            "vt": self._pick(vts)}
            else:
                pin = library.cell(cell).output_pins[0].name
                net = netlist.gate(gate).connections.get(pin)
                if net and any(
                    not ref.is_port for ref in netlist.net_loads(net)
                ):
                    return {"kind": "insert_buffer", "net": net,
                            "buffer_cell": self.buffer_cell}

    def commit(self, target: EcoDesign, spec: "dict[str, Any]"):
        """Apply an edit spec to the netlist; returns its ChangeRecord."""
        netlist = target.design.netlist
        if spec["kind"] == "resize":
            return resize_gate(netlist, spec["gate"], spec["up"])
        if spec["kind"] == "vt_swap":
            return swap_vt(netlist, spec["gate"], spec["vt"])
        self.commits += 1
        return insert_buffer(
            netlist, spec["net"], spec["buffer_cell"],
            placement=target.design.placement,
            buffer_name=f"ecobuf{self.commits}",
            new_net_name=f"econet{self.commits}",
        )

    def request(self, index: int) -> "tuple[str, EcoDesign, Any]":
        """(kind, design, payload) of request ``index``: a read, a
        what-if, or an edit."""
        target = self._pick(self.designs)
        name = target.name
        op = self.ops[index]
        if op == "sta" or (op == "explain" and target.worst_endpoint is None):
            return "read", target, {"op": "sta", "design": name}
        if op == "explain":
            return "read", target, {
                "op": "explain", "design": name,
                "endpoint": target.worst_endpoint, "top_k": 3,
            }
        if op == "pba_slacks":
            return "read", target, {"op": "pba_slacks", "design": name,
                                     "k": self.profile.eco_pba_k}
        if op == "what_if":
            return "what_if", target, {
                "op": "what_if", "design": name,
                "candidates": [
                    [self.edit_spec(target)]
                    for _ in range(self.profile.whatif_candidates)
                ],
            }
        return "commit", target, self.edit_spec(target)


def _eco_setup(run: RunResult, bundles: "dict[str, Design]",
               workdir: Workdir) -> "tuple[TimingService, dict] | None":
    """One cold service: construct, register, first ``sta`` of each."""
    reset_process_state()
    context = RunContext(workers=1, backend="serial",
                         cache_dir=workdir.fresh())
    try:
        t0 = perf()
        service = TimingService(context)
        for name, design in bundles.items():
            service.register_design(name, design=design)
        answers = service.submit(
            [{"op": "sta", "design": name} for name in bundles]
        )
        run.setups.append(perf() - t0)
    except Exception:
        run.crash("eco setup")
        return None
    errors = [str(a.error) for a in answers if not a.ok]
    run.check(errors, "eco setup")
    if errors:
        return None
    return service, {a.query.design: a.result for a in answers}


def _eco_replay(run: RunResult, bundles: "dict[str, Design]", seed: int,
                tracer, traced: bool, profile: Profile, workdir: Workdir,
                sent: "list[tuple[str, str, Any]]") -> "dict[str, Any]":
    """A cold set-up, then the whole request stream against it.  The
    stream depends only on the seed and the designs, so every replay on
    fresh copies sends the same requests; request ``i`` is recorded
    under key ``i``, and the first replay keeps its kind, design and
    payload in ``sent[i]``.  Returns each design's final ``sta``
    answer."""
    setup = _eco_setup(run, bundles, workdir)
    if setup is None:
        return {}
    service, first = setup
    designs = [
        EcoDesign(name, design, service.engine(name))
        for name, design in bundles.items()
    ]
    for target in designs:
        target.note_sta(first[target.name])
    client = EcoClient(designs, seed, profile)
    for index in range(profile.eco_requests):
        if index % 5 == 0:
            run.calibrate()
        kind, target, payload = client.request(index)
        request = (kind, target.name, payload)
        if index == len(sent):
            sent.append(request)
        before = (target.slacks(service.engine(target.name))
                  if kind == "what_if" else None)
        try:
            with traced_if(tracer, traced):
                t0 = perf()
                if kind == "commit":
                    change = client.commit(target, payload)
                    service.apply_change(change, design=target.name)
                    answer = None
                else:
                    answer = service.submit([payload])[0]
                elapsed = perf() - t0
            run.record(index, elapsed, traced)
            problems: "list[str]" = []
            if sent[index] != request:
                problems.append(f"replay sent another request {index}")
            if answer is not None and not answer.ok:
                problems.append(str(answer.error))
            elif kind == "what_if":
                problems += [
                    f"candidate {c.error}" for c in answer.result.candidates
                    if not c.ok
                ]
                problems += check_unchanged(
                    before, target.slacks(service.engine(target.name))
                )
            elif answer is not None and payload["op"] == "sta":
                target.note_sta(answer.result)
            run.check(problems, f"eco {kind}")
        except Exception:
            run.crash(f"eco {kind}")
    finals = {}
    for target in designs:
        try:
            finals[target.name] = service.submit(
                [{"op": "sta", "design": target.name}]
            )[0]
        except Exception:
            run.crash("eco final sta")
    return finals


def _eco(seed: int, seconds: float, tracer, profile: Profile) -> RunResult:
    run = RunResult()
    blobs = {
        f"{profile.eco_design}.{i}": pickle.dumps(
            make_design(profile.eco_design, s))
        for i, s in enumerate(derived_seeds(seed, profile.eco_designs))
    }
    sent: "list[tuple[str, str, Any]]" = []
    replays: "list[dict[str, Any]]" = []
    #: The designs as the last replay left them.
    finished: "dict[str, Design]" = {}
    order = TRACED_ORDER if tracer is not None else (False,) * REPEATS

    def replay() -> None:
        bundles = {name: pickle.loads(b) for name, b in blobs.items()}
        traced = order[len(replays) % len(order)]
        replays.append(_eco_replay(run, bundles, seed, tracer, traced,
                                   profile, workdir, sent))
        finished.update(bundles)

    with Workdir() as workdir:
        _repeat(seconds, len(order), replay,
                limit=len(order) if tracer is not None else None)
    # Every replay ends in the same state.  The service is gone, so the
    # oracles do not add to the peak memory.
    for name, design in finished.items():
        try:
            oracle = replace(
                api.sta_result_from_engine(fresh_engine(design, "scalar")),
                design=name,
            )
        except Exception:
            run.crash("eco oracle")
            continue
        for finals in replays:
            if name in finals:
                final = finals[name]
                run.check(
                    [str(final.error)] if not final.ok
                    else check_same(final.result, oracle, "final sta"),
                    "eco final sta",
                )
    fastest = run.fastest()
    latencies = {
        kind: [fastest[i] for i, (k, _, _) in enumerate(sent)
               if k == kind and i in fastest]
        for kind in ("read", "what_if")
    }
    if all(latencies.values()):
        run.details = {
            "read_p85_ms": (1000 * percentile(latencies["read"], 85), "ms"),
            "whatif_p50_ms": (
                1000 * percentile(latencies["what_if"], 50), "ms"),
            "whatif_p85_ms": (
                1000 * percentile(latencies["what_if"], 85), "ms"),
        }
    return run


WORKLOADS: "dict[str, Callable[..., RunResult]]" = {
    "signoff": _signoff,
    "closure": _closure,
    "eco": _eco,
}


def run_workload(name: str, seed: int, seconds: float, tracer=None,
                 profile: Profile = BENCH) -> RunResult:
    """Generate the workload's inputs from ``seed`` and measure it."""
    try:
        return WORKLOADS[name](seed, seconds, tracer, profile)
    finally:
        reset_process_state()
