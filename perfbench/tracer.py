"""Per-layer span tracer that instruments ``repro`` from outside the program.

The traced run edits no program code.  :meth:`Tracer.install` replaces
each public entry point of each layer -- the names a layer module lists
in ``__all__`` -- with a timing wrapper, in the namespace where its
callers look the name up: methods on their class, functions in their
defining module *and* in every ``repro`` module that imported them by
name (``repro.service.server`` imports the protocol functions that way,
``repro.core.iomodel`` the bench engines).

Every wrapped call is a span.  A span's *self* time is its duration
minus the durations of the spans nested directly in it, so the self
times of all spans inside a harness root span add up exactly to that
root's duration minus the harness's own time.  ``trace.coverage`` is
that sum over the traced wall time.

Pool workers forked while the tracer is installed inherit the wrappers;
each worker appends its own aggregates, busy intervals and (capped)
spans to a file after every top-level span, which the parent merges
(:func:`read_worker_records`).  Each worker also snapshots the
program's solver counters through the public ``solver_totals()`` around
its top-level spans, so the parent can report solver hit ratios for
work that ran in workers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import pathlib
import sys
import time

__all__ = [
    "LAYERS",
    "METRIC_SPANS",
    "Tracer",
    "link_spans",
    "read_worker_records",
    "solver_delta",
]

_now = time.perf_counter

#: Layer -> the modules whose ``__all__`` entry points make up the
#: layer.  A layer name is the prefix of its ``<layer>.self_s`` metric.
LAYERS: dict[str, tuple[str, ...]] = {
    "topology": (
        "repro.topology.builders", "repro.topology.machine",
        "repro.topology.distance", "repro.topology.serialize",
        "repro.topology.modify", "repro.topology.audit",
    ),
    "interconnect": ("repro.interconnect.link",),
    "routing": ("repro.routing.table", "repro.routing.incremental"),
    "memory": (
        "repro.memory.allocator", "repro.memory.controller",
        "repro.memory.numastat",
    ),
    "osmodel": (
        "repro.osmodel.libnuma", "repro.osmodel.scheduler",
        "repro.osmodel.noise", "repro.osmodel.numactl",
        "repro.osmodel.counters",
    ),
    "devices": (
        "repro.devices.dma", "repro.devices.fit", "repro.devices.interrupts",
        "repro.devices.nic", "repro.devices.response", "repro.devices.ssd",
        "repro.devices.standard",
    ),
    "rng": ("repro.rng",),
    "solver": (
        "repro.solver.session", "repro.solver.incremental",
        "repro.solver.capacity",
    ),
    "flows": ("repro.flows.network", "repro.flows.maxmin"),
    "simtime": ("repro.simtime.engine",),
    "bench": (
        "repro.bench.engines", "repro.bench.fio", "repro.bench.stream",
        "repro.bench.results", "repro.bench.concurrent",
        "repro.bench.latency", "repro.bench.numademo",
    ),
    "core.iomodel": ("repro.core.iomodel",),
    "core.classify": ("repro.core.classify",),
    "core.migration": ("repro.core.migration",),
    "core": (
        "repro.core.characterize", "repro.core.predictor",
        "repro.core.scheduler_advisor", "repro.core.validation",
        "repro.core.model",
    ),
    "analysis": (
        "repro.analysis.numa_factor", "repro.analysis.topology_inference",
        "repro.analysis.mismatch", "repro.analysis.baselines",
        "repro.analysis.planner", "repro.analysis.report",
    ),
    "faults": (
        "repro.faults.degraded", "repro.faults.plan", "repro.faults.chaos",
    ),
    "cluster": ("repro.cluster.fabric", "repro.cluster.twohost"),
    "experiments": ("repro.experiments.sweeps",),
    "fabric": ("repro.fabric.pool", "repro.fabric.arena", "repro.fabric.shard"),
    "service": (
        "repro.service.server", "repro.service.backend",
        "repro.service.tiers", "repro.service.breaker",
    ),
    "service.protocol": ("repro.service.protocol",),
    "obs.live": ("repro.obs.live",),
}

#: Constructors that are entry points in their own right: building a
#: ``PageAllocator`` is the per-probe allocator set-up of Algorithm 1.
INIT_ENTRY_POINTS = ("repro.memory.allocator:PageAllocator",)

#: Public names left unwrapped: trivial accessors called hundreds of
#: thousands of times per pass, where a wrapper would cost more than
#: the call and the caller's layer is the honest owner of the time.
SKIP = frozenset({
    "repro.solver.incremental:flow_signature",
    "repro.solver.session:SolverSession.dma_path_gbps",
    "repro.devices.interrupts:IrqModel.factor",
    "repro.routing.table:RoutingTable.route_links",
    "repro.memory.numastat:NumaStat.record",
    "repro.solver.capacity:machine_fingerprint",
    "repro.service.server:PlacementService.handle_request",
    "repro.service.backend:AdvisoryBackend.advise",
    "repro.service.backend:AdvisoryBackend.predict_eq1",
    "repro.service.backend:AdvisoryBackend.classify",
    "repro.service.backend:AdvisoryBackend.plan",
    "repro.service.tiers:TierEntry.advise_payload",
    "repro.service.tiers:TierEntry.predict_payload",
    "repro.service.tiers:TierEntry.analytic_predict",
    "repro.service.tiers:TierEntry.classify_payload",
    "repro.service.tiers:AnalyticFit.predict_eq1",
    "repro.service.protocol:result_response",
    "repro.service.protocol:error_response",
    "repro.service.tiers:wire_answer",
    "repro.service.tiers:TierStore.fresh",
    "repro.service.backend:ClassSnapshot.class_avgs",
    "repro.obs.live:Hist.merge",
    "repro.obs.live:Hist.record_many",
    "repro.topology.machine:Machine.node",
    "repro.topology.machine:Machine.link",
    "repro.topology.machine:Machine.relation",
    "repro.topology.machine:Machine.cores_per_node",
    "repro.memory.allocator:PageAllocator.free_bytes",
    "repro.memory.allocator:Allocation.home_node",
    "repro.memory.controller:MemoryController.dma_resource",
    "repro.memory.controller:MemoryController.pio_resource",
    "repro.interconnect.link:DirectedLink.ends",
    "repro.service.tiers:TierEntry.staleness",
    "repro.service.tiers:wire_gbps",
    "repro.service.tiers:stamp_tier",
    "repro.service.tiers:TierStore.quarantine_reason",
    "repro.service.breaker:CircuitBreaker.allow",
    "repro.service.breaker:CircuitBreaker.record_success",
    "repro.solver.capacity:link_resource",
    "repro.obs.live:Hist.bucket_index",
    "repro.obs.live:Hist.bucket_upper",
    "repro.obs.live:LivePlane.count",
    "repro.core.classify:PerfClass.avg",
    "repro.core.classify:PerfClass.lo",
    "repro.core.classify:PerfClass.hi",
})

#: Per-layer count metrics and the spans they count.
METRIC_SPANS: dict[str, tuple[str, ...]] = {
    "routing.populate": ("routing.RoutingTable.populate",),
    "routing.route": ("routing.RoutingTable.route",),
    "memory.allocator": ("memory.PageAllocator.__init__",),
    "rng.streams": ("rng.RngRegistry.stream",),
    "bench.fio": ("bench.FioRunner.run",),
    "bench.stream": ("bench.StreamBenchmark.measure",),
    "bench.bulk_copy": ("bench.bulk_copy_gbps", "bench.bulk_copy_gbps_many"),
    "flows.simulate": ("flows.FlowNetwork.simulate",),
}


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            n for n, v in vars(module).items()
            if not n.startswith("_")
            and getattr(v, "__module__", None) == module.__name__
        ]
    return list(names)


def _wrappable(fn) -> bool:
    return (
        inspect.isfunction(fn)
        and not inspect.isgeneratorfunction(fn)
        and not inspect.iscoroutinefunction(fn)
    )


def solver_delta(before: dict, after: dict) -> dict:
    """Counter-wise ``after - before`` of two ``solver_totals()`` reads."""
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


#: Raw layer spans kept per process (harness spans are always kept);
#: the aggregates always cover every span.
SPAN_CAP = 20_000


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: One ``[child_s, ...]`` frame per open span.
        self.stack: list[list] = []
        #: span name -> [calls, self_s, total_s]
        self.stats: dict[str, list] = {}
        self.layer_of: dict[str, str] = {}
        #: (start, end, name, depth, request id), appended as spans close;
        #: parents are rebuilt from nesting (:func:`link_spans`).
        self.spans: list[tuple] = []
        self._spans_left = [SPAN_CAP]
        #: Request id stamped on spans (advisory), ``None`` otherwise.
        self.req = None
        #: Per-request layer -> self_s accumulator, ``None`` when unused.
        self.req_acc: "dict | None" = None
        #: (start, end) of top-level spans (a worker's busy intervals).
        self.busy: list[tuple[float, float]] = []
        self.solver: dict[str, int] = {}
        self._patches: list[tuple] = []
        self._installed = False
        self._worker_dir: "pathlib.Path | None" = None
        self._worker_file: "pathlib.Path | None" = None
        self._flushed = (0, 0)
        self._timed = False
        self._solver_before: "dict | None" = None

    # --- recording -------------------------------------------------------
    def reset(self) -> None:
        """Drop everything recorded so far (call between phases)."""
        for entry in self.stats.values():
            entry[0] = 0
            entry[1] = 0.0
            entry[2] = 0.0
        self.spans.clear()
        self._spans_left[0] = SPAN_CAP
        self.busy.clear()
        self.solver = {}
        self._flushed = (0, 0)

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        self.layer_of[name] = layer
        stack = self.stack
        spans = self.spans
        left = self._spans_left

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and tracer._worker_file is not None:
                tracer._top_begin()
            frame = [0.0]
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                entry[0] += 1
                entry[1] += own
                entry[2] += dur
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer._top_end(start, end)
                acc = tracer.req_acc
                if acc is not None:
                    acc[layer] = acc.get(layer, 0.0) + own
                if left[0]:
                    left[0] -= 1
                    spans.append((start, end, name, len(stack), tracer.req))

        return traced

    def begin(self, name: str) -> None:
        """Open a harness span (the root of one pass)."""
        if name not in self.stats:
            self.stats[name] = [0, 0.0, 0.0]
            self.layer_of[name] = "harness"
        self.stack.append([0.0, name, _now()])

    def end(self) -> float:
        """Close the innermost harness span; returns its duration."""
        end = _now()
        child, name, start = self.stack.pop()
        dur = end - start
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += dur - child
        entry[2] += dur
        if self.stack:
            self.stack[-1][0] += dur
        # Kept past the cap: one per pass, and the root every kept span links to.
        self.spans.append((start, end, name, len(self.stack), None))
        return dur

    # --- installation -----------------------------------------------------
    def _patch(self, namespace: dict, key: str, value) -> None:
        self._patches.append((namespace, key, namespace[key], value))
        namespace[key] = value

    def _set_class_attr(self, cls, key: str, value) -> None:
        self._patches.append((cls, key, cls.__dict__[key], value))
        setattr(cls, key, value)

    def _apply(self, newest_first: bool, index: int) -> None:
        patches = reversed(self._patches) if newest_first else self._patches
        for patch in patches:
            target, key, value = patch[0], patch[1], patch[index]
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    def _wrap_function(self, module, attr: str, layer: str) -> None:
        fn = vars(module)[attr]
        wrapper = self._wrap(fn, f"{layer}.{attr}", layer)
        # Patch every module that bound the name, since callers look
        # a by-name import up in their own globals.
        for mod in list(sys.modules.values()):
            space = getattr(mod, "__dict__", None)
            if space is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(space.items()):
                if value is fn:
                    self._patch(space, key, wrapper)

    def _wrap_method(self, cls, attr: str, layer: str) -> None:
        raw = cls.__dict__[attr]
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(raw, staticmethod):
            if _wrappable(raw.__func__):
                self._set_class_attr(
                    cls, attr, staticmethod(self._wrap(raw.__func__, name, layer))
                )
        elif isinstance(raw, classmethod):
            if _wrappable(raw.__func__):
                self._set_class_attr(
                    cls, attr, classmethod(self._wrap(raw.__func__, name, layer))
                )
        elif _wrappable(raw):
            self._set_class_attr(cls, attr, self._wrap(raw, name, layer))

    def install(self, experiments: "dict[str, object] | None" = None) -> int:
        """Wrap every layer entry point; returns the number wrapped.

        ``experiments`` maps experiment ids to their runner functions
        (from ``repro.experiments.get_experiment``); each is wrapped as
        the ``experiments.<id>`` span where the registry looks it up.
        """
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(m)
                   for mods in LAYERS.values() for m in mods}
        for spec in INIT_ENTRY_POINTS:
            importlib.import_module(spec.split(":")[0])
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                module = modules[module_name]
                for attr in _public_names(module):
                    obj = vars(module).get(attr)
                    if obj is None or f"{module_name}:{attr}" in SKIP:
                        continue
                    if inspect.isclass(obj) and obj.__module__ == module_name:
                        for meth in list(vars(obj)):
                            if meth.startswith("_"):
                                continue
                            if f"{module_name}:{attr}.{meth}" in SKIP:
                                continue
                            self._wrap_method(obj, meth, layer)
                    elif _wrappable(obj) and obj.__module__ == module_name:
                        self._wrap_function(module, attr, layer)
        for spec in INIT_ENTRY_POINTS:
            module_name, cls_name = spec.split(":")
            cls = getattr(sys.modules[module_name], cls_name)
            layer = next(k for k, v in LAYERS.items() if module_name in v)
            self._set_class_attr(
                cls, "__init__",
                self._wrap(cls.__dict__["__init__"], f"{layer}.{cls_name}.__init__", layer),
            )
        for exp_id, fn in (experiments or {}).items():
            module = sys.modules[fn.__module__]
            self._patch(vars(module), fn.__name__,
                        self._wrap(fn, f"experiments.{exp_id}", "experiments"))
        self._installed = True
        os.register_at_fork(after_in_child=self._after_fork)
        return len(self._patches)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        self._apply(True, 2)
        self._patches.clear()
        self._installed = False

    @contextlib.contextmanager
    def suspended(self):
        """Run the harness's own reads of program state untraced."""
        self._apply(True, 2)
        try:
            yield
        finally:
            self._apply(False, 3)

    # --- pool workers -----------------------------------------------------
    def record_workers(self, directory: "str | os.PathLike") -> None:
        """Make processes forked from now on report into ``directory``."""
        self._worker_dir = pathlib.Path(directory)
        self._worker_dir.mkdir(parents=True, exist_ok=True)

    def mark_timed(self) -> None:
        """Start the timed phase: reset here, and in workers at their next span."""
        self.reset()
        if self._worker_dir is not None:
            (self._worker_dir / "timed").touch()

    def _after_fork(self) -> None:
        if self._worker_dir is None or not self._installed:
            return
        self.stack.clear()
        self.reset()
        self._timed = False
        self._worker_file = self._worker_dir / f"worker-{os.getpid()}.jsonl"

    def _top_begin(self) -> None:
        from repro.obs.stats import solver_totals

        if not self._timed and (self._worker_dir / "timed").exists():
            self.reset()
            self._timed = True
        self._solver_before = solver_totals()

    def _top_end(self, start: float, end: float) -> None:
        self.busy.append((start, end))
        if self._worker_file is None:
            return
        from repro.obs.stats import solver_totals

        delta = solver_delta(self._solver_before or {}, solver_totals())
        for key, value in delta.items():
            self.solver[key] = self.solver.get(key, 0) + value
        if not self._timed:
            return
        n_busy, n_spans = self._flushed
        record = {
            "stats": {k: v for k, v in self.stats.items() if v[0]},
            "layer_of": {k: self.layer_of[k] for k, v in self.stats.items() if v[0]},
            "busy": self.busy[n_busy:],
            "spans": self.spans[n_spans:],
            "solver": self.solver,
        }
        self._flushed = (len(self.busy), len(self.spans))
        with open(self._worker_file, "a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")


def read_worker_records(directory: "str | os.PathLike") -> dict[int, dict]:
    """Merge each worker's timed-phase records into ``{pid: record}``.

    ``stats`` and ``solver`` are cumulative in every record, so the last
    record wins; ``busy`` and ``spans`` are appended record by record.
    """
    out: dict[int, dict] = {}
    for path in sorted(pathlib.Path(directory).glob("worker-*.jsonl")):
        merged = {"busy": [], "spans": []}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                for key in ("stats", "layer_of", "solver"):
                    merged[key] = record[key]
                merged["busy"].extend(tuple(b) for b in record["busy"])
                merged["spans"].extend(tuple(s) for s in record["spans"])
        if "stats" in merged:
            out[int(path.stem.split("-")[1])] = merged
    return out


def link_spans(spans: "list[tuple]") -> "list[tuple]":
    """Give closed spans ids and parent ids from their nesting.

    Takes ``(start, end, name, depth, req)`` tuples of one process and
    returns ``(id, parent_id, name, start, end, req)`` in start order; a
    span's parent is the innermost enclosing span one level up (0 when
    it is a root or its parent was not kept).
    """
    ordered = sorted(spans, key=lambda s: (s[0], s[3]))
    out, open_spans = [], []  # open_spans: (end, depth, id)
    for span_id, (start, end, name, depth, req) in enumerate(ordered, 1):
        while open_spans and (open_spans[-1][0] < start or open_spans[-1][1] >= depth):
            open_spans.pop()
        parent = open_spans[-1][2] if open_spans and open_spans[-1][1] == depth - 1 else 0
        out.append((span_id, parent, name, start, end, req))
        open_spans.append((end, depth, span_id))
    return out
