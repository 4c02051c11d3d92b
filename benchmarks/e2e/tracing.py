"""Outside-in instrumentation: decision stopwatch and layer spans.

Nothing under ``src/`` knows about this file.  Every measurement is taken
by swapping a *public* function of the program for a wrapper that stamps
the clock around the call, and swapping the original object back when the
measurement ends (``uninstall`` restores identity, not just behaviour).

Two levels:

* :func:`install_decision_stopwatch` wraps only the placement entry points
  (``PlacementPolicy.place`` of every concrete policy,
  ``NEATPolicy.place_coflow_flow`` / ``place_reducer``).  It is on for
  every timed iteration: it stopwatches each decision and gives the
  :class:`~yardstick.SliceClock` its hook for in-call slices.
* :class:`SpanTracer` additionally wraps the boundary of every layer and
  records one span ``(name, start, end, parent)`` per call.  It is on only
  in the traced iteration of a ``--trace 1`` run.

A layer's *self time* is its spans' duration minus the time covered by
their direct children, so layer self times sum to the root span exactly;
what cannot be pinned on a named layer is reported as ``unattributed``.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = "call"
YARDSTICK = "host.yardstick"
GC = "host.gc"
PLACEMENT = "placement"
UNATTRIBUTED = "unattributed"

#: module prefix -> layer, for callbacks handed to ``Engine.schedule*``
#: (longest prefix wins).  A callback defined elsewhere is unattributed.
CALLBACK_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.experiments", "runner"),
    ("repro.network", "network.fabric"),
    ("repro.daemons.bus", "daemons.bus"),
    ("repro.sim", "sim"),
)

#: (module, class or None, attribute names, layer).  ``*`` in a name is a
#: prefix match over the class's own public callables.  Every concrete
#: subclass that overrides a listed method is wrapped too.
SPAN_TARGETS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str], ...] = (
    ("repro.sim.engine", "Engine", ("run",), "sim"),
    ("repro.network.fabric", "NetworkFabric", ("submit",), "network.fabric"),
    ("repro.network.policies.base", "RateAllocator", ("allocate",), "alloc"),
    ("repro.daemons.bus", "MessageBus", ("call", "push"), "daemons.bus"),
    (
        "repro.daemons.network_daemon",
        "NetworkDaemon",
        ("handle",),
        "daemons.network_daemon",
    ),
    (
        "repro.daemons.placement_daemon",
        "TaskPlacementDaemon",
        ("place_*",),
        "daemons.placement_daemon",
    ),
    (
        "repro.predictor.flow_fct",
        "FlowFCTPredictor",
        ("fct", "link_objective", "objective", "predict_*"),
        "predictor",
    ),
    (
        "repro.predictor.coflow_cct",
        "CoflowCCTPredictor",
        ("cct", "link_objective", "objective", "predict_*"),
        "predictor",
    ),
    ("repro.predictor.state", None, ("link_state_from_flows",), "predictor"),
    (
        "repro.predictor.fabric_state",
        None,
        ("flow_link_state", "coflow_link_state"),
        "predictor",
    ),
    (
        "repro.coflow.tracking",
        "CoflowTracker",
        ("new_coflow", "submit_flow", "submit_coflow", "seal"),
        "coflow.tracker",
    ),
    ("repro.telemetry.trace", "JsonlTraceSink", ("emit",), "telemetry.trace"),
    (
        "repro.telemetry.causal",
        "CausalTracer",
        ("on_*", "note_*", "begin_*", "end_*"),
        "telemetry.causal",
    ),
    (
        "repro.telemetry.decisions",
        "DecisionLog",
        ("record", "note_completed"),
        "telemetry.decisions",
    ),
)

#: Placement entry points: ``place`` of every concrete subclass of the
#: base policy, plus NEAT's coflow-aware entry points.
DECISION_BASE = ("repro.placement.base", "PlacementPolicy")
DECISION_EXTRA = (
    ("repro.placement.neat", "NEATPolicy", "place_coflow_flow"),
    ("repro.placement.neat", "NEATPolicy", "place_reducer"),
)


def _subclasses(cls) -> List[type]:
    found, stack = [], [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found


def _import_program_packages() -> None:
    """Import every subpackage whose classes the wrappers look for, so
    ``__subclasses__`` sees the concrete policies and predictors."""
    for name in (
        "repro.placement",
        "repro.network",
        "repro.coflow",
        "repro.predictor",
        "repro.daemons",
        "repro.telemetry",
        "repro.experiments",
    ):
        importlib.import_module(name)


class Patches:
    """A reversible set of attribute swaps."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def swap(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def swap_function_everywhere(self, func, new) -> None:
        """Replace a module-level function in every ``repro`` module that
        holds a reference to it (``from x import f`` copies the binding)."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.swap(module, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# Decision stopwatch (always on while timing)
# ----------------------------------------------------------------------
def _decision_entry_points() -> List[Tuple[type, str]]:
    _import_program_packages()
    module, cls_name = DECISION_BASE
    base = getattr(importlib.import_module(module), cls_name)
    points = [
        (cls, "place") for cls in _subclasses(base) if "place" in cls.__dict__
    ]
    for module, cls_name, method in DECISION_EXTRA:
        cls = getattr(importlib.import_module(module), cls_name)
        points.append((cls, method))
    return points


def _candidate_count(method: str, args: tuple, kwargs: dict) -> int:
    if method == "place":
        request = args[0] if args else kwargs["request"]
        return len(request.candidates)
    if method == "place_coflow_flow":
        return len(args[3] if len(args) > 3 else kwargs["candidates"])
    return len(args[1] if len(args) > 1 else kwargs["candidates"])


def install_decision_stopwatch(
    on_decision: Callable[[int, int], None],
    tracer: "Optional[SpanTracer]" = None,
) -> Patches:
    """Wrap every placement entry point; returns the patches to restore.

    ``on_decision(start_ns, end_ns)`` is called after each *outermost*
    decision (a policy that delegates to another policy's ``place`` is
    one decision).  With a ``tracer`` each decision is also a span and
    its candidate count is tallied.
    """
    patches = Patches()
    depth = [0]

    def wrap(original, method: str):
        def decision(self, *args, **kwargs):
            if depth[0]:
                return original(self, *args, **kwargs)
            depth[0] = 1
            if tracer is not None:
                tracer.add_count(
                    "placement.candidates",
                    _candidate_count(method, args, kwargs),
                )
                index = tracer.enter(PLACEMENT)
            start = perf_counter_ns()
            try:
                return original(self, *args, **kwargs)
            finally:
                end = perf_counter_ns()
                depth[0] = 0
                if tracer is not None:
                    tracer.leave(index)
                on_decision(start, end)

        decision.__wrapped__ = original
        return decision

    for cls, method in _decision_entry_points():
        patches.swap(cls, method, wrap(cls.__dict__[method], method))
    return patches


# ----------------------------------------------------------------------
# Span tracer (traced iteration only)
# ----------------------------------------------------------------------
class SpanTracer:
    """In-memory span store plus the wrappers that feed it.

    Spans live in four parallel int64 arrays (name id, start ns, end ns,
    parent index), 32 bytes per span, and are written to disk once, by
    :meth:`save`, after the measurement.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self.objects: Dict[str, object] = {}
        self.missing: List[str] = []
        self._patches = Patches()
        self._gc_open: Optional[Tuple[int, int]] = None
        self._gc_pauses: List[Tuple[int, int, int]] = []

    # -- recording ------------------------------------------------------
    def _id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def enter(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def leave(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - wrappers always nest
            raise RuntimeError("span stack out of order")

    def add_count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, func, name: str, keep: Optional[str] = None):
        """``func`` wrapped in a span; ``keep`` remembers ``self``."""
        enter, leave, objects = self.enter, self.leave, self.objects

        def spanned(*args, **kwargs):
            if keep is not None:
                objects[keep] = args[0]
            index = enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                leave(index)

        spanned.__wrapped__ = func
        return spanned

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        _import_program_packages()
        for module_name, cls_name, patterns, layer in SPAN_TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module if cls_name is None else getattr(module, cls_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{cls_name}")
                continue
            if cls_name is None:
                for name in patterns:
                    func = getattr(module, name, None)
                    if func is None:
                        self.missing.append(f"{module_name}.{name}")
                        continue
                    self._patches.swap_function_everywhere(
                        func, self.span(func, layer)
                    )
                continue
            for cls in [owner] + _subclasses(owner):
                self._wrap_class(cls, patterns, layer)
        self._wrap_engine_schedule()
        gc.callbacks.append(self._on_gc)

    def _wrap_class(self, cls: type, patterns, layer: str) -> None:
        for attr, value in list(cls.__dict__.items()):
            if attr.startswith("_") or not callable(value):
                continue
            if isinstance(value, (staticmethod, classmethod, property, type)):
                continue
            if getattr(value, "__isabstractmethod__", False):
                continue
            if not any(
                attr == p or (p.endswith("*") and attr.startswith(p[:-1]))
                for p in patterns
            ):
                continue
            name = layer
            keep = None
            if layer == "alloc":
                # flow allocators live in repro.network, coflow ones in
                # repro.coflow: two layers behind one interface.
                family = "coflow" if ".coflow." in cls.__module__ else "network"
                name = f"{family}.alloc"
                value = self._counting_allocate(value, name)
            elif layer == "sim":
                keep = "engine"
            elif layer == "daemons.placement_daemon":
                keep = "placement_daemon"
            self._patches.swap(cls, attr, self.span(value, name, keep))

    def _counting_allocate(self, allocate, name: str):
        add = self.add_count

        def counted(self_, *args, **kwargs):
            add(f"{name}.flows", len(args[0] if args else kwargs["flows"]))
            return allocate(self_, *args, **kwargs)

        return counted

    def _wrap_engine_schedule(self) -> None:
        """Attribute every scheduled callback to the layer of the module
        that defined it; the push itself is engine (``sim``) time."""
        from repro.sim.engine import Engine

        tracer = self

        def layer_of(callback) -> str:
            module = getattr(callback, "__module__", None) or ""
            best = UNATTRIBUTED
            best_len = -1
            for prefix, layer in CALLBACK_LAYERS:
                if module.startswith(prefix) and len(prefix) > best_len:
                    best, best_len = layer, len(prefix)
            return best

        def wrap(original):
            def schedule(self_, when, callback, **kwargs):
                index = tracer.enter("sim")
                try:
                    return original(
                        self_,
                        when,
                        tracer.span(callback, layer_of(callback)),
                        **kwargs,
                    )
                finally:
                    tracer.leave(index)

            schedule.__wrapped__ = original
            return schedule

        for method in ("schedule", "schedule_at"):
            self._patches.swap(Engine, method, wrap(Engine.__dict__[method]))

    def _on_gc(self, phase: str, info: dict) -> None:
        # A collection can start at any allocation, also in the middle of
        # enter(); pauses are therefore kept aside and only turned into
        # spans (children of whatever was running) by uninstall().  The
        # harness's own gc.collect() between iterations runs outside every
        # span and is not the program's pause.
        if phase == "start":
            if self._stack:
                self._gc_open = (self._stack[-1], perf_counter_ns())
        elif self._gc_open is not None:
            parent, started = self._gc_open
            self._gc_pauses.append((parent, started, perf_counter_ns()))
            self._gc_open = None

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._patches.restore()
        ident = self._id(GC)
        for parent, started, ended in self._gc_pauses:
            self.name_id.append(ident)
            self.parent.append(parent)
            self.start.append(started)
            self.end.append(ended)
        self._gc_pauses.clear()

    # -- analysis -------------------------------------------------------
    def self_times(self) -> Dict[str, int]:
        """Self nanoseconds per span name: duration minus direct children."""
        return self_times(self.names, self.name_id, self.start, self.end, self.parent)

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for ident in self.name_id:
            name = self.names[ident]
            out[name] = out.get(name, 0) + 1
        return out

    def top_level_calls(self, name: str) -> int:
        """Spans called ``name`` whose parent is not also ``name``."""
        ident = self._name_ids.get(name)
        if ident is None:
            return 0
        ids, parents = self.name_id, self.parent
        return sum(
            1
            for i in range(len(ids))
            if ids[i] == ident and (parents[i] < 0 or ids[parents[i]] != ident)
        )

    def save(self, path: str) -> None:
        """Write the spans once: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.start)}
        with open(path, "wb") as fp:
            fp.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.name_id, self.start, self.end, self.parent):
                column.tofile(fp)


def load_spans(path: str):
    """Read a file written by :meth:`SpanTracer.save`:
    ``(names, name_id, start, end, parent)``."""
    with open(path, "rb") as fp:
        header = json.loads(fp.readline().decode("utf-8"))
        columns = []
        for _ in range(4):
            column = array("q")
            column.fromfile(fp, header["spans"])
            columns.append(column)
    return (header["names"], *columns)


def self_times(
    names: Sequence[str],
    name_id: Sequence[int],
    start: Sequence[int],
    end: Sequence[int],
    parent: Sequence[int],
) -> Dict[str, int]:
    """Self time per name; sums to the total duration of the root spans."""
    own = [end[i] - start[i] for i in range(len(start))]
    for i in range(len(start)):
        if parent[i] >= 0:
            own[parent[i]] -= end[i] - start[i]
    out: Dict[str, int] = {}
    for i, ident in enumerate(name_id):
        name = names[ident]
        out[name] = out.get(name, 0) + own[i]
    return out
