"""Hierarchical span profiler: attribute wall-clock to subsystems.

The profiler answers *where* the time of a run goes — allocator math vs.
component BFS vs. heap churn vs. predictor calls.  It is the one channel
that measures host wall time per subsystem and the only subscriber of
the probe's timed sections.  Spans form a tree (``engine.event``
contains ``placement.place`` contains ``predictor.fct``): each node's
inclusive time is what a flat per-subsystem total would show, and its
*exclusive* time is what a flame graph renders.

Usage::

    profiler = SpanProfiler()
    with profiler.span("fabric.recompute"):
        with profiler.span("alloc.fair"):
            ...
    profiler.as_dict()  # {"labels": {...}, "flame": {...}}

Determinism contract: spans record **wall-clock only** and never enter
simulation state, the metrics used by placement, or the deterministic
JSONL trace — a profiled run produces byte-identical completion records
and traces to an unprofiled one (asserted by the differential tests).

Disabled cost: profiling off is ``Telemetry.profiler is None`` — nothing
is composed into the probe (:mod:`repro.telemetry.probe`), so an
unprofiled timed section costs two ``is not None`` branches and never
enters a context manager.
"""

from __future__ import annotations

from contextvars import ContextVar
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "SpanProfiler",
    "current_profiler",
    "set_current_profiler",
    "render_profile",
]

#: Separator between labels in a flattened span path ("a;b;c").
PATH_SEP = ";"


class _SpanStats:
    """Accumulated timing of one node of the span tree."""

    __slots__ = ("calls", "inclusive", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.child = 0.0

    @property
    def exclusive(self) -> float:
        """Inclusive time minus the time spent in child spans."""
        return max(self.inclusive - self.child, 0.0)


class _Span:
    """One active span (context manager handed out by :meth:`span`)."""

    __slots__ = ("_profiler", "_label", "_token")

    def __init__(self, profiler: "SpanProfiler", label: str) -> None:
        self._profiler = profiler
        self._label = label
        self._token = 0

    def __enter__(self) -> "_Span":
        self._token = self._profiler.begin(self._label)
        return self

    def __exit__(self, *exc) -> None:
        self._profiler.end(self._token)


class SpanProfiler:
    """Parent/child span tree with per-path call counts and wall time.

    Spans are keyed by their full path from the root (a tuple of labels),
    so the same label under two different parents is two tree nodes —
    that is what makes the flame-style aggregation meaningful.  The tree
    is bounded by construction: the instrumented stack has a handful of
    nesting levels, and labels are drawn from a small fixed vocabulary.
    """

    __slots__ = ("_stats", "_stack")

    def __init__(self) -> None:
        self._stats: Dict[Tuple[str, ...], _SpanStats] = {}
        # Each frame is [path, child_seconds, start]: the child
        # accumulator rides on the stack so a parent still open when its
        # children pop does not lose their time (its stats node is only
        # created on pop).
        self._stack: List[list] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, label: str) -> _Span:
        """Context manager timing one section under the current parent."""
        return _Span(self, label)

    def begin(self, label: str) -> int:
        """Open a span under the current parent; returns its token."""
        stack = self._stack
        parent = stack[-1][0] if stack else ()
        stack.append([parent + (label,), 0.0, perf_counter()])
        return len(stack)

    def end(self, token: int) -> None:
        """Close the span :meth:`begin` opened with ``token``."""
        now = perf_counter()
        stack = self._stack
        # Spans opened above this one and never closed were abandoned by
        # an exception: drop them so the tree stays well nested.
        del stack[token:]
        path, child_seconds, start = stack.pop()
        elapsed = now - start
        stats = self._stats.get(path)
        if stats is None:
            stats = self._stats[path] = _SpanStats()
        stats.calls += 1
        stats.inclusive += elapsed
        stats.child += child_seconds
        if stack:
            stack[-1][1] += elapsed

    # ------------------------------------------------------------------
    # Probe points (repro.telemetry.probe): the span labels live here
    # ------------------------------------------------------------------
    def enter_event(self, label: str) -> int:
        # Scheduled callbacks carry a label ("fabric-completion", ...);
        # unlabeled events (workload arrivals, ad-hoc) pool together.
        return self.begin("engine.event." + (label or "unlabeled"))

    def enter_recompute(self, scoped: bool) -> int:
        return self.begin(
            "fabric.recompute.scoped" if scoped else "fabric.recompute.full"
        )

    def enter_expand(self) -> int:
        return self.begin("fabric.expand_component")

    def enter_alloc(self, allocator_name: str) -> int:
        return self.begin("alloc." + allocator_name)

    def enter_splice(self) -> int:
        return self.begin("fabric.splice")

    def enter_predict(self, coflow: bool) -> int:
        return self.begin("predictor.cct" if coflow else "predictor.fct")

    def enter_place(self) -> int:
        return self.begin("placement.place")

    exit_event = exit_recompute = exit_expand = exit_alloc = end
    exit_splice = exit_predict = exit_place = end

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Current nesting depth (0 when no span is open)."""
        return len(self._stack)

    def paths(self) -> List[Tuple[str, ...]]:
        """Every recorded span path, sorted."""
        return sorted(self._stats)

    def stats(self, path: Iterable[str]) -> Optional[_SpanStats]:
        """Stats for one exact path (``None`` if never recorded)."""
        return self._stats.get(tuple(path))

    def label_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-label aggregation across every position in the tree.

        A label's *inclusive* total only counts tree nodes that are not
        nested under the same label (recursion would double-count);
        *exclusive* totals sum everywhere.
        """
        totals: Dict[str, Dict[str, float]] = {}
        for path, stats in self._stats.items():
            label = path[-1]
            into = totals.setdefault(
                label,
                {"calls": 0, "inclusive_seconds": 0.0, "exclusive_seconds": 0.0},
            )
            into["calls"] += stats.calls
            into["exclusive_seconds"] += stats.exclusive
            if label not in path[:-1]:
                into["inclusive_seconds"] += stats.inclusive
        return {label: totals[label] for label in sorted(totals)}

    def as_dict(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """JSON-safe snapshot: flame (path-keyed) plus per-label totals."""
        flame = {}
        for path in sorted(self._stats):
            stats = self._stats[path]
            flame[PATH_SEP.join(path)] = {
                "calls": stats.calls,
                "inclusive_seconds": stats.inclusive,
                "exclusive_seconds": stats.exclusive,
            }
        return {"flame": flame, "labels": self.label_totals()}


#: Ambient profiler of the current thread (``None``: nothing installed).
#: Campaign workers install one so the cell implementations (which build
#: their own Telemetry) inherit it and the end-of-cell heartbeat can ship a
#: real spans snapshot.  A context variable, because in-process workers are
#: threads: each one's cells must see, and restore, only its own profiler.
_CURRENT: ContextVar[Optional[SpanProfiler]] = ContextVar(
    "repro_ambient_profiler", default=None
)


def current_profiler() -> Optional[SpanProfiler]:
    """The ambient profiler of this thread (``None`` when nothing
    installed one)."""
    return _CURRENT.get()


def set_current_profiler(
    profiler: Optional[SpanProfiler],
) -> Optional[SpanProfiler]:
    """Install ``profiler`` (or ``None``: none) as this thread's ambient
    profiler; returns the previous one so callers can restore it."""
    previous = _CURRENT.get()
    _CURRENT.set(profiler)
    return previous


def render_profile(snapshot: Dict, *, indent: str = "  ") -> str:
    """Render a :meth:`SpanProfiler.as_dict` snapshot as an aligned tree.

    One line per span path, indented by depth, with call count and
    inclusive/exclusive milliseconds — the text form of a flame graph.
    """
    flame = snapshot.get("flame", {})
    if not flame:
        return "(no spans recorded)"
    paths = sorted(tuple(key.split(PATH_SEP)) for key in flame)
    total = sum(
        flame[PATH_SEP.join(p)]["inclusive_seconds"]
        for p in paths
        if len(p) == 1
    )
    names = [indent * (len(p) - 1) + p[-1] for p in paths]
    width = max(len(n) for n in names)
    lines = []
    for name, path in zip(names, paths):
        stats = flame[PATH_SEP.join(path)]
        share = (
            f" {100.0 * stats['inclusive_seconds'] / total:5.1f}%"
            if total > 0
            else ""
        )
        lines.append(
            f"{name:<{width}}  calls={stats['calls']:<8d}"
            f" incl={stats['inclusive_seconds'] * 1e3:10.3f} ms"
            f" excl={stats['exclusive_seconds'] * 1e3:10.3f} ms{share}"
        )
    return "\n".join(lines)
