"""Host-speed yardstick and the arithmetic that turns wall time into
reference time.

The box this benchmark runs on is shared: the same replay of the same
trace reads 3.6-9.9 s depending on what the neighbours are doing, and the
speed changes on every time scale from 100 ms to minutes.  A raw wall time
therefore measures the neighbours.  The fix is a *yardstick*: a fixed piece
of pure-interpreter work that lives in this file (no ``repro`` import, no
numpy, so no later optimisation of the program can change it), run in short
slices *inside* the timed call.  Each stretch of program time between two
slices is divided by the duration of those slices, so the result is "how
many yardsticks did this cost", which we scale by the constant
:data:`Y_REF_MS` into milliseconds on a reference host where one slice
takes exactly ``Y_REF_MS``.

The yardstick is a miniature of the program's own hot loop (string-keyed
dicts of slotted objects, sorting with tuple keys, ``min``/``sum`` over
generators, a heap, small-object allocation) walking a working set larger
than L2, because what the neighbours take away is execution bandwidth and
code with another instruction mix loses a different share of it: measured
against a 160-host replay under 1-3x interference, a tight float/dict loop
slows 1/0.83 as much as the program, a cache-missing pointer chase 1/1.9,
and this mini-simulation 1/0.98.
"""

from __future__ import annotations

from heapq import heappop, heappush
from statistics import median
from time import perf_counter_ns
from typing import Dict, List, Sequence, Tuple

#: Duration of one slice on the reference host, in milliseconds.  Chosen as
#: the typical slice duration on the development box when it is quiet, so a
#: reference millisecond is roughly a quiet wall-clock millisecond there.
Y_REF_MS = 1.25

_NUM_LINKS = 640
_NUM_FLOWS = 3200
_PATH_LEN = 4
_DIRTY_LINKS = 10


class _Flow:
    __slots__ = ("fid", "path", "size", "remaining", "rate")

    def __init__(self, fid: int, path: Tuple[str, ...], size: float) -> None:
        self.fid = fid
        self.path = path
        self.size = size
        self.remaining = size
        self.rate = 0.0


class Yardstick:
    """A fixed mini fluid-network recompute, one *slice* per call.

    The structure is regular (every link carries the same number of flows,
    every flow crosses ``_PATH_LEN`` links), so every slice does the same
    amount of work while the cursor walks the whole working set.  ``reset``
    rewinds the cursor, so slice *k* of every iteration is the same work.
    """

    def __init__(self) -> None:
        links = [f"l{i:04d}>{(i * 7) % _NUM_LINKS:04d}" for i in range(_NUM_LINKS)]
        self._links = links
        self._capacity: Dict[str, float] = {link: 1e9 for link in links}
        flows: List[_Flow] = []
        state = 12345
        for fid in range(_NUM_FLOWS):
            # Regular wiring: strides coprime to _NUM_LINKS spread each
            # flow over four distinct links and load every link equally.
            path = tuple(
                links[(fid + hop * (hop * 53 + 97)) % _NUM_LINKS]
                for hop in range(_PATH_LEN)
            )
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            flows.append(_Flow(fid, path, 1e5 + (state % 100000) * 1e4))
        self._flows = flows
        self._by_link: Dict[str, Dict[int, _Flow]] = {}
        for flow in flows:
            for link in flow.path:
                self._by_link.setdefault(link, {})[flow.fid] = flow
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0
        for flow in self._flows:
            flow.remaining = flow.size

    def __call__(self) -> float:
        links = self._links
        start = self._cursor
        self._cursor = (start + _DIRTY_LINKS) % _NUM_LINKS
        # Expand the dirty links to the flows crossing them.
        component: Dict[int, _Flow] = {}
        for link in links[start : start + _DIRTY_LINKS]:
            for fid, flow in self._by_link[link].items():
                component[fid] = flow
        flows = [component[fid] for fid in sorted(component)]
        # Priority fill: smallest remaining first, equal split of residual.
        residual: Dict[str, float] = {}
        members: Dict[str, int] = {}
        capacity = self._capacity
        for flow in flows:
            for link in flow.path:
                residual[link] = capacity[link]
                members[link] = members.get(link, 0) + 1
        rates: Dict[int, float] = {}
        events: List[Tuple[float, int]] = []
        for flow in sorted(flows, key=lambda f: (f.remaining, f.fid)):
            share = min(residual[link] / members[link] for link in flow.path)
            rates[flow.fid] = share
            for link in flow.path:
                residual[link] = max(0.0, residual[link] - share)
                members[link] -= 1
            heappush(events, (flow.remaining / (share + 1.0), flow.fid))
        # Splice rates, advance progress, score a fair-share prediction.
        total = 0.0
        head = flows[:8]
        for flow in flows:
            flow.rate = rates[flow.fid]
            flow.remaining -= min(flow.remaining * 0.01, flow.rate * 1e-6)
            if flow.remaining < 1e4:
                flow.remaining = flow.size
            total += sum(min(other.remaining, flow.remaining) for other in head)
        while len(events) > 4:
            total += heappop(events)[0]
        return total


class SliceClock:
    """Runs yardstick slices and keeps every timestamp of one timed call.

    ``begin``/``end`` bracket the call with one slice each; ``decision`` is
    called by the wrapper on the program's placement entry points with the
    decision's start and end stamps and runs a slice after every
    ``every``-th decision.  All stamps are ``perf_counter_ns`` integers.
    """

    def __init__(self, yardstick: Yardstick, every: int) -> None:
        if every < 1:
            raise ValueError(f"slice period must be >= 1, got {every!r}")
        self._yardstick = yardstick
        self._every = every
        self.slices: List[Tuple[int, int]] = []
        self.decisions: List[Tuple[int, int]] = []
        self.call_start = 0
        self.call_end = 0

    def _slice(self) -> None:
        start = perf_counter_ns()
        self._yardstick()
        self.slices.append((start, perf_counter_ns()))

    def begin(self) -> None:
        self._yardstick.reset()
        self._slice()
        self.call_start = perf_counter_ns()

    def decision(self, start: int, end: int) -> None:
        self.decisions.append((start, end))
        if len(self.decisions) % self._every == 0:
            self._slice()

    def end(self) -> None:
        self.call_end = perf_counter_ns()
        self._slice()


def reference_times(
    call_start: int,
    call_end: int,
    slices: Sequence[Tuple[int, int]],
    decisions: Sequence[Tuple[int, int]],
) -> Tuple[List[float], List[float]]:
    """Reference milliseconds of each stretch of the call and each decision.

    ``slices`` must start with one slice that ended before ``call_start``
    and end with one that started after ``call_end``; the others lie inside
    the call.  They cut the call into *stretches*; each stretch (slice time
    excluded) is divided by the mean of its two bounding slices and scaled
    by :data:`Y_REF_MS`, so a host that changes speed in the middle of the
    call is followed piecewise.  The call's reference time is the sum of
    the stretches.  Each decision is scaled like the stretch it started in.
    """
    if len(slices) < 2:
        raise ValueError("need a slice before and after the call")
    if slices[0][1] > call_start or slices[-1][0] < call_end:
        raise ValueError("first/last slice must bracket the call")
    stretches: List[float] = []
    per_decision: List[float] = []
    cursor = 0
    for (a_start, a_end), (b_start, b_end) in zip(slices, slices[1:]):
        lo = max(a_end, call_start)
        hi = min(b_start, call_end)
        scale = Y_REF_MS / (((a_end - a_start) + (b_end - b_start)) / 2.0)
        stretches.append((hi - lo) * scale)
        while cursor < len(decisions) and decisions[cursor][0] < hi:
            d_start, d_end = decisions[cursor]
            per_decision.append((d_end - d_start) * scale)
            cursor += 1
    if cursor != len(decisions):
        raise ValueError("a decision started outside the call")
    return stretches, per_decision


def median_columns(rows: Sequence[Sequence[float]]) -> List[float]:
    """Column-wise median of equally long rows.

    The rows are the stretches (or decisions) of a run's pinned iterations:
    column *k* is the same piece of work every time, so its median over
    the iterations drops the iteration in which the host stalled there.
    """
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("iterations differ in length: inputs are not pinned")
    return [median(column) for column in zip(*rows)]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank (higher) percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)  # ceil
    return ordered[max(int(rank) - 1, 0)]
