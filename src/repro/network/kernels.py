"""Batched numpy kernels for the water-filling rate allocators.

:func:`priority_fill` is the vectorized twin of
:func:`repro.network.policies.base.greedy_priority_fill`: it takes the
same ordered priority groups and per-link capacities and returns a
**bit-identical** rate map.

The reference's per-round cost is the bottleneck scan — a Python loop
over every link of the sharing component comparing equal shares, paid
again on every round.  The kernel keeps that array of per-link shares
as a contiguous float64 vector and replays the scan as a handful of
vectorized "epsilon chain hops" (first link beating the current
candidate by more than ``RATE_EPSILON``, repeated); membership counts
and residual capacities stay scalar bookkeeping, updated pointwise only
for the links a freeze actually touches.  Per round that turns an
O(links) interpreted loop into O(touched links) scalar work plus a few
C-speed array comparisons.

Byte-identity is by construction, not by tolerance.  Every float the
Python reference produces comes from one of four scalar expressions —

* ``share = residual / count``                      (bottleneck scan)
* ``share < bottleneck_share - RATE_EPSILON``       (epsilon tie-break)
* ``residual = max(0.0, residual - share * k)``     (per-round drain)
* ``rate = bottleneck_share``                       (freeze)

— and the kernel evaluates the *same* expressions on the same operands:
shares enter the float64 vector losslessly, numpy's elementwise float64
compare/divide are bit-identical to Python float semantics (IEEE-754,
no reassociation), and the chain-hop scan visits candidates in the same
first-seen link order with the same epsilon hysteresis, so every round
freezes the same flows at the same share.  The differential and golden
suites in ``tests/test_kernel_differential.py`` / ``tests/test_goldens.py``
lock this contract end-to-end (records, JSONL traces, causal traces).

Vectorization pays inside *large* priority groups (max-min fair over a
big sharing component); a strict-priority cascade (SRPT/FCFS over
all-distinct keys) is inherently sequential, and numpy array setup loses
to dict arithmetic there.  :func:`priority_fill` is the one place that
knows how a group is filled, and it picks from what it can see: the numpy
fill when numpy is importable and the group has at least
:data:`GROUP_CUTOFF` flows, in place for a group of one flow (the whole
of such a cascade), the scalar ``water_fill`` otherwise.  Safe because
all three are bit-identical and share one residual map, so groups can
mix fills within a single allocation.  Nothing selects a fill from
outside this module.

numpy is an optional dependency (the ``perf`` extra).  When it is not
importable, :data:`HAVE_NUMPY` is False and every group takes the
scalar fill — the simulator never requires it.  When it is, it is
imported by the first group that takes the numpy fill, not with this
module.
"""

from __future__ import annotations

from array import array as _f64buf
from importlib.util import find_spec
from itertools import accumulate
from typing import Dict, Iterable, List, Mapping, Sequence

from repro.network.flow import Flow, FlowId
from repro.network.policies.base import RATE_EPSILON, water_fill
from repro.topology.base import LinkId


def _numpy_importable() -> bool:
    try:
        return find_spec("numpy") is not None
    except ImportError:  # a finder may refuse numpy by raising
        return False


#: True when numpy can be imported here.  The import itself waits for
#: the first group that takes the kernel: a run that never has one
#: (every coflow policy, an SRPT cascade of singleton groups, a small
#: fabric) pays neither numpy's import time nor its memory, and
#: ``import repro`` costs what it does without numpy.
HAVE_NUMPY = _numpy_importable()

#: numpy, once :func:`_water_fill_numpy` has run.
_np = None

_INF = float("inf")

#: Priority groups smaller than this take the scalar fill: array setup
#: loses to dict arithmetic on the tiny groups priority cascades produce
#: (and on the small dirty components of incremental recomputes, p50 ~5
#: flows), while the outputs are bit-identical either way.  Measured
#: flat from 4 to 48 on both benchmark sides (EXPERIMENTS.md), so a
#: constant; tests patch it to force every group through one fill.
GROUP_CUTOFF = 16


def priority_fill(
    groups: Iterable[Sequence[Flow]],
    capacities: Mapping[LinkId, float],
) -> Dict[FlowId, float]:
    """Strict-priority water-filling, each group on its fastest fill
    (bit-identical twin of
    :func:`~repro.network.policies.base.greedy_priority_fill`).

    ``groups`` must be ordered highest priority first; equal-priority
    flows (same group) share fairly, lower groups water-fill the
    residual capacity left by higher ones.
    """
    cutoff = GROUP_CUTOFF if HAVE_NUMPY else _INF
    residual: Dict[LinkId, float] = dict(capacities)
    rates: Dict[FlowId, float] = {}
    for group in groups:
        size = len(group)
        if size >= cutoff:
            _water_fill_numpy(group, residual, rates)
        elif size == 1:
            _fill_one(group[0], residual, rates)
        else:
            water_fill(group, residual, rates)
    return rates


def _fill_one(
    flow: Flow, residual: Dict[LinkId, float], rates: Dict[FlowId, float]
) -> None:
    """``water_fill([flow], residual, rates)`` without its four dicts.

    Every link of the path has one member, so the scan's ``residual / 1``
    is the residual itself and the drain's ``share * 1`` the share: one
    epsilon chain over the path, one clamped drain per link.  An empty
    path, or one that lists a link twice (that link has two members),
    goes to ``water_fill``.
    """
    path = flow.path
    if not path or len(set(path)) != len(path):
        water_fill((flow,), residual, rates)
        return
    get = residual.get
    # While the reference has no bottleneck its share is inf, where
    # ``inf - RATE_EPSILON`` is inf: its first-link clause is this one.
    bottleneck_share = _INF
    for link_id in path:
        share = get(link_id, 0.0)
        if share < bottleneck_share - RATE_EPSILON:
            bottleneck_share = share
    if bottleneck_share == _INF:  # no bottleneck: rate 0, no drain
        rates[flow.flow_id] = 0.0
        return
    if bottleneck_share < 0.0:  # max(bottleneck_share, 0.0)
        bottleneck_share = 0.0
    rates[flow.flow_id] = bottleneck_share
    for link_id in path:
        left = get(link_id, 0.0) - bottleneck_share
        residual[link_id] = left if left > 0.0 else 0.0  # max(0.0, left)


#: For two shares both at or above this magnitude the reference's test
#: ``share < candidate - RATE_EPSILON`` is plain ``share < candidate``:
#: floats >= 2**24 are spaced at least 2**-28 > 2e-9 apart, so
#: subtracting 1e-9 never moves ``candidate`` past another such float.
#: (In [2**23, 2**24) the spacing is 2**-29 < 2e-9: ``candidate - 1e-9``
#: rounds to the float *below* ``candidate``, so the reference does not
#: hop to an adjacent-float share while ``argmin`` would.)  When the
#: minimum share clears the floor, the epsilon-improvement chain
#: therefore ends at the *first occurrence of the minimum* — exactly
#: ``argmin`` — and the scan collapses to one C call.  Below it
#: (drained links, tiny residuals) the chain is replayed hop by hop.
_NEAR_TIE_FLOOR = float(2**24)

#: Process-wide link-id interning for the kernel: maps each LinkId to a
#: stable small int so per-flow paths cache as numpy index arrays on the
#: Flow objects themselves.  Append-only; the ints are internal identity
#: only (scan order is recomputed per call from first-seen order), so
#: the registry never influences results.
_LINK_INTERN: Dict[LinkId, int] = {}
_LINK_NAMES: List[LinkId] = []


def _flow_cols(flow: Flow) -> "object":
    """The flow's path as a cached array of interned link ints.

    The cache is keyed on the path tuple's identity: a reroute swaps
    ``flow.path`` and must not keep allocating on the old links.
    """
    cached = getattr(flow, "_kernel_cols", None)
    if cached is None or cached[0] is not flow.path:
        intern = _LINK_INTERN
        ids = []
        for link_id in flow.path:
            gid = intern.get(link_id)
            if gid is None:
                gid = len(_LINK_NAMES)
                intern[link_id] = gid
                _LINK_NAMES.append(link_id)
            ids.append(gid)
        cached = (flow.path, _np.asarray(ids, dtype=_np.intp))
        flow._kernel_cols = cached
    return cached[1]


def _water_fill_numpy(
    flows: Sequence[Flow],
    residual: Dict[LinkId, float],
    rates: Dict[FlowId, float],
) -> None:
    """One max-min water-fill round-for-round with the reference.

    Mutates ``residual`` and ``rates`` exactly like
    :func:`~repro.network.policies.base.water_fill`.
    """
    global _np
    if _np is None:
        import numpy as _np
    np = _np

    # ------------------------------------------------------------------
    # Build phase (vectorized): concatenate the flows' interned paths
    # and assign every distinct link a column in first-seen order — the
    # exact order the reference's ``members`` dict iterates during its
    # bottleneck scan.
    # ------------------------------------------------------------------
    objs: List[Flow] = []
    arrs = []
    lengths: List[int] = []
    for flow in flows:
        rates[flow.flow_id] = 0.0
        if not flow.path:
            continue
        cols = _flow_cols(flow)
        objs.append(flow)
        arrs.append(cols)
        lengths.append(len(cols))
    n_flows = len(objs)
    if n_flows == 0:
        return

    cat = np.concatenate(arrs)
    total = cat.size
    # Column assignment over *dense* global-id scratch arrays (the
    # intern table is small and append-only, so sized-to-registry
    # scratch beats a sort-based ``np.unique``).  Duplicate-index fancy
    # assignment applies writes in order, so scattering reversed
    # positions leaves each link's *first* occurrence — giving columns
    # in exactly the first-seen order the reference's ``members`` dict
    # iterates during its bottleneck scan.
    n_global = len(_LINK_NAMES)
    count_g = np.bincount(cat, minlength=n_global)
    present = np.flatnonzero(count_g)
    pos_g = np.empty(n_global, dtype=np.intp)
    pos_g[cat[::-1]] = np.arange(total - 1, -1, -1)
    order = np.argsort(pos_g[present], kind="stable")
    gids = present[order]  # col -> global link id, first-seen order
    n_links = gids.size
    rank_g = np.empty(n_global, dtype=np.intp)
    rank_g[gids] = np.arange(n_links)
    cols_cat = rank_g[cat]
    counts_arr = count_g[gids]

    # Residuals and shares live in ``array.array`` buffers: the fill
    # loop updates them with plain Python float arithmetic (bit-exact
    # C doubles, no numpy-scalar boxing overhead) while zero-copy numpy
    # views serve the vectorized argmin/chain scans.
    links: List[LinkId] = [_LINK_NAMES[g] for g in gids.tolist()]
    res = _f64buf("d", [residual.get(link_id, 0.0) for link_id in links])
    # Equal share per link; elementwise float64 division is
    # bit-identical to the reference's scalar divisions.
    shares_arr = np.frombuffer(res) / counts_arr
    shares_buf = _f64buf("d", shares_arr.tobytes())
    shares = np.frombuffer(shares_buf)
    counts: List[int] = counts_arr.tolist()

    # Per-column member positions (which flows cross each link), as one
    # flat list sliced by per-column offsets; only bottleneck columns
    # are ever consulted.  Per-flow column paths slice the same flat
    # ``cols_list`` by flow offsets.
    flowidx = np.repeat(np.arange(n_flows, dtype=np.intp), lengths)
    by_col = flowidx[np.argsort(cols_cat, kind="stable")].tolist()
    cols_list: List[int] = cols_cat.tolist()
    col_off: List[int] = [0, *accumulate(counts)]
    flow_off: List[int] = [0, *accumulate(lengths)]

    # ------------------------------------------------------------------
    # Fill phase: one round per bottleneck, exactly like the reference.
    # ------------------------------------------------------------------
    inf = float("inf")
    alive = [True] * n_flows
    flow_ids = [flow.flow_id for flow in objs]
    argmin = shares.argmin  # bound-method hoist: one call per round
    remaining = n_flows
    first_valid = 0  # counts only ever decrease, so this only advances
    while remaining:
        while first_valid < n_links and counts[first_valid] <= 0:
            first_valid += 1
        if first_valid == n_links:
            break
        idx = int(argmin())
        share = shares_buf[idx]  # buffer getitem -> plain Python float
        if share == inf:  # no bottleneck: rates stay 0.0, nothing drains
            break
        if share < _NEAR_TIE_FLOOR:
            # Above the floor the reference's chain ends at the first
            # occurrence of the minimum — exactly what argmin returned
            # (see _NEAR_TIE_FLOOR).  Below it,
            # replay the epsilon-improvement chain: the reference walks
            # links in first-seen order and moves its candidate only on
            # a > RATE_EPSILON improvement, so the bottleneck is the
            # end of that chain, not the plain argmin.  Each hop finds
            # the first later link beating the candidate — one C-speed
            # compare over the tail.
            idx = first_valid
            share = shares_buf[idx]
            while idx + 1 < n_links:
                better = shares[idx + 1:] < (share - RATE_EPSILON)
                hop = int(better.argmax())
                if not better[hop]:
                    break
                idx += 1 + hop
                share = shares_buf[idx]
        if share < 0.0:
            share = 0.0

        # Freeze every unfrozen flow crossing the bottleneck (the
        # alive check also dedupes flows listing a link twice), then
        # apply the reference's single-expression drain per touched
        # link and refresh that link's cached share.
        frozen: List[int] = []
        for pos in by_col[col_off[idx]:col_off[idx + 1]]:
            if alive[pos]:
                alive[pos] = False
                frozen.append(pos)
        if not frozen:  # pragma: no cover - counts>0 implies a flow
            break
        freeze_counts: Dict[int, int] = {}
        fc_get = freeze_counts.get
        for pos in frozen:
            rates[flow_ids[pos]] = share
            for col in cols_list[flow_off[pos]:flow_off[pos + 1]]:
                freeze_counts[col] = fc_get(col, 0) + 1
        remaining -= len(frozen)
        for col, k in freeze_counts.items():
            count = counts[col] - k
            counts[col] = count
            drained = max(0.0, res[col] - share * k)
            res[col] = drained
            shares_buf[col] = drained / count if count > 0 else inf
        counts[idx] = 0  # members.pop(bottleneck)
        shares_buf[idx] = inf

    for col, link_id in enumerate(links):
        residual[link_id] = res[col]
