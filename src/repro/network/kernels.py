"""Batched numpy kernels for the water-filling rate allocators.

:func:`priority_fill` is the vectorized twin of
:func:`repro.network.policies.base.greedy_priority_fill`: same ordered
priority groups and link capacities in, a **bit-identical** rate map out.

The reference pays a Python loop over every link of the component on
every round.  The kernel keeps the per-link shares as one float64 vector
and replays that scan as a few vectorized "epsilon chain hops" (first
link beating the candidate by more than ``RATE_EPSILON``, repeated);
counts and residuals are updated only for the links a freeze touches.

Byte-identity is by construction, not by tolerance.  Every float the
Python reference produces comes from one of four scalar expressions —

* ``share = residual / count``                      (bottleneck scan)
* ``share < bottleneck_share - RATE_EPSILON``       (epsilon tie-break)
* ``residual = max(0.0, residual - share * k)``     (per-round drain)
* ``rate = bottleneck_share``                       (freeze)

— and the kernel evaluates the *same* expressions on the same operands
(IEEE-754 float64, no reassociation, candidates in the reference's
first-seen link order with the same epsilon hysteresis).  It evaluates
*fewer* of them where that cannot move a float, by two reductions it
arms from what it sees in the group:

* *Slack links* (:func:`_binding_columns`).  Precondition: the group is
  the last of its :func:`priority_fill` and every entry share is at
  least ``2 * _NEAR_TIE_FLOOR``.  A link whose residual clears, by
  :data:`_SLACK_MARGIN`, all its flows could ever be given is never a
  round's bottleneck: no rate reads it, its column is dropped.  When the
  precondition fails (a later group reads the residuals, or a share low
  enough for the epsilon chain to start on any column) all stay.
* *Exact levels* (:func:`_exact_level`).  Precondition: the minimum
  share is integer-valued and at or above the floor, every live
  residual is below ``2**53``, every column tied at it holds exactly
  ``share * count``.  The reference's next rounds are then those
  columns one by one, every product and drain exact, so one round
  freezes them all.  When it fails the round freezes one column.

``tests/test_kernel_differential.py`` and ``tests/test_goldens.py`` lock
the contract: records and traces, ``==`` on rates and on the residuals
every non-final group leaves.

:func:`priority_fill` is the one place that knows how a group is filled,
and it picks from what it can see: the numpy fill when numpy is
importable and the group has at least :data:`GROUP_CUTOFF` flows (array
setup loses to dict arithmetic below it), in place for a group of one
flow (the whole of an SRPT/FCFS cascade), the scalar ``water_fill``
otherwise.  All three are bit-identical and share one residual map, so
groups can mix fills within an allocation.  Nothing selects a fill from
outside this module.

numpy is optional (the ``perf`` extra): when it cannot be imported
every group takes the scalar fill; when it can, the first group that
takes the numpy fill imports it, not this module.
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
#: loses to dict arithmetic on the tiny groups priority cascades and
#: small dirty components produce.  Measured flat from 4 to 48 on both
#: benchmark sides (EXPERIMENTS.md), so a constant; tests patch it to
#: force every group through one fill.
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
    groups = list(groups)
    final = len(groups) - 1  # nobody reads the residuals it leaves
    residual: Dict[LinkId, float] = dict(capacities)
    rates: Dict[FlowId, float] = {}
    for index, group in enumerate(groups):
        size = len(group)
        if size >= cutoff:
            _water_fill_numpy(group, residual, rates, index == final)
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


#: A link is slack only when its residual, shrunk by this factor, still
#: exceeds its demand: 2**-20 covers the rounding of the demand sum and
#: of every drain the reference would have applied (each relative
#: 2**-53, at most two per member flow) for any group below 2**30 flows.
_SLACK_MARGIN = 1.0 - 2.0**-20

#: Below this a float's unit in the last place is at most 1, so taking an
#: integer-valued drain from it is exact.
_EXACT_BELOW = float(2**53)


def _binding_columns(res, shares, cols_cat, flowidx, sizes):
    """Mask of the columns of a *last* group that can ever bind; None
    unless every entry share is at least ``2 * _NEAR_TIE_FLOOR``.

    No flow's rate exceeds the tightest entry residual on its path, so a
    link whose residual clears the sum of those bounds over its members
    (its demand) by :data:`_SLACK_MARGIN` keeps a share strictly above
    that of the tightest link of one of its own unfrozen members: it is
    never the first minimum.  Above the doubled floor it is also too
    large to move the sub-floor epsilon chain, which starts on the first
    live column whatever its share.
    """
    if shares.min() < 2 * _NEAR_TIE_FLOOR:
        return None
    starts = _np.cumsum(sizes) - sizes
    tightest = _np.minimum.reduceat(res[cols_cat], starts)
    demand = _np.bincount(cols_cat, weights=tightest[flowidx])
    return demand >= res * _SLACK_MARGIN


def _exact_level(share, shares, res, counts):
    """The columns tied at the minimum ``share`` when the reference's
    next rounds are exactly those columns one by one, else None.

    Asked only while every live residual is below :data:`_EXACT_BELOW`.
    For an integer-valued ``share`` whose tied columns each hold exactly
    ``share * count``, every ``share * k`` and every drain is an exact
    integer step: tied columns stay at exactly ``share`` until they
    empty, the rest stay strictly above it.
    """
    if not share.is_integer():
        return None
    tied = _np.flatnonzero(shares == share).tolist()
    if len(tied) > 1 and all(res[c] == share * counts[c] for c in tied):
        return tied
    return None


def _water_fill_numpy(
    flows: Sequence[Flow],
    residual: Dict[LinkId, float],
    rates: Dict[FlowId, float],
    last: bool = False,
) -> None:
    """One max-min water-fill, rate for rate with the reference.

    Mutates ``rates`` exactly like
    :func:`~repro.network.policies.base.water_fill`, and ``residual``
    too unless ``last`` says no group follows to read it.
    """
    global _np
    if _np is None:
        import numpy as _np
    np = _np

    # Build phase (vectorized): concatenate the flows' interned paths
    # and assign every distinct link a column in first-seen order — the
    # exact order the reference's ``members`` dict iterates during its
    # bottleneck scan.
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
    # Column assignment over *dense* global-id scratch arrays (the
    # intern table is small and append-only, so sized-to-registry
    # scratch beats a sort-based ``np.unique``).  Duplicate-index fancy
    # assignment applies writes in order, so scattering reversed
    # positions leaves each link's *first* occurrence.
    n_global = len(_LINK_NAMES)
    count_g = np.bincount(cat, minlength=n_global)
    present = np.flatnonzero(count_g)
    pos_g = np.empty(n_global, dtype=np.intp)
    pos_g[cat[::-1]] = np.arange(cat.size - 1, -1, -1)
    # col -> global link id, first-seen order
    gids = present[np.argsort(pos_g[present], kind="stable")]
    rank_g = np.empty(n_global, dtype=np.intp)
    n_links = gids.size
    rank_g[gids] = np.arange(n_links)
    cols_cat = rank_g[cat]
    counts_arr = count_g[gids]
    links: List[LinkId] = [_LINK_NAMES[g] for g in gids.tolist()]
    res_arr = np.array([residual.get(link_id, 0.0) for link_id in links])
    # Equal share per link; elementwise float64 division is
    # bit-identical to the reference's scalar divisions.
    shares_arr = res_arr / counts_arr
    sizes = np.array(lengths)
    flowidx = np.repeat(np.arange(n_flows, dtype=np.intp), sizes)

    # Prune phase: a last group fills over its binding columns only; a
    # dropped column is left like one the reference has emptied.
    keep = None
    if last:
        keep = _binding_columns(res_arr, shares_arr, cols_cat, flowidx, sizes)
    if keep is not None:
        on_kept = keep[cols_cat]
        cols_cat, flowidx = cols_cat[on_kept], flowidx[on_kept]
        lengths = np.bincount(flowidx).tolist()
        counts_arr = np.where(keep, counts_arr, 0)
        shares_arr = np.where(keep, shares_arr, _INF)

    # Residuals and shares live in ``array.array`` buffers: the fill
    # loop updates them with plain Python float arithmetic (bit-exact
    # C doubles, no numpy-scalar boxing overhead) while zero-copy numpy
    # views serve the vectorized argmin/chain scans.
    res = _f64buf("d", res_arr.tobytes())
    shares_buf = _f64buf("d", shares_arr.tobytes())
    shares = np.frombuffer(shares_buf)
    counts: List[int] = counts_arr.tolist()
    inf = _INF
    # Whether every finite residual a drain can touch is below 2**53.
    exact = not (res_arr[shares_arr < inf] >= _EXACT_BELOW).any()

    # Per-column member positions (which flows cross each link) and
    # per-flow column paths, each one flat list sliced by offsets.
    by_col = flowidx[np.argsort(cols_cat, kind="stable")].tolist()
    cols_list: List[int] = cols_cat.tolist()
    col_off: List[int] = [0, *accumulate(counts)]
    flow_off: List[int] = [0, *accumulate(lengths)]

    # Fill phase: one round per bottleneck level.
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
        level = None
        if share < _NEAR_TIE_FLOOR:
            # Above the floor the reference's chain ends where argmin
            # did (see _NEAR_TIE_FLOOR).  Below it, replay the chain:
            # the reference walks links in first-seen order and moves
            # its candidate only on a > RATE_EPSILON improvement.  Each
            # hop is one C-speed compare over the tail.
            idx = first_valid
            share = shares_buf[idx]
            while idx + 1 < n_links:
                better = shares[idx + 1:] < (share - RATE_EPSILON)
                hop = int(better.argmax())
                if not better[hop]:
                    break
                idx += 1 + hop
                share = shares_buf[idx]
        elif exact:  # the reference's next rounds may all sit here
            level = _exact_level(share, shares, res, counts)
        if share < 0.0:
            share = 0.0

        # Freeze every unfrozen flow crossing a bottleneck (the alive
        # check also dedupes flows listing a link twice), then apply the
        # reference's one-expression drain per touched link.
        frozen: List[int] = []
        for col in level or (idx,):
            for pos in by_col[col_off[col]:col_off[col + 1]]:
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

    if not last:
        for col, link_id in enumerate(links):
            residual[link_id] = res[col]
