"""One max-min fill for every rate allocator.

The paper's schedulers use one primitive twice: fair sharing (DCTCP) is a
max-min fair allocator, and Varys / SCF are MADD followed by a max-min
back-fill.  This module holds that fill in its two data layouts — the
LinkId-keyed reference :func:`~repro.network.policies.base.water_fill`
(in ``policies.base``) and the int-column :func:`backfill` — and the
strict-priority cascade the flow policies hand their groups to.

:func:`priority_fill` gives the rate map of ``water_fill`` run on each
priority group in order (the test-side reference cascade), bit for bit.
It is the one place that knows how a group is filled, and it picks from
what it can see:

* the *last* group, when it has at least :data:`GROUP_CUTOFF` flows, takes
  the column fill (:func:`_fill_columns`): :func:`link_columns` interns its
  links, every column :func:`can_bind` rejects is dropped, and
  :func:`backfill` fills the rest from rates of 0.0;
* a group of one flow (the whole of an SRPT / FCFS cascade) is filled in
  place (:func:`_fill_one`);
* every other group takes ``water_fill``.

All three share one residual map, so groups can mix fills within an
allocation.  Nothing selects a fill from outside this module.  Given the
fabric's memo, a cascade of one-flow groups re-fills only the flows an
event reaches (:func:`refill`), with :func:`_fill_one`.

Byte-identity is by construction.  Every float the reference produces
comes from the same four scalar expressions — ``residual / count``, the
epsilon tie-break ``share < bottleneck_share - RATE_EPSILON``, the clamped
drain ``max(0.0, residual - share * k)`` and the freeze ``rate = share`` —
and :func:`backfill` evaluates them on the same operands in the same
order: columns in first-seen order, crossers in flow order, one drain per
touched column per round.  Its two extra branches (a level at or below
``RATE_EPSILON`` credits nothing; the entry sweep drops the flows behind
0.0 shares) cannot fire once every share is at least :data:`ARGMIN_FLOOR`,
which is the column fill's precondition.  Above it, one reduction makes
the column fill cheaper than the reference without moving a float: a
*slack* link, whose residual clears its members' demand (:func:`can_bind`),
is never the first minimum, so a last group drops its column (the argument
is DESIGN.md §5.2's, "Slack links").

``tests/test_kernel_differential.py`` and ``tests/test_goldens.py`` lock
the contract: records and traces, ``==`` on rates.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain
from operator import truediv
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.network.flow import Flow, FlowId
from repro.network.policies.base import RATE_EPSILON, RateAllocator, water_fill
from repro.topology.base import LinkId

_INF = float("inf")

#: A last group smaller than this takes ``water_fill``: the column set-up
#: loses to dict arithmetic on the small dirty components the binding
#: closure hands a fair fill.  Sending every last group of two or more
#: flows to the column fill cost +2.7% on ``fig5_fair_neat``
#: (EXPERIMENTS.md "PR 31"), so a constant; tests patch it to force every
#: last group through one fill.
GROUP_CUTOFF = 16

#: A last group whose entry shares are all at or above this keeps them
#: there to the end (shares only rise): for two shares both at or above
#: ``2**24`` the reference's ``share < candidate - RATE_EPSILON`` is plain
#: ``share < candidate`` (floats there are spaced at least
#: ``2**-28 > 2e-9`` apart), so its epsilon chain ends at the first
#: occurrence of the minimum, and no slack link is ever that.  Doubled, so
#: that a slack share is also too large to move the chain below the floor.
ARGMIN_FLOOR = float(2**25)

#: A link is slack only when its residual, shrunk by this factor, still
#: exceeds its demand: 2**-20 covers the rounding of the demand sum and
#: of every drain the reference would have applied (each relative
#: 2**-53, at most two per member flow) for any group below 2**30 flows.
_SLACK_MARGIN = 1.0 - 2.0**-20


def can_bind(residual: float, bounds: Iterable[float]) -> bool:
    """The slack test: can a link with entry ``residual`` bind when its
    members' tightest entry residuals are ``bounds``?  Their demand is
    folded left to right from 0.0 (no compensated ``sum``), so the fabric's
    binding closure and the column fill take the same floats."""
    demand = 0.0
    for bound in bounds:
        demand += bound
    return demand >= residual * _SLACK_MARGIN


def priority_fill(
    groups: Iterable[Sequence[Flow]],
    capacities: Mapping[LinkId, float],
) -> Dict[FlowId, float]:
    """Strict-priority water-filling, each group on its fastest fill
    (bit-identical to ``water_fill`` on each group in turn).

    ``groups`` must be ordered highest priority first; equal-priority
    flows (same group) share fairly, lower groups water-fill the
    residual capacity left by higher ones.
    """
    groups = list(groups)
    final = len(groups) - 1  # nobody reads the residuals it leaves
    residual: Dict[LinkId, float] = dict(capacities)
    rates: Dict[FlowId, float] = {}
    for index, group in enumerate(groups):
        size = len(group)
        if index == final and size >= GROUP_CUTOFF:
            _fill_columns(group, residual, rates)
        elif size == 1:
            _fill_one(group[0], residual, rates)
        else:
            water_fill(group, residual, rates)
    return rates


class GroupFill(RateAllocator):
    """A flow policy that names its priority groups, highest first, as
    ``_groups(flows)``: its allocation is their :func:`priority_fill`, or,
    given the fabric's ``memo`` and one flow per group, their :func:`refill`."""

    def allocate(
        self, flows: Sequence[Flow], capacities: Mapping[LinkId, float], memo=None
    ) -> Dict[FlowId, float]:
        groups = self._groups(flows)
        if memo is not None:
            if len(groups) == len(flows):
                return refill(groups, capacities, *memo)
            memo[2].update(memo[3])  # a group fills jointly: all live next
        return priority_fill(groups, capacities)


def refill(
    groups: Sequence[Sequence[Flow]], capacities: Mapping[LinkId, float],
    fills: Dict[FlowId, list], rates: Mapping[FlowId, float],
    changed: Set[LinkId], links: Set[LinkId],
) -> Dict[FlowId, float]:
    """The priority closure (DESIGN.md §5.1): the rates of the one-flow
    ``groups`` a change can reach, the floats :func:`priority_fill` gives.
    ``fills``: each flow's ``[rank, entry residuals]`` in its last fill;
    ``rates``: its rate; ``changed``: links whose members or capacity
    changed since (the scope's ``links`` leave it here).  A link is live
    from rank 1 when it changed, carries a flow ``fills`` lacks or two
    flows on it swapped ranks; a flow on a live link is re-filled, its
    other links entering at its cached entries, and one whose rate moves
    makes its links live."""
    olds = [fills.get(flow.flow_id) for (flow,) in groups]
    live = changed & links
    changed -= links
    if None in olds:
        live.update(*[flow.path for (flow,), old in zip(groups, olds) if old is None])
    ranks = [old[0] for old in olds if old]
    if ranks != sorted(ranks):  # two flows swapped ranks: on a shared link?
        paths = [flow.path for (flow,), old in zip(groups, olds) if old]
        lows = [*[*accumulate(reversed(ranks), min)][-2::-1], _INF]
        ahead: Dict[LinkId, int] = {}
        for path, rank, low, high in zip(
            paths, ranks, lows, accumulate(ranks, max, initial=0)
        ):
            if high > rank:  # passed: by a flow ahead on one of its links?
                live.update(link for link in path if ahead.get(link, 0) > rank)
            if low < rank:  # passing: the highest such rank on each link
                ahead.update((link, max(ahead.get(link, 0), rank)) for link in path)
    residual = {link_id: capacities.get(link_id, 0.0) for link_id in live}
    filled: Dict[FlowId, float] = {}
    for rank, ((flow,), old) in enumerate(zip(groups, olds), 1):
        path = flow.path
        if old is not None:
            if live.isdisjoint(path):
                old[0] = rank
                continue
            for link_id, entry in zip(path, old[1]):
                if link_id not in live:
                    residual[link_id] = entry
        fills[flow.flow_id] = [rank, tuple(map(residual.__getitem__, path))]
        _fill_one(flow, residual, filled)
        if filled[flow.flow_id] != rates.get(flow.flow_id, 0.0):
            live.update(path)
    return filled


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


def _fill_columns(
    flows: Sequence[Flow],
    residual: Dict[LinkId, float],
    rates: Dict[FlowId, float],
) -> None:
    """``water_fill(flows, residual, rates)`` for a last group, rates only:
    :func:`backfill` over the columns that can bind when every entry share
    is at least :data:`ARGMIN_FLOOR`, ``water_fill`` itself otherwise."""
    cols_of, crossing, capacity = link_columns(flows, residual)
    if any(c / len(m) < ARGMIN_FLOOR for c, m in zip(capacity, crossing)):
        water_fill(flows, residual, rates)
        return
    column_capacity = capacity.__getitem__
    bound = {
        flow_id: min(map(column_capacity, cols))
        for flow_id, cols in cols_of.items()
        if cols
    }
    kept = [
        col
        for col, members in enumerate(crossing)
        if can_bind(capacity[col], map(bound.__getitem__, members))
    ]
    for flow in flows:
        rates[flow.flow_id] = 0.0
    # Slack columns are never the bottleneck: fill the rest.
    backfill(*_keep_columns(kept, cols_of, crossing, capacity), rates)


def _keep_columns(kept: List[int], cols_of: Mapping, *columns: Sequence) -> tuple:
    """``(cols_of, *columns)`` cut to the ``kept`` columns, renumbered in
    their order: a flow's column list loses the columns not kept."""
    new = dict(zip(kept, range(len(kept))))
    cut = {f: [new[col] for col in cols if col in new] for f, cols in cols_of.items()}
    return (cut, *([column[col] for col in kept] for column in columns))


def link_columns(
    flows: Sequence[Flow], capacities: Mapping[LinkId, float]
) -> Tuple[Dict[FlowId, List[int]], List[List[FlowId]], List[float]]:
    """One call's links as int columns in first-seen order:
    ``(cols_of, crossing, capacity)``, i.e. each flow's path as columns (a
    link listed twice appears twice), the ids of the flows crossing each
    column in flow order, and each column's capacity (0.0 when not in the
    map).  Read from ``flow.path`` each call, so a reroute takes effect.
    """
    col_of: Dict[LinkId, int] = {}
    cols_of: Dict[FlowId, List[int]] = {}
    crossing: List[List[FlowId]] = []
    capacity: List[float] = []
    for flow in flows:
        flow_id = flow.flow_id
        cols = cols_of[flow_id] = []
        for link_id in flow.path:
            col = col_of.get(link_id)
            if col is None:
                col = col_of[link_id] = len(capacity)
                capacity.append(capacities.get(link_id, 0.0))
                crossing.append([])
            cols.append(col)
            crossing[col].append(flow_id)
    return cols_of, crossing, capacity


def backfill(
    cols_of: Mapping[FlowId, List[int]],
    crossing: Sequence[List[FlowId]],
    residual: List[float],
    rates: Dict[FlowId, float],
) -> None:
    """Add the max-min fair share of ``residual`` to ``rates``, round for
    round with ``water_fill`` over the call's flows (``residual`` is spent).

    Equal shares are cached per column and refreshed where a freeze drains.
    When DESIGN.md's entry-sweep precondition holds (every share is exactly
    0.0 on a column whose residual is 0.0, or above ``RATE_EPSILON``), the
    flows behind a 0.0 column keep their rates and the rounds run on the
    columns the other flows cross.
    """
    count = list(map(len, crossing))
    share = list(map(truediv, residual, count))
    blocked = {col for col, level in enumerate(share) if level <= RATE_EPSILON}
    if blocked and all(residual[col] == 0.0 for col in blocked):
        # The entry sweep: the rounds run on the flows behind no 0.0 column and
        # the columns they cross, in order (sorted column numbers); ``crossing``
        # keeps the other flows, which the freeze skips.
        cols_of = {f: c for f, c in cols_of.items() if c and blocked.isdisjoint(c)}
        members = Counter(chain.from_iterable(cols_of.values()))
        cols_of, crossing, residual, count = _keep_columns(
            sorted(members), cols_of, crossing, residual, members
        )
        share = list(map(truediv, residual, count))
    unfrozen = {flow_id for flow_id, cols in cols_of.items() if cols}
    while unfrozen:
        # The epsilon chain: first-seen order, moving only on an improvement
        # of more than RATE_EPSILON (a column with no unfrozen flow is inf).
        bottleneck, bound = -1, _INF
        for col, level in enumerate(share):
            if level < bound:
                bottleneck, bound = col, level - RATE_EPSILON
        if bottleneck < 0:
            break
        level = max(share[bottleneck], 0.0)
        drained: Dict[int, int] = {}
        for flow_id in crossing[bottleneck]:
            if flow_id in unfrozen:
                unfrozen.remove(flow_id)
                if level > RATE_EPSILON:
                    rates[flow_id] += level
                for other in cols_of[flow_id]:
                    drained[other] = drained.get(other, 0) + 1
        for col, k in drained.items():
            left = residual[col] - level * k
            residual[col] = left = left if left > 0.0 else 0.0
            count[col] = n = count[col] - k
            share[col] = left / n if n > 0 else _INF
