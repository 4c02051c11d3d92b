"""Test-only oracle: the full-recompute reference the fabric once shipped
as a mode, kept here as an exact check.

The fabric allocates each sharing component on its own and splices the
rates into its cached map (DESIGN.md §5.1).  After every
``NetworkFabric._reallocate`` this oracle runs the fabric's allocator on
*all* active flows, in flow-id order, on the fabric's own capacity map,
and compares every active flow's cached rate with ``==``: no tolerance.

It is side-effect free: it syncs no flow, calls no ``note_*`` hook and
schedules nothing, so a run's records and trace are the same with it
installed as without.  Install it like ``tests/test_hint_differential.py``
wraps the hint: ``install(monkeypatch)``, or inside
``pytest.MonkeyPatch.context()`` under hypothesis (which forbids
function-scoped fixtures).  A divergence fails the run with an
``AssertionError`` naming the flows.  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

from typing import List

from repro.network.fabric import NetworkFabric


def mismatches(fabric: NetworkFabric) -> List[str]:
    """``flow ID: scoped=R full=R`` for every active flow whose cached rate
    is not the full allocation's, in flow-id order."""
    flow_ids = sorted(fabric._active)
    full = fabric.allocator.allocate(
        [fabric._active[fid] for fid in flow_ids], fabric._capacities
    )
    cached = fabric._rates
    return [
        f"flow {fid}: scoped={cached.get(fid, 0.0)!r} "
        f"full={full.get(fid, 0.0)!r}"
        for fid in flow_ids
        if cached.get(fid, 0.0) != full.get(fid, 0.0)
    ]


def install(monkeypatch) -> List[int]:
    """Check every recompute of every fabric until ``monkeypatch`` is
    undone.  Returns a list that gains the active-set size of each
    recompute compared, so a caller can tell the oracle ran."""
    reallocate = NetworkFabric._reallocate
    checked: List[int] = []

    def reallocate_and_check(fabric, *args) -> None:
        reallocate(fabric, *args)
        diverged = mismatches(fabric)
        assert not diverged, (
            f"{fabric.allocator.name} at t={fabric.engine.now!r}: "
            f"{len(diverged)} rates differ from the full recompute: "
            + "; ".join(diverged[:5])
        )
        checked.append(len(fabric._active))

    monkeypatch.setattr(NetworkFabric, "_reallocate", reallocate_and_check)
    return checked
