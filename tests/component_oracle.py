"""Test-only oracle: ``NetworkFabric._expand_component`` as it stood
before the fabric kept its sharing components (PR 23), verbatim.

The fabric now maintains the connected components of the flow-link
sharing graph as flows come and go (``_join`` / ``_leave`` / ``_split``)
and a recompute reads its scope from them; the components it keeps are
claimed to be the ones this walk finds from the same links.
``tests/test_component_differential.py`` checks that claim after every
step of generated histories.  ``fabric`` stands where the method had
``self``.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.network.flow import Flow, FlowId
from repro.topology.base import LinkId


def expand_component(
    fabric, dirty_links: Sequence[LinkId]
) -> Tuple[List[Flow], Set[LinkId]]:
    """Connected component(s) of the sharing graph touching the dirty
    links: flows on a dirty link drag their other links in, and so on.

    Deterministic: traversal follows the insertion-ordered link
    indexes, and the result is sorted by flow id.
    """
    comp_flows: Dict[FlowId, Flow] = {}
    comp_links: Set[LinkId] = set()
    frontier: List[LinkId] = []
    for link_id in dirty_links:
        if link_id not in comp_links:
            comp_links.add(link_id)
            frontier.append(link_id)
    while frontier:
        link_id = frontier.pop()
        for flow_id, flow in fabric._by_link.get(link_id, {}).items():
            if flow_id in comp_flows:
                continue
            comp_flows[flow_id] = flow
            for other in flow.path:
                if other not in comp_links:
                    comp_links.add(other)
                    frontier.append(other)
    flows = [comp_flows[fid] for fid in sorted(comp_flows)]
    return flows, comp_links
