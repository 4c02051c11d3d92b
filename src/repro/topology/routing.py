"""Shortest-path routing with deterministic ECMP.

The macro experiments use a folded Clos where many equal-cost paths exist
between hosts in different racks.  We precompute hop-count shortest paths
with BFS and, when several equal-cost next hops exist, pick one by hashing
the (src, dst) pair — the standard static-ECMP model, deterministic across
runs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import RoutingError
from repro.sim.randomness import hash_seed
from repro.topology.base import LinkId, NodeId, Path, Topology

#: Per node, its (link id, next node) hops sorted by link id: the ECMP
#: candidates.
_Hops = Dict[NodeId, List[Tuple[LinkId, NodeId]]]
#: The working links as (predecessors per node, for the reverse BFS; hops).
_Graph = Tuple[Dict[NodeId, List[NodeId]], _Hops]


class Router:
    """Computes and caches host-to-host paths over a topology."""

    def __init__(self, topology: Topology, *, ecmp_seed: int = 0) -> None:
        self._topology = topology
        self._ecmp_seed = ecmp_seed
        self._path_cache: Dict[Tuple[NodeId, NodeId], Path] = {}
        # hop-distance table per destination, built lazily
        self._dist_cache: Dict[NodeId, Dict[NodeId, int]] = {}
        # the working links' graph, built once per failed-link set
        self._graph: Optional[_Graph] = None
        # links excluded from routing (fault injection); paths are
        # recomputed from scratch when this set changes
        self._failed_links: Set[LinkId] = set()

    @property
    def failed_links(self) -> FrozenSet[LinkId]:
        """Links currently excluded from path computation."""
        return frozenset(self._failed_links)

    def fail_link(self, link_id: LinkId) -> None:
        """Exclude ``link_id`` from all future paths and drop stale caches."""
        if link_id in self._failed_links:
            return
        self._failed_links.add(link_id)
        self._path_cache.clear()
        self._dist_cache.clear()
        self._graph = None

    def path(self, src: NodeId, dst: NodeId) -> Path:
        """Return the (cached) routed path from ``src`` to ``dst``.

        A host sending to itself gets a zero-link path: the data never
        leaves the machine, so no network resources are consumed (this is
        how data locality manifests — a local read has zero FCT).
        """
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            path = Path(src=src, dst=dst, links=())
        else:
            path = self._compute_path(src, dst)
        self._path_cache[key] = path
        return path

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _working_graph(self) -> _Graph:
        """Predecessors and sorted hops per node over the working links."""
        if self._graph is None:
            reverse: Dict[NodeId, List[NodeId]] = {}
            hops: _Hops = {}
            for link in self._topology.links():
                if link.link_id not in self._failed_links:
                    reverse.setdefault(link.dst, []).append(link.src)
                    hop = (link.link_id, link.dst)
                    hops.setdefault(link.src, []).append(hop)
            for node_hops in hops.values():
                node_hops.sort()
            self._graph = (reverse, hops)
        return self._graph

    def _distances_to(self, dst: NodeId) -> Dict[NodeId, int]:
        """BFS distance (in links) from every node to ``dst``."""
        cached = self._dist_cache.get(dst)
        if cached is not None:
            return cached
        reverse, _ = self._working_graph()  # reverse BFS: walk incoming links
        dist: Dict[NodeId, int] = {dst: 0}
        queue = deque([dst])
        while queue:
            node = queue.popleft()
            for prev in reverse.get(node, ()):
                if prev not in dist:
                    dist[prev] = dist[node] + 1
                    queue.append(prev)
        self._dist_cache[dst] = dist
        return dist

    def _compute_path(self, src: NodeId, dst: NodeId) -> Path:
        dist = self._distances_to(dst)
        _, hops = self._working_graph()
        if src not in dist:
            raise RoutingError(f"no route from {src!r} to {dst!r}")
        links: List[LinkId] = []
        node = src
        # ECMP hash is fixed per (src, dst) pair so a flow uses one path.
        choice_hash = hash_seed(self._ecmp_seed, f"{src}|{dst}")
        depth = 0
        while node != dst:
            closer = dist[node] - 1
            candidates = [
                hop for hop in hops.get(node, ()) if dist.get(hop[1]) == closer
            ]
            if not candidates:
                raise RoutingError(
                    f"routing dead-end at {node!r} towards {dst!r}"
                )
            pick, node = candidates[
                (choice_hash >> (depth * 4)) % len(candidates)
            ]
            links.append(pick)
            depth += 1
            if depth > 64:
                raise RoutingError(f"path from {src!r} to {dst!r} too long")
        return Path(src=src, dst=dst, links=tuple(links))
