"""Coflow lifecycle tracking on top of the network fabric.

:class:`CoflowTracker` is the application-facing entry point for coflow
traffic: it mints :class:`~repro.coflow.coflow.Coflow` objects, submits
their flows through the fabric, and appends a
:class:`~repro.coflow.coflow.CoflowRecord` to its log when a sealed
coflow's last flow completes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.coflow.coflow import Coflow, CoflowRecord
from repro.errors import CoflowError
from repro.network.fabric import NetworkFabric
from repro.network.flow import Flow, FlowRecord
from repro.topology.base import LinkId, NodeId

if TYPE_CHECKING:  # pragma: no cover - avoids a coflow<->telemetry cycle
    from repro.telemetry import Telemetry


class CoflowTracker:
    """Creates coflows, submits their flows, and records CCTs."""

    def __init__(
        self,
        fabric: NetworkFabric,
        *,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        self._fabric = fabric
        self._records: List[CoflowRecord] = []
        self._open: Dict[int, Coflow] = {}
        self._demand: Dict[int, Dict[LinkId, float]] = {}
        self._next_id = 0
        self._listeners: List = []
        fabric.add_completion_listener(self._on_flow_done)
        self._probe = (
            telemetry.attach("coflow_tracker") if telemetry is not None else None
        )

    def add_completion_listener(self, listener) -> None:
        """Register ``listener(coflow, record)`` fired at each coflow CCT."""
        self._listeners.append(listener)

    @property
    def fabric(self) -> NetworkFabric:
        return self._fabric

    @property
    def records(self) -> Sequence[CoflowRecord]:
        """CCT records, in completion order."""
        return tuple(self._records)

    # ------------------------------------------------------------------
    # Coflow lifecycle
    # ------------------------------------------------------------------
    def new_coflow(self, *, tag: str = "") -> Coflow:
        """Create an (unsealed) coflow arriving now."""
        coflow = Coflow(
            coflow_id=self._next_id,
            arrival_time=self._fabric.engine.now,
            tag=tag,
        )
        self._next_id += 1
        self._open[coflow.coflow_id] = coflow
        self._demand[coflow.coflow_id] = {}
        return coflow

    def submit_flow(
        self, coflow: Coflow, src: NodeId, dst: NodeId, size: float
    ) -> Flow:
        """Submit one constituent flow of ``coflow``."""
        if coflow.coflow_id not in self._open:
            raise CoflowError(
                f"coflow {coflow.coflow_id} is not open in this tracker"
            )
        flow = self._fabric.submit(src, dst, size, tag=coflow.tag, coflow=coflow)
        demand = self._demand[coflow.coflow_id]
        for link_id in flow.path:
            demand[link_id] = demand.get(link_id, 0.0) + flow.size
        return flow

    def submit_coflow(
        self,
        transfers: Iterable[Tuple[NodeId, NodeId, float]],
        *,
        tag: str = "",
    ) -> Coflow:
        """Convenience: create, populate, and seal a coflow in one call.

        Args:
            transfers: ``(src, dst, size_bits)`` triples.
        """
        coflow = self.new_coflow(tag=tag)
        count = 0
        for src, dst, size in transfers:
            self.submit_flow(coflow, src, dst, size)
            count += 1
        if count == 0:
            raise CoflowError("submit_coflow needs at least one transfer")
        self.seal(coflow)
        return coflow

    def seal(self, coflow: Coflow) -> None:
        """Mark the coflow complete-on-submission and, if all of its flows
        already finished (e.g. all were host-local), record it now."""
        coflow.seal()
        probe = self._probe
        if probe is not None:
            probe.on_coflow(coflow.arrival_time, coflow)
        if coflow.finished:
            if coflow.completion_time is None:
                coflow.completion_time = self._fabric.engine.now
            self._finalize(coflow)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def optimal_cct(self, coflow: Coflow) -> float:
        """Empty-network CCT of an open coflow: its bottleneck duration on
        its flows' submit-time paths (a reroute must not move it)."""
        gamma = 0.0
        topo = self._fabric.topology
        for link_id, bits in self._demand[coflow.coflow_id].items():
            gamma = max(gamma, bits / topo.link(link_id).capacity)
        return gamma

    def _on_flow_done(self, flow: Flow, record: FlowRecord) -> None:
        coflow = flow.coflow
        if coflow is None or coflow.coflow_id not in self._open:
            return
        if coflow.finished:
            self._finalize(coflow)

    def _finalize(self, coflow: Coflow) -> None:
        self._open.pop(coflow.coflow_id, None)
        record = CoflowRecord(
            coflow_id=coflow.coflow_id,
            num_flows=len(coflow.flows),
            total_size=coflow.total_size,
            arrival_time=coflow.arrival_time,
            completion_time=coflow.completion_time
            if coflow.completion_time is not None
            else self._fabric.engine.now,
            optimal_cct=self.optimal_cct(coflow),
            tag=coflow.tag,
        )
        del self._demand[coflow.coflow_id]
        self._records.append(record)
        probe = self._probe
        if probe is not None:
            probe.on_coflow_done(record.completion_time, record)
        for listener in self._listeners:
            listener(coflow, record)
