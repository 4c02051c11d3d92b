"""Scenario files for ``repro serve``.

A scenario JSON describes one serving session end to end — topology,
workload, arrival profile, placement policy, admission policy, batching —
so a session is reproducible from a single artifact::

    {
      "topology": {"pods": 2, "racks_per_pod": 2, "hosts_per_rack": 4},
      "workload": "websearch",
      "duration": 30.0,
      "seed": 42,
      "arrivals": {"kind": "diurnal", "load": 0.6, "amplitude": 0.5,
                   "period": 10.0},
      "admission": {"policy": "drop-tail", "capacity": 256},
      "batch": {"max_size": 16, "max_wait": 0.05}
    }

Arrival profiles may give an absolute ``rate`` (tasks/sec) or a target
``load`` (average edge utilisation, converted through the workload's mean
flow size and the 1 Gbps edge capacity the §6.1 experiments use — the
same conversion as closed-loop trace generation, so load values line up
across both modes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigError
from repro.service.admission import ADMISSION_POLICIES
from repro.service.workload import (
    ArrivalProfile,
    OpenLoopSource,
    profile_from_dict,
)
from repro.topology.base import Topology
from repro.topology.fabrics import three_tier_clos
from repro.units import gbps
from repro.workloads.distributions import (
    EmpiricalDistribution,
    make_distribution,
)
from repro.workloads.traces import poisson_rate_for_load

__all__ = ["ServiceScenario"]

#: Edge-link capacity assumed by load -> rate conversion (§6.1 setup).
EDGE_CAPACITY = gbps(1)


def _require(spec: Dict[str, Any], key: str, context: str) -> Any:
    try:
        return spec[key]
    except KeyError:
        raise ConfigError(f"scenario {context} is missing {key!r}") from None


def _optional(convert, value: Any) -> Any:
    """``convert(value)``, leaving an absent (None) optional field absent."""
    return None if value is None else convert(value)


@dataclass(frozen=True)
class ServiceScenario:
    """One serving session's full configuration.

    Attributes:
        pods / racks_per_pod / hosts_per_rack / oversubscription: Clos
            dimensions (same knobs as :class:`MacroConfig`).
        workload: empirical size distribution name.
        scale: workload size multiplier (None -> distribution default).
        duration: session length in simulated seconds.
        seed: master seed; every stream derives from it.
        arrivals: raw arrival-profile spec (``rate`` or ``load`` based).
        predictor: FCT predictor for the NEAT control plane.
        admission_policy / queue_capacity / token_rate / token_burst:
            admission-control configuration.
        batch_max / batch_wait: micro-batching knobs — a batch is placed
            when it holds ``batch_max`` requests or the oldest has waited
            ``batch_wait`` simulated seconds, whichever comes first.
        batch_overhead / per_request_cost: modeled controller service
            time per batch, ``overhead + per_request * len(batch)``
            simulated seconds — the control-plane processing cost that
            lets an open-loop overload actually back the queue up.
        control_rtt / state_ttl / push_updates: control-plane knobs
            passed straight to :func:`~repro.placement.neat.build_neat`.
        name: display name for reports.
    """

    pods: int = 2
    racks_per_pod: int = 2
    hosts_per_rack: int = 4
    oversubscription: float = 1.0
    workload: str = "websearch"
    scale: Optional[float] = None
    duration: float = 30.0
    seed: int = 42
    arrivals: Dict[str, Any] = field(
        default_factory=lambda: {"kind": "poisson", "load": 0.6}
    )
    network_policy: str = "fair"
    predictor: str = "fair"
    max_candidates: Optional[int] = None
    admission_policy: str = "drop-tail"
    queue_capacity: int = 1024
    token_rate: Optional[float] = None
    token_burst: Optional[float] = None
    batch_max: int = 16
    batch_wait: float = 0.05
    batch_overhead: float = 0.001
    per_request_cost: float = 0.0001
    control_rtt: float = 0.0
    state_ttl: Optional[float] = None
    push_updates: bool = False
    name: str = "service"

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigError(
                f"duration must be positive, got {self.duration!r}"
            )
        if self.batch_max < 1:
            raise ConfigError(
                f"batch_max must be >= 1, got {self.batch_max!r}"
            )
        if self.batch_wait < 0:
            raise ConfigError(
                f"batch_wait must be >= 0, got {self.batch_wait!r}"
            )
        if self.batch_overhead < 0 or self.per_request_cost < 0:
            raise ConfigError("service costs must be >= 0")
        if self.admission_policy not in ADMISSION_POLICIES:
            raise ConfigError(
                f"unknown admission policy {self.admission_policy!r}; "
                f"known: {', '.join(ADMISSION_POLICIES)}"
            )
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity!r}"
            )
        if self.admission_policy == "token-bucket":
            if self.token_rate is None or self.token_rate <= 0:
                raise ConfigError(
                    "token-bucket admission needs a positive token_rate"
                )
            if self.token_burst is None or self.token_burst < 1:
                raise ConfigError(
                    "token-bucket admission needs token_burst >= 1"
                )

    @property
    def num_hosts(self) -> int:
        return self.pods * self.racks_per_pod * self.hosts_per_rack

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def build_topology(self) -> Topology:
        return three_tier_clos(
            pods=self.pods,
            racks_per_pod=self.racks_per_pod,
            hosts_per_rack=self.hosts_per_rack,
            oversubscription=self.oversubscription,
        )

    def build_distribution(self) -> EmpiricalDistribution:
        if self.scale is not None:
            return make_distribution(self.workload, scale=self.scale)
        return make_distribution(self.workload)

    def build_profile(
        self, distribution: Optional[EmpiricalDistribution] = None
    ) -> ArrivalProfile:
        """Resolve the arrival spec, converting ``load`` to a rate."""
        spec = dict(self.arrivals)
        load = spec.pop("load", None)
        if load is not None:
            dist = (
                distribution
                if distribution is not None
                else self.build_distribution()
            )
            rate = poisson_rate_for_load(
                float(load), self.num_hosts, EDGE_CAPACITY, dist.mean()
            )
            kind = spec.get("kind", "poisson")
            rate_key = {
                "poisson": "rate",
                "diurnal": "base_rate",
                "burst": "on_rate",
            }.get(kind, "rate")
            if rate_key in spec:
                raise ConfigError(
                    f"arrival profile gives both 'load' and {rate_key!r}"
                )
            spec[rate_key] = rate
        return profile_from_dict(spec)

    def build_source(self, topology: Optional[Topology] = None) -> OpenLoopSource:
        topo = topology if topology is not None else self.build_topology()
        dist = self.build_distribution()
        return OpenLoopSource(
            self.build_profile(dist),
            hosts=topo.hosts,
            distribution=dist,
            duration=self.duration,
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "topology": {
                "pods": self.pods,
                "racks_per_pod": self.racks_per_pod,
                "hosts_per_rack": self.hosts_per_rack,
            },
            "workload": self.workload,
            "duration": self.duration,
            "seed": self.seed,
            "arrivals": dict(self.arrivals),
            "network": self.network_policy,
            "predictor": self.predictor,
            "admission": {
                "policy": self.admission_policy,
                "capacity": self.queue_capacity,
            },
            "batch": {
                "max_size": self.batch_max,
                "max_wait": self.batch_wait,
                "overhead": self.batch_overhead,
                "per_request": self.per_request_cost,
            },
        }
        if self.oversubscription != 1.0:
            out["topology"]["oversubscription"] = self.oversubscription
        if self.scale is not None:
            out["scale"] = self.scale
        if self.token_rate is not None:
            out["admission"]["token_rate"] = self.token_rate
        if self.token_burst is not None:
            out["admission"]["token_burst"] = self.token_burst
        if self.max_candidates is not None:
            out["max_candidates"] = self.max_candidates
        if self.control_rtt:
            out["control_rtt"] = self.control_rtt
        if self.state_ttl is not None:
            out["state_ttl"] = self.state_ttl
        if self.push_updates:
            out["push_updates"] = self.push_updates
        return out

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "ServiceScenario":
        if not isinstance(spec, dict):
            raise ConfigError(f"scenario must be an object, got {spec!r}")
        topo = spec.get("topology", {})
        if not isinstance(topo, dict):
            raise ConfigError("scenario 'topology' must be an object")
        admission = spec.get("admission", {})
        if not isinstance(admission, dict):
            raise ConfigError("scenario 'admission' must be an object")
        batch = spec.get("batch", {})
        if not isinstance(batch, dict):
            raise ConfigError("scenario 'batch' must be an object")
        arrivals = _require(spec, "arrivals", "file")
        if not isinstance(arrivals, dict):
            raise ConfigError("scenario 'arrivals' must be an object")
        known = {
            "name",
            "topology",
            "workload",
            "scale",
            "duration",
            "seed",
            "arrivals",
            "network",
            "predictor",
            "max_candidates",
            "admission",
            "batch",
            "control_rtt",
            "state_ttl",
            "push_updates",
        }
        unknown = sorted(set(spec) - known)
        if unknown:
            raise ConfigError(
                f"unknown scenario keys: {', '.join(unknown)}"
            )
        try:
            return cls(
                name=spec.get("name", "service"),
                pods=int(topo.get("pods", 2)),
                racks_per_pod=int(topo.get("racks_per_pod", 2)),
                hosts_per_rack=int(topo.get("hosts_per_rack", 4)),
                oversubscription=float(topo.get("oversubscription", 1.0)),
                workload=spec.get("workload", "websearch"),
                scale=_optional(float, spec.get("scale")),
                duration=float(_require(spec, "duration", "file")),
                seed=int(spec.get("seed", 42)),
                arrivals=dict(arrivals),
                network_policy=spec.get("network", "fair"),
                predictor=spec.get("predictor", "fair"),
                max_candidates=_optional(int, spec.get("max_candidates")),
                admission_policy=admission.get("policy", "drop-tail"),
                queue_capacity=int(admission.get("capacity", 1024)),
                token_rate=_optional(float, admission.get("token_rate")),
                token_burst=_optional(float, admission.get("token_burst")),
                batch_max=int(batch.get("max_size", 16)),
                batch_wait=float(batch.get("max_wait", 0.05)),
                batch_overhead=float(batch.get("overhead", 0.001)),
                per_request_cost=float(batch.get("per_request", 0.0001)),
                control_rtt=float(spec.get("control_rtt", 0.0)),
                state_ttl=_optional(float, spec.get("state_ttl")),
                push_updates=bool(spec.get("push_updates", False)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad scenario value: {exc}") from None

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "ServiceScenario":
        p = Path(path)
        try:
            spec = json.loads(p.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read scenario {p}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario {p} is not valid JSON: {exc}") from None
        return cls.from_dict(spec)
