"""Declarative SLOs evaluated with fast/slow-window burn rates.

An :class:`SLOSpec` names one service-level objective over the metric
streams a :class:`~repro.telemetry.timeseries.TimeseriesStore` rolls up.
Four kinds cover the placement service's health surface:

* ``latency`` — at most ``1 - objective`` of a histogram's observations
  may exceed ``threshold`` (e.g. "99% of decisions under 1 ms").
* ``ratio`` — a bad-event counter may grow at most ``budget`` as a
  fraction of a total counter (e.g. drops / offers, stale fallbacks /
  decisions).
* ``quantile`` — a windowed quantile must stay at or below ``bound``
  (e.g. "p95 of fabric.fct_gap <= 1.5x optimal").
* ``gauge`` — a gauge's window peak must stay at or below ``bound``
  (e.g. admission queue depth).

Every kind reduces to a **burn rate**: how fast the error budget is
being consumed, where 1.0 means "exactly on objective".  Following the
multiwindow multi-burn-rate recipe, an alert fires only when *both* the
fast window (catches sharp regressions quickly) and the slow window
(guards against flapping on noise) burn at or above
``burn_threshold``; it resolves when the fast window recovers.

Determinism contract: evaluation is a pure function of (specs, rollup
store, sim time).  Alerts are surfaced through the engine's history,
the status stream, the flight recorder, and the ``slo.*`` counters —
never through the simulation's trace/record streams, so arming SLOs
cannot change simulation output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

__all__ = [
    "SLOSpec",
    "SLOAlert",
    "SLOEngine",
    "load_slo_specs",
    "default_slo_specs",
    "DEFAULT_SLOS",
]

_KINDS = ("latency", "ratio", "quantile", "gauge")


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective over rolled-up metric streams."""

    name: str
    kind: str
    metric: str
    #: latency: bad-event threshold on the histogram's values.
    threshold: float = 0.0
    #: latency: target good fraction (error budget is ``1 - objective``).
    objective: float = 0.99
    #: ratio: denominator counter (numerator is ``metric``).
    total: str = ""
    #: ratio: allowed bad fraction of ``total``.
    budget: float = 0.01
    #: quantile: which quantile to bound.
    q: float = 0.99
    #: quantile/gauge: the bound the watched value must stay under.
    bound: float = 0.0
    fast_window: float = 30.0
    slow_window: float = 300.0
    burn_threshold: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(
                f"SLO {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {_KINDS})"
            )
        if not self.name:
            raise ConfigError("SLO spec needs a non-empty name")
        if not self.metric:
            raise ConfigError(f"SLO {self.name!r}: needs a metric")
        if not 0.0 < self.fast_window <= self.slow_window:
            raise ConfigError(
                f"SLO {self.name!r}: windows must satisfy "
                f"0 < fast_window <= slow_window, got "
                f"{self.fast_window!r}/{self.slow_window!r}"
            )
        if self.burn_threshold <= 0:
            raise ConfigError(
                f"SLO {self.name!r}: burn_threshold must be positive"
            )
        if self.kind == "latency":
            if not 0.0 < self.objective < 1.0:
                raise ConfigError(
                    f"SLO {self.name!r}: objective must be in (0, 1), "
                    f"got {self.objective!r}"
                )
            if self.threshold <= 0:
                raise ConfigError(
                    f"SLO {self.name!r}: latency threshold must be positive"
                )
        elif self.kind == "ratio":
            if not self.total:
                raise ConfigError(
                    f"SLO {self.name!r}: ratio kind needs a total counter"
                )
            if not 0.0 < self.budget <= 1.0:
                raise ConfigError(
                    f"SLO {self.name!r}: budget must be in (0, 1], "
                    f"got {self.budget!r}"
                )
        elif self.kind in ("quantile", "gauge"):
            if self.bound <= 0:
                raise ConfigError(
                    f"SLO {self.name!r}: {self.kind} kind needs a "
                    "positive bound"
                )
            if self.kind == "quantile" and not 0.0 <= self.q <= 1.0:
                raise ConfigError(
                    f"SLO {self.name!r}: q must be in [0, 1], got {self.q!r}"
                )

    # ------------------------------------------------------------------
    def burn_rate(
        self, store, *, window: float, now: float
    ) -> Optional[float]:
        """Budget burn over ``window`` ending at ``now`` (None = no data).

        1.0 means exactly on objective; above 1.0 the budget is being
        consumed faster than it regenerates.
        """
        if self.kind == "latency":
            bad = store.bad_fraction(
                self.metric, self.threshold, window=window, now=now
            )
            if bad is None:
                return None
            return bad / (1.0 - self.objective)
        if self.kind == "ratio":
            total = store.counter_delta(self.total, window=window, now=now)
            if total <= 0:
                return None
            bad = store.counter_delta(self.metric, window=window, now=now)
            return (bad / total) / self.budget
        if self.kind == "quantile":
            value = store.quantile(self.metric, self.q, window=window, now=now)
            if value is None:
                return None
            return value / self.bound
        # gauge
        peak = store.gauge_max(self.metric, window=window, now=now)
        if peak is None:
            return None
        return peak / self.bound

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
            "burn_threshold": self.burn_threshold,
        }
        if self.kind == "latency":
            out["threshold"] = self.threshold
            out["objective"] = self.objective
        elif self.kind == "ratio":
            out["total"] = self.total
            out["budget"] = self.budget
        elif self.kind == "quantile":
            out["q"] = self.q
            out["bound"] = self.bound
        else:
            out["bound"] = self.bound
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, spec: Dict[str, object]) -> "SLOSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(spec) - known
        if unknown:
            raise ConfigError(
                f"SLO spec {spec.get('name', '?')!r}: "
                f"unknown keys {sorted(unknown)}"
            )
        return cls(**spec)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SLOAlert:
    """One alert transition: an SLO started or stopped firing."""

    slo: str
    state: str  # "firing" | "resolved"
    t: float
    burn_fast: Optional[float]
    burn_slow: Optional[float]
    spec: SLOSpec = field(compare=False)

    def as_event(self) -> Dict[str, object]:
        """Causal-stream-shaped event (``repro explain`` passes unknown
        kinds through, so these annotate a bundle without breaking it)."""
        return {
            "ev": "slo_alert",
            "t": self.t,
            "slo": self.slo,
            "state": self.state,
            "kind": self.spec.kind,
            "metric": self.spec.metric,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "burn_threshold": self.spec.burn_threshold,
        }


class SLOEngine:
    """Evaluates a set of SLO specs against a rollup store.

    Call :meth:`evaluate` at each heartbeat; it returns the alert
    *transitions* (newly firing / newly resolved) and maintains firing
    state, history, and the ``slo.evaluations`` / ``slo.alerts_fired``
    counters on the supplied registry.
    """

    def __init__(self, specs: Sequence[SLOSpec], store, registry=None) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate SLO names in {names}")
        self.specs = list(specs)
        self.store = store
        self.alerts: List[SLOAlert] = []
        self._firing: Dict[str, SLOAlert] = {}
        self._ctr_evaluations = None
        self._ctr_fired = None
        if registry is not None:
            self._ctr_evaluations = registry.counter("slo.evaluations")
            self._ctr_fired = registry.counter("slo.alerts_fired")

    @property
    def firing(self) -> List[str]:
        return sorted(self._firing)

    @property
    def alerts_fired(self) -> int:
        return sum(1 for a in self.alerts if a.state == "firing")

    def burn_rates(
        self, now: float
    ) -> Dict[str, Tuple[Optional[float], Optional[float]]]:
        """``{slo: (burn_fast, burn_slow)}`` at ``now`` (for dashboards)."""
        return {
            spec.name: (
                spec.burn_rate(
                    self.store, window=spec.fast_window, now=now
                ),
                spec.burn_rate(
                    self.store, window=spec.slow_window, now=now
                ),
            )
            for spec in self.specs
        }

    def evaluate(self, now: float) -> List[SLOAlert]:
        """Evaluate every spec at sim time ``now``; return transitions."""
        if self._ctr_evaluations is not None:
            self._ctr_evaluations.inc()
        transitions: List[SLOAlert] = []
        for spec in self.specs:
            fast = spec.burn_rate(self.store, window=spec.fast_window, now=now)
            slow = spec.burn_rate(self.store, window=spec.slow_window, now=now)
            breaching = (
                fast is not None
                and slow is not None
                and fast >= spec.burn_threshold
                and slow >= spec.burn_threshold
            )
            was_firing = spec.name in self._firing
            if breaching and not was_firing:
                alert = SLOAlert(
                    slo=spec.name,
                    state="firing",
                    t=now,
                    burn_fast=fast,
                    burn_slow=slow,
                    spec=spec,
                )
                self._firing[spec.name] = alert
                transitions.append(alert)
                if self._ctr_fired is not None:
                    self._ctr_fired.inc()
            elif was_firing and not (
                fast is not None and fast >= spec.burn_threshold
            ):
                # Resolve on fast-window recovery (or data drying up).
                del self._firing[spec.name]
                transitions.append(
                    SLOAlert(
                        slo=spec.name,
                        state="resolved",
                        t=now,
                        burn_fast=fast,
                        burn_slow=slow,
                        spec=spec,
                    )
                )
        self.alerts.extend(transitions)
        return transitions

    def summary(self, now: Optional[float] = None) -> Dict[str, object]:
        """Status-record payload: firing set, counts, current burns."""
        out: Dict[str, object] = {
            "specs": len(self.specs),
            "firing": self.firing,
            "alerts_fired": self.alerts_fired,
        }
        if now is not None:
            out["burn"] = {
                name: [fast, slow]
                for name, (fast, slow) in sorted(
                    self.burn_rates(now).items()
                )
            }
        return out


# ----------------------------------------------------------------------
# Spec loading
# ----------------------------------------------------------------------
#: The stock objectives for the placement service (`repro serve --slo
#: default`): decision latency, FCT stretch vs optimal, admission queue
#: depth, and the drop / stale-fallback budget.
DEFAULT_SLOS: Tuple[Dict[str, object], ...] = (
    {
        "name": "decision-latency-p99",
        "kind": "latency",
        "metric": "service.decision_latency_seconds",
        "threshold": 0.005,
        "objective": 0.99,
        "fast_window": 10.0,
        "slow_window": 60.0,
        "description": "99% of placement decisions within 5 ms",
    },
    {
        "name": "fct-stretch-p95",
        "kind": "quantile",
        "metric": "fabric.fct_gap",
        "q": 0.95,
        "bound": 16.0,
        "fast_window": 10.0,
        "slow_window": 60.0,
        "description": "p95 flow completion within 16x optimal",
    },
    {
        "name": "queue-depth",
        "kind": "gauge",
        "metric": "service.queue_depth",
        "bound": 64.0,
        "fast_window": 10.0,
        "slow_window": 60.0,
        "description": "admission queue peak below 64 tasks",
    },
    {
        "name": "drop-rate",
        "kind": "ratio",
        "metric": "faults.tasks_dropped",
        "total": "service.tasks_offered",
        "budget": 0.01,
        "fast_window": 10.0,
        "slow_window": 60.0,
        "description": "under 1% of offered tasks dropped",
    },
    {
        "name": "stale-fallback-rate",
        "kind": "ratio",
        "metric": "placement.stale_fallbacks",
        "total": "service.decisions",
        "budget": 0.05,
        "fast_window": 10.0,
        "slow_window": 60.0,
        "description": "under 5% of decisions on stale fallbacks",
    },
)


def default_slo_specs() -> List[SLOSpec]:
    return [SLOSpec.from_dict(dict(spec)) for spec in DEFAULT_SLOS]


def load_slo_specs(source) -> List[SLOSpec]:
    """Load SLO specs from a JSON file path, a dict, or a list.

    Accepts ``{"slos": [...]}`` or a bare list of spec objects; the
    literal string ``"default"`` yields the stock service objectives.
    """
    if source == "default":
        return default_slo_specs()
    if isinstance(source, (str,)):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                source = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read SLO spec {source!r}: {exc}")
        except ValueError as exc:
            raise ConfigError(f"invalid JSON in SLO spec {source!r}: {exc}")
    if isinstance(source, dict):
        source = source.get("slos", source.get("specs"))
        if source is None:
            raise ConfigError("SLO spec object needs an 'slos' list")
    if not isinstance(source, list) or not source:
        raise ConfigError("SLO spec must be a non-empty list of objects")
    specs = [SLOSpec.from_dict(dict(item)) for item in source]
    # Trip duplicate-name validation early.
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate SLO names in {names}")
    return specs
