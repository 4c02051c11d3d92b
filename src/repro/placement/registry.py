"""Factory assembling placement policies by name for experiments."""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import ConfigError
from repro.network.fabric import NetworkFabric
from repro.placement.base import PlacementPolicy
from repro.placement.baselines import (
    MinDistPolicy,
    MinFCTPolicy,
    MinLoadPolicy,
    RandomPolicy,
)
from repro.placement.neat import build_neat
from repro.placement.pathaware import PathAwareNEATPolicy
from repro.predictor.registry import make_flow_predictor


def make_placement_policy(
    name: str,
    fabric: NetworkFabric,
    *,
    rng: Optional[random.Random] = None,
    predictor: str = "fair",
    coflow_predictor: Optional[str] = None,
    state_ttl: Optional[float] = None,
    push_updates: bool = False,
    telemetry=None,
) -> PlacementPolicy:
    """Instantiate a placement policy by name.

    Known names: ``neat``, ``neat-nofilter`` (daemon-based minFCT),
    ``neat-path`` (§7 full-path generalization), ``minfct`` (omniscient
    minFCT), ``minload``, ``mindist``, ``random``.

    ``telemetry`` threads a :class:`~repro.telemetry.Telemetry` bundle
    into the policy so placement decisions (and, for NEAT, bus traffic
    and predictor timings) are recorded.  ``state_ttl`` and
    ``push_updates`` configure NEAT's degraded-operation machinery (see
    :func:`~repro.placement.neat.build_neat`); baselines ignore both —
    they read the fabric directly and have no control plane to degrade.
    """
    key = name.lower()
    if key == "neat":
        return build_neat(
            fabric,
            predictor=predictor,
            coflow_predictor=coflow_predictor,
            rng=rng,
            state_ttl=state_ttl,
            push_updates=push_updates,
            telemetry=telemetry,
        )
    if key == "neat-nofilter":
        # NEAT's daemons and predictor but no preferred-host filter: the
        # distributed counterpart of the minFCT strawman (message-overhead
        # ablation).
        return build_neat(
            fabric,
            predictor=predictor,
            coflow_predictor=coflow_predictor,
            rng=rng,
            use_node_state=False,
            state_ttl=state_ttl,
            push_updates=push_updates,
            telemetry=telemetry,
        )
    if key == "neat-path":
        # §7 generalization: per-link arbitrators, full-path objective.
        return PathAwareNEATPolicy(
            fabric, make_flow_predictor(predictor), rng, telemetry=telemetry
        )
    if key == "minfct":
        return MinFCTPolicy(
            fabric, make_flow_predictor(predictor), rng, telemetry=telemetry
        )
    if key == "minload":
        return MinLoadPolicy(fabric, rng, telemetry=telemetry)
    if key == "mindist":
        return MinDistPolicy(fabric, rng, telemetry=telemetry)
    if key == "random":
        if rng is None:
            raise ConfigError("random placement needs an rng")
        return RandomPolicy(rng, fabric=fabric, telemetry=telemetry)
    raise ConfigError(
        f"unknown placement policy {name!r}; known: neat, neat-nofilter, "
        "neat-path, minfct, minload, mindist, random"
    )
