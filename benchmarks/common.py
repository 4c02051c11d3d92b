"""Shared configuration for the figure-reproduction benchmarks.

Every benchmark regenerates one table/figure of the paper and records the
headline numbers in ``benchmark.extra_info`` (visible in the
pytest-benchmark table / JSON) in addition to printing the paper-style
rows (run pytest with ``-s`` to see them live).

``BENCH_SCALE`` tunes the cost: 1.0 reproduces at the default benchmark
size (40-host Clos, ~1-2k arrivals, seconds per run); export
``REPRO_BENCH_FULL=1`` to use the paper's full 160-host setup (minutes).
"""

from __future__ import annotations

import os
import platform

from repro.experiments.config import MacroConfig, full_scale_config

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0", "false")


def environment_fingerprint() -> dict:
    """Where these numbers were measured (python / platform / CPU).

    ``benchmarks/e2e/run.py`` keys its ledger rows with it: wall-clock
    numbers from different machines are not comparable.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "full_scale": FULL,
    }


def macro_config(**overrides) -> MacroConfig:
    """Benchmark-sized (or full-sized) macro configuration."""
    if FULL:
        return full_scale_config(**overrides)
    defaults = dict(
        pods=2,
        racks_per_pod=2,
        hosts_per_rack=10,
        num_arrivals=1200,
        load=0.7,
        seed=42,
    )
    defaults.update(overrides)
    return MacroConfig(**defaults)


def emit(title: str, body: str) -> None:
    """Print one benchmark's report block."""
    bar = "=" * max(len(title), 40)
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
