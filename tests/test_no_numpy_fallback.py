"""The package runs without numpy, and which fill runs never reaches a
cache key.

``test_source_budget`` forbids a numpy import statically; here a
subprocess with a meta-path hook blocking ``numpy`` imports the package
and computes a spec key, so the check holds even on machines that have
numpy installed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.campaign import RunSpec, spec_key
from repro.experiments.config import MacroConfig
from repro.network import kernels

ROOT = Path(__file__).resolve().parents[1]

BLOCKED_KEY = textwrap.dedent(
    """
    import sys

    class _BlockNumpy:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" or name.startswith("numpy."):
                raise ImportError("numpy blocked")
            return None

    sys.meta_path.insert(0, _BlockNumpy())
    for mod in list(sys.modules):
        if mod == "numpy" or mod.startswith("numpy."):
            del sys.modules[mod]

    from repro.campaign import RunSpec, spec_key
    from repro.experiments.config import MacroConfig

    print("spec-key", spec_key(RunSpec("flow_macro", MacroConfig())))
    """
)


def test_spec_key_ignores_fill_selection(monkeypatch):
    """Which fill runs is invisible in the payload, so it must be
    invisible in the cache key: neither the cutoff nor numpy's presence
    moves ``spec_key``."""
    spec = RunSpec("flow_macro", MacroConfig())
    shipped = spec_key(spec)
    for cutoff in (1, sys.maxsize):
        monkeypatch.setattr(kernels, "GROUP_CUTOFF", cutoff)
        assert spec_key(spec) == shipped
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_KEY],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"spec-key {shipped}\n" in proc.stdout
