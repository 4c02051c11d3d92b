"""The numpy kernels are an optional ``perf`` extra: without numpy the
package must import cleanly, take the scalar fill for every group, and
still reproduce the golden corpus byte for byte.

Run in a subprocess with a meta-path hook blocking ``numpy`` so the test
is meaningful even on machines (like CI's main leg) that have it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.campaign import RunSpec, spec_key
from repro.experiments.config import MacroConfig
from repro.network import kernels

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "goldens"

BLOCKED_RUN = textwrap.dedent(
    """
    import importlib.util
    import sys
    from pathlib import Path

    class _BlockNumpy:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" or name.startswith("numpy."):
                raise ImportError("numpy blocked for fallback test")
            return None

    sys.meta_path.insert(0, _BlockNumpy())
    for mod in list(sys.modules):
        if mod == "numpy" or mod.startswith("numpy."):
            del sys.modules[mod]

    from repro.network import kernels

    assert not kernels.HAVE_NUMPY, "import guard failed to trip"

    golden_dir = Path(sys.argv[1])
    spec = importlib.util.spec_from_file_location(
        "regen_goldens", golden_dir / "regen_goldens.py"
    )
    regen_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen_goldens)
    for policy in ("fair", "srpt"):
        records_text, _trace = regen_goldens.generate(policy)
        golden = (golden_dir / f"{policy}.records.jsonl").read_text(
            encoding="utf-8"
        )
        assert records_text == golden, policy

    from repro.campaign import RunSpec, spec_key
    from repro.experiments.config import MacroConfig

    print("spec-key", spec_key(RunSpec("flow_macro", MacroConfig())))
    print("fallback-ok")
    """
)


@pytest.fixture(scope="module")
def without_numpy() -> str:
    """Stdout of one ``BLOCKED_RUN``: exit 0 means its asserts held."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUN, str(GOLDEN_DIR)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fallback-ok" in proc.stdout
    return proc.stdout


def test_python_backend_without_numpy(without_numpy):
    """Blocked numpy: ``HAVE_NUMPY`` is False and the pinned golden
    scenario still reproduces the fair and srpt records byte for byte
    (asserted inside the subprocess)."""


def test_spec_key_ignores_fill_selection(without_numpy, monkeypatch):
    """Which fill runs is invisible in the payload, so it must be
    invisible in the cache key: neither the cutoff nor numpy's presence
    moves ``spec_key``."""
    spec = RunSpec("flow_macro", MacroConfig())
    shipped = spec_key(spec)
    for cutoff in (1, sys.maxsize):
        monkeypatch.setattr(kernels, "GROUP_CUTOFF", cutoff)
        assert spec_key(spec) == shipped
    assert f"spec-key {shipped}\n" in without_numpy
