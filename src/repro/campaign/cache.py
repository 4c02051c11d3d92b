"""Content-addressed on-disk result cache for campaign cells.

Layout: ``<root>/<key[:2]>/<key>.json`` — two-level sharding keeps a big
campaign from piling thousands of files into one directory.  Writes are
atomic (temp file + ``os.replace``) so a killed worker can never leave a
truncated blob behind, and a corrupt blob (e.g. a partial write from an
older, non-atomic tool) is treated as a miss and deleted rather than
poisoning every future run.

The blob bytes are the payload's canonical JSON, so ``lookup`` returns a
dict whose re-encoding is byte-identical to what ``store`` was given —
cache hits cannot perturb a campaign's byte-identity guarantee.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro.campaign.hashing import canonical_json


def atomic_write_text(path, text: str, *, prefix: str = "") -> None:
    """Write ``text`` plus a newline to ``path`` so that a reader sees
    the old file or the whole new one, never a part (temp file in the
    same directory, then ``os.replace``)."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path), prefix=prefix, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


@dataclass
class CacheStats:
    """Hit/miss/write accounting for one executor pass."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    def __str__(self) -> str:
        return f"hits={self.hits} misses={self.misses} writes={self.writes}"


@dataclass
class ResultCache:
    """Content-addressed JSON blob store rooted at one directory."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def read(self, key: str) -> Optional[Dict[str, object]]:
        """The stored payload for ``key`` or None, outside the hit/miss
        accounting (reports reading results back, not executor lookups)."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            # Corrupt or unreadable blob: drop it and recompute.
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        return payload if isinstance(payload, dict) else None

    def lookup(self, key: str) -> Optional[Dict[str, object]]:
        """Return the cached payload for ``key``, or None on a miss."""
        payload = self.read(key)
        if payload is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return payload

    def store(self, key: str, payload: Dict[str, object]) -> None:
        """Atomically persist one payload under ``key``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            path, canonical_json(payload), prefix=f".{key[:8]}."
        )
        self.stats.writes += 1

    def __len__(self) -> int:
        """Number of cached blobs on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

