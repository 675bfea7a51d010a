"""Block store: the HDFS-cache stand-in for trained models.

The paper caches SVD training results to HDFS so the online evaluator
only does "a single matrix multiplication per iteration".  This module
provides the same contract on the local filesystem: content-checksummed
blocks written atomically (temp file + rename), NumPy arrays stored in
``.npz`` form so they can be loaded without pickling arbitrary code.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import Dict, List

import numpy as np

__all__ = ["BlockStore", "BlockCorruptionError"]

_KEY_RE = re.compile(r"^[A-Za-z0-9._:-]+$")


class BlockCorruptionError(RuntimeError):
    """A block's content no longer matches its recorded checksum."""


class BlockStore:
    """Directory-backed store of named array bundles.

    Keys are flat names (``[A-Za-z0-9._:-]+``); each block is an
    ``.npz`` of named arrays plus a sidecar ``.sha256`` checksum that is
    verified on read.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _paths(self, key: str) -> tuple[Path, Path]:
        if not _KEY_RE.match(key):
            raise ValueError(f"invalid block key {key!r}")
        return self.root / f"{key}.npz", self.root / f"{key}.sha256"

    @staticmethod
    def _digest(path: Path) -> str:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        return h.hexdigest()

    # ------------------------------------------------------------------
    def put(self, key: str, arrays: Dict[str, np.ndarray]) -> None:
        """Atomically write a block of named arrays."""
        data_path, sum_path = self._paths(key)
        if not arrays:
            raise ValueError("block must contain at least one array")
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            digest = self._digest(Path(tmp_name))
            os.replace(tmp_name, data_path)
        # Deliberately broad: temp-file cleanup must run even on
        # KeyboardInterrupt/SystemExit; the exception is re-raised as-is.
        except BaseException:  # repro-lint: ignore[broad-except]
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        sum_path.write_text(json.dumps({"sha256": digest}))

    def get(self, key: str) -> Dict[str, np.ndarray]:
        """Read a block, verifying its checksum."""
        data_path, sum_path = self._paths(key)
        if not data_path.exists():
            raise KeyError(key)
        if sum_path.exists():
            expected = json.loads(sum_path.read_text())["sha256"]
            actual = self._digest(data_path)
            if actual != expected:
                raise BlockCorruptionError(
                    f"block {key!r}: checksum mismatch ({actual} != {expected})"
                )
        with np.load(data_path) as bundle:
            return {name: bundle[name] for name in bundle.files}

    def exists(self, key: str) -> bool:
        return self._paths(key)[0].exists()

    def keys(self) -> List[str]:
        return sorted(p.stem for p in self.root.glob("*.npz"))

    def __contains__(self, key: str) -> bool:
        return self.exists(key)

    def __len__(self) -> int:
        return len(self.keys())
