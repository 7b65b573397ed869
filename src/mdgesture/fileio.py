"""Atomic file writes: a failed write never leaves a truncated artifact."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: bytes) -> None:
    """Write data to path via a sibling temp file and os.replace; a target
    that is not a regular file (a FIFO, /dev/null) is written in place."""
    path = Path(path)
    if path.exists() and not path.is_file():
        path.write_bytes(data)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
