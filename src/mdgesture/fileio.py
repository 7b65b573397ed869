"""Atomic writes, UTF-8 reads that fail as parse errors, F32_MAX and
MAX_U32."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import FormatError

F32_MAX = float(np.finfo("<f4").max)  # the largest magnitude a float32 field holds
MAX_U32 = 2**32 - 1  # the largest count a header field holds


def read_text(path) -> str:
    """A UTF-8 file's text; bytes that do not decode are a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason})") from None


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
