"""Crash-safe file writes (temp file + fsync + atomic rename) and the
strict JSON reader that plan files are loaded with.

Every artifact the harness persists (bench documents, fault plans, sweep
journals, rendered results) goes through :func:`atomic_write_text`, so a
``SIGKILL`` -- or a full disk -- can never leave a half-written file where a
complete one used to be.  POSIX ``rename(2)`` within one directory is atomic,
and the temp file lives next to its target so the rename never crosses a
filesystem boundary.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Any


def atomic_write_text(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` atomically (write-temp/fsync/rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_json(path: str, doc: Any, indent: int = 2,
                      sort_keys: bool = True) -> None:
    """Serialise ``doc`` and write it atomically, newline-terminated."""
    atomic_write_text(
        path, json.dumps(doc, indent=indent, sort_keys=sort_keys) + "\n"
    )


def _non_finite(token: str) -> float:
    raise ValueError(f"non-finite number {token} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        _non_finite(text)
    return value


def loads_finite(text: str) -> Any:
    """``json.loads`` that rejects ``NaN``, ``Infinity`` and numbers that
    overflow a float (``1e999``) with a :class:`ValueError`.

    Python's own reader accepts all three, so a plan field could otherwise
    hold a value that no range check (``x >= 0`` is False for NaN) and no
    strict writer (``allow_nan=False``) would pass.
    """
    return json.loads(text, parse_constant=_non_finite,
                      parse_float=_finite_float)
