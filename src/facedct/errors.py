"""Shared exception hierarchy, and the one read and one write path for files.

The CLI maps these onto stable exit codes: ValidationError -> 1,
DataError -> 2, OSError (a failed write) -> 1, anything else -> 3.
"""

from __future__ import annotations

import os
from pathlib import Path


class FacedctError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(FacedctError):
    """Bad configuration or arguments supplied by the caller."""


class DataError(FacedctError):
    """Problem with dataset content, file payloads, or their consistency."""


class MismatchError(DataError):
    """Feature dimension or channel disagreement between pipeline stages."""


def read_bytes(path: str | Path, error: type[FacedctError]) -> bytes:
    """The bytes of ``path``.  A file that cannot be read (missing, a
    directory, no permission) raises ``error`` naming the path."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path``, creating its directory if need be, through
    a temporary file in that directory, so that a failed write leaves the old
    file (or none) in place.  A failure raises OSError naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
