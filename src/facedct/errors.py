"""Shared exception hierarchy, how an input error names its source, and
the read and write paths for files.

The CLI maps these onto stable exit codes: ValidationError -> 1,
DataError -> 2, OSError (a failed write) -> 1, anything else -> 3.

An input error names the file whose bytes are wrong: the config, the
manifest, an image, a score file or its ``scores.npy``, a gallery file.
When those bytes name another file, as a manifest names its images, an
error in that file names it and the subject it belongs to
(``subject 's1', image <path>: ...``).  A config field's value is named
by its field (``config field 'dim': ...``), not by the file, since a flag
can supply it.  A complaint caught from a rule is raised again with its
source before it, as ``<source>: <complaint>``, by :class:`naming` alone;
a caught error is raised again in another form only where the message
has another form, as a read or a write that fails names its path and the
system's reason.

Every file is written by :func:`write_atomic`, which streams its data,
bytes or an iterable of byte chunks, into a temporary file and one
incremental sha256, and returns the digest, so that no caller holds a
second copy of what it writes to hash it.  Every file is read by
:func:`read_bytes`, or through the open file of :func:`reading` where the
reader need not hold it whole; both name the file when it cannot be read.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO


class FacedctError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(FacedctError):
    """Bad configuration or arguments supplied by the caller."""


class DataError(FacedctError):
    """Problem with dataset content, file payloads, or their consistency."""


class MismatchError(DataError):
    """Feature dimension or channel disagreement between pipeline stages."""


class naming:
    """``with naming(source, error, catch):``, where an exception of a
    ``catch`` class that leaves the block is raised again as ``error``, or
    as its own class when ``error`` is None, with the message
    ``f"{source}: {exc}"``, or ``str(exc)`` when ``source`` is None.  Any
    other exception passes through.  A class, not a generator, since
    :func:`~facedct.pipeline.featurize_image` enters one per image."""

    def __init__(self, source: object, error: type[FacedctError] | None = None,
                 catch: type[Exception] | tuple[type[Exception], ...] = FacedctError) -> None:
        self.source, self.error, self.catch = source, error, catch

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if kind is not None and issubclass(kind, self.catch):
            message = str(exc) if self.source is None else f"{self.source}: {exc}"
            raise (self.error or kind)(message) from exc


def read_bytes(path: str | Path, error: type[FacedctError]) -> bytes:
    """The bytes of ``path``.  A file that cannot be read (missing, a
    directory, no permission, a name with a lone surrogate, which no file
    has) raises ``error`` naming the path."""
    try:
        return Path(path).read_bytes()
    except (OSError, UnicodeEncodeError) as exc:
        raise error(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


#: the most bytes read at a time from a file or a pipe by a reader that
#: need not hold them all: the default pipe capacity on Linux
CHUNK_SIZE = 1 << 16


@contextmanager
def reading(path: str | Path, error: type[FacedctError]) -> Iterator[BinaryIO]:
    """``with reading(path, error) as f:``, where ``f`` is ``path`` open for
    reading bytes, for a reader that need not hold them all.  A file that
    cannot be opened or read in the block raises ``error`` naming the path,
    as :func:`read_bytes` does."""
    try:
        with open(path, "rb") as f:
            yield f
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None


def parse_json(data: bytes | str, source: object, error: type[FacedctError]) -> object:
    """The JSON value of ``data``, read from ``source`` (a path, or the words
    that name where the text came from).  Text that is not UTF-8, not JSON,
    or nested past the parser's limit raises ``error`` naming ``source``."""
    # ValueError includes UnicodeDecodeError
    with naming(f"unreadable {source}", error, (ValueError, RecursionError)):
        return json.loads(data)


def _write_chunks(path: Path, chunks: Iterable[bytes | memoryview]) -> str:
    """Write ``chunks`` in order to the new file ``path``; the sha256 of
    their bytes.  Every file write goes through here."""
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def write_atomic(path: str | Path, data: bytes | Iterable[bytes | memoryview]) -> str:
    """Write ``data``, bytes or an iterable of byte chunks, to ``path`` and
    return the sha256 hex digest of the bytes written.

    The directory is created if need be.  Each chunk goes to a temporary
    file in that directory and into one incremental sha256, and the file is
    renamed onto ``path`` only when every chunk is written, so a failed
    write, or an iterable that raises, leaves the old file (or none) in
    place and no temporary file.  An OSError, of the write or of the
    iterable, is raised as one naming ``path``; any other error passes
    through."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            digest = _write_chunks(tmp, [data] if isinstance(data, bytes) else data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return digest


def remove_file(path: str | Path) -> None:
    """Remove the file ``path`` if there is one.  A parent that is missing or
    is a file leaves nothing to remove; any other failure raises OSError
    naming ``path``."""
    try:
        Path(path).unlink(missing_ok=True)
    except NotADirectoryError:
        pass
    except OSError as exc:
        raise OSError(f"cannot remove {path}: {exc.strerror or exc}") from exc
