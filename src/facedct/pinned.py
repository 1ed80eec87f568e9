"""A text table with a digest-pinned ``.npy`` copy: the one write order and
the one set of trust rules that the gallery and the score table share.

A pinned table is three files, written in this order, each through
:func:`~facedct.errors.write_atomic`:

1. the ``.npy``: the array as ``'<f8'``, C order, no pickle;
2. the text: the same table in its exchange format;
3. the manifest: JSON that records the sha256 of the other two under their
   file names.

The manifest is written last, so it is the commit point: a write cut before
it leaves the old manifest, whose digests the new files do not match.  On
read, the ``.npy`` is used only when the manifest pins both the text as read
and the ``.npy``.  It is read by ``np.load``'s reader, which loads no
pickle, and must then be a finite ``'<f8'`` array of the expected shape, or
the read is an error naming it.  In every other case the caller parses the
text.

The two tables differ in what a broken pin means:

- strict (the gallery): the manifest is the commit point of the whole
  directory.  A manifest that cannot be read or is not JSON, digests that
  are not an object, a text that does not match its digest, and a ``.npy``
  that exists but cannot be read are errors.
- lenient (the score table): the text is the truth and the other two files
  are a cache of it.  In each of those cases the text is parsed.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DataError, read_bytes, write_atomic


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path: Path, data: bytes) -> str:
    write_atomic(path, data)
    return sha256(data)


def _npy_bytes(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(array, dtype="<f8"), allow_pickle=False)
    return buf.getvalue()


@dataclass(frozen=True)
class PinnedTable:
    """The three files of one pinned table and how a broken pin is met.

    Errors are raised as ``error``; ``noun`` names one number of the array
    in the message for a non-finite one.
    """

    npy: Path
    text: Path
    manifest: Path
    error: type[DataError]
    strict: bool
    noun: str

    def save(
        self, array: np.ndarray, text: Callable[[], bytes], manifest: Callable[[dict], dict]
    ) -> None:
        """Write ``array`` as the ``.npy``, then the bytes ``text()`` returns,
        then the JSON of ``manifest(digests)``, where ``digests`` maps each of
        the two file names to the sha256 of its bytes.  The ``.npy`` bytes are
        freed before ``text()`` is called, so the two never share memory."""
        digests = {self.npy.name: _write(self.npy, _npy_bytes(array))}
        digests[self.text.name] = _write(self.text, text())
        write_atomic(self.manifest, (json.dumps(manifest(digests), indent=1) + "\n").encode())

    def read_manifest(self) -> object:
        """The JSON value of the manifest; one that cannot be read or parsed
        is an error naming it when strict, and None otherwise."""
        data = self._read(self.manifest)
        try:
            return None if data is None else json.loads(data)
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
            return self._broken(f"unreadable {self.manifest}: {exc}")

    def load(self, digests: object, text: bytes, shape: tuple[int | None, ...]) -> np.ndarray | None:
        """The array of the ``.npy`` when ``digests``, the manifest's sha256
        object, pins both ``text`` (the text file's bytes as read) and the
        ``.npy``; None when it does not and the caller is to parse ``text``.
        A pinned ``.npy`` must be a finite ``'<f8'`` array of ``shape``, in
        which None matches any length."""
        if not isinstance(digests, dict):
            return self._broken(f"{self.manifest.name} sha256 is not an object")
        if sha256(text) != digests.get(self.text.name):
            return self._broken(
                f"{self.text} does not match its sha256 in {self.manifest.name} "
                "(torn save or edited file)"
            )
        data = self._read(self.npy) if self.npy.exists() else None
        if data is None or sha256(data) != digests.get(self.npy.name):
            return None
        try:
            array = np.lib.format.read_array(io.BytesIO(data), allow_pickle=False)
        except ValueError as exc:
            raise self.error(f"corrupt {self.npy}: {exc}") from None
        if array.dtype != np.dtype("<f8") or not (
            array.ndim == len(shape) and all(n in (None, m) for m, n in zip(array.shape, shape))
        ):
            want = ", ".join("*" if n is None else str(n) for n in shape)
            raise self.error(
                f"{self.npy} holds a {array.dtype.str} array of shape {array.shape}, "
                f"not <f8 of shape ({want})"
            )
        if not np.isfinite(array).all():
            raise self.error(f"{self.npy} has a non-finite {self.noun}")
        return array

    def _read(self, path: Path) -> bytes | None:
        try:
            return read_bytes(path, self.error)
        except self.error:
            if self.strict:
                raise
            return None

    def _broken(self, message: str) -> None:
        if self.strict:
            raise self.error(message)
        return None
