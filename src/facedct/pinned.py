"""A text table with a digest-pinned ``.npy`` copy: the one write order and
the one set of trust rules that the gallery and the score table share.

A pinned table is three files, written in this order, each streamed through
:func:`~facedct.errors.write_atomic`, which returns the sha256 of the bytes
it wrote:

1. the ``.npy``: the array as ``'<f8'``, C order, no pickle, written as its
   header and then the array's own buffer, with the bytes ``np.save``
   gives;
2. the text: the same table in its exchange format, written as the byte
   chunks its producer yields, one per probe row for the score table;
3. the manifest: JSON that records the sha256 of the other two under their
   file names.

So no file is copied or held whole in memory to be written or hashed,
except the gallery's text, which is built whole.  The manifest is written
last, so it is the commit point: a write cut before it leaves the old
manifest, whose digests the new files do not match.  On read, the ``.npy``
is used only when the manifest pins both the text as read and the ``.npy``.
It is read by ``np.load``'s reader, which loads no pickle, and must then be
a finite ``'<f8'`` array of the expected shape, or the read is an error
naming it.  In every other case the caller parses the text.

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
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DataError, parse_json, read_bytes, write_atomic


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _npy_chunks(array: np.ndarray) -> tuple[bytes, memoryview]:
    """The bytes of ``np.save(array as '<f8', allow_pickle=False)`` as two
    chunks: the format 1.0 header, then the C-order array's own buffer."""
    array = np.ascontiguousarray(array, dtype="<f8")
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(array))
    return header.getvalue(), memoryview(array)


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
        self,
        array: np.ndarray,
        text: Callable[[], bytes | Iterable[bytes]],
        manifest: Callable[[dict], dict],
    ) -> None:
        """Write ``array`` as the ``.npy``, then what ``text()`` returns, its
        bytes or its byte chunks in order, then the JSON of
        ``manifest(digests)``, where ``digests`` maps each of the two file
        names to the sha256 of its bytes, as :func:`write_atomic` returns
        them.  ``text()`` is called once the ``.npy`` is written."""
        digests = {self.npy.name: write_atomic(self.npy, _npy_chunks(array))}
        digests[self.text.name] = write_atomic(self.text, text())
        write_atomic(self.manifest, (json.dumps(manifest(digests), indent=1) + "\n").encode())

    def read_manifest(self) -> object:
        """The JSON value of the manifest; one that cannot be read or parsed
        is an error naming it when strict, and None otherwise."""
        return self._lenient(
            lambda: parse_json(read_bytes(self.manifest, self.error), self.manifest, self.error)
        )

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
        data = None
        if self.npy.exists():
            data = self._lenient(lambda: read_bytes(self.npy, self.error))
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

    def _lenient(self, read: Callable[[], object]) -> object:
        """What ``read()`` returns; when it raises the table's error, None if
        the table is lenient."""
        try:
            return read()
        except self.error:
            if self.strict:
                raise
            return None

    def _broken(self, message: str) -> None:
        if self.strict:
            raise self.error(message)
        return None
