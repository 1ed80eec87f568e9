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
manifest, whose digests the new files do not match.

On read, every byte that is used is checked against its pin, and a file is
checked when it is read.  The ``.npy`` is used only when the manifest pins
it.  It is parsed in place, as a read-only view of the bytes that were
hashed, by ``np.load``'s header reader, which loads no pickle, and must then
be a finite ``'<f8'`` array of the expected shape, or the read is an error
naming it.  The text is checked against its pin when it is read; in every
case where the ``.npy`` is not used, the caller reads and parses the text.

The two tables differ in when the text is read and in what a broken pin
means:

- strict (the gallery): the manifest is the commit point of the whole
  directory, so a pinned ``.npy`` is trusted on its own pin and the text is
  read only when the ``.npy`` is missing or stale.  A torn save is still
  caught: the ``.npy`` is written first, so a save cut before the manifest
  leaves a ``.npy`` that fails its pin, and the text must then match its
  own.  A manifest that cannot be read or is not JSON, digests that are not
  an object, a text that does not match its digest, and a ``.npy`` that
  exists but cannot be read are errors.
- lenient (the score table): the text is the truth and the other two files
  are a cache of it.  The caller reads the text anyway, so it is checked
  first, and the ``.npy`` is used only when the manifest pins both.  In
  each of the cases above the text is parsed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import tokenize
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


#: the header reader of each ``.npy`` format version; 3.0 differs from 2.0
#: only in decoding its header as UTF-8, which an ASCII header never needs
_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
    (3, 0): np.lib.format.read_array_header_2_0,
}


def _npy_array(data: bytes) -> np.ndarray:
    """The array of the ``.npy`` file ``data`` as a read-only view of its
    bytes: what ``np.lib.format.read_array(..., allow_pickle=False)`` gives,
    without the copy.  A file that reader rejects, such as an object array
    or one shorter than its header says, is a ValueError, and so is one
    whose header it fails on with another error; bytes past the array are
    ignored, as that reader ignores them."""
    stream = io.BytesIO(data)
    version = np.lib.format.read_magic(stream)
    if version not in _HEADER_READERS:
        raise ValueError(f"we only support format version (1,0), (2,0), and (3,0), not {version}")
    try:
        shape, fortran_order, dtype = _HEADER_READERS[version](stream)
    except (SyntaxError, tokenize.TokenError) as exc:  # from its retry of a Python 2 header
        raise ValueError(f"Cannot parse header: {exc}") from None
    if dtype.hasobject:
        raise ValueError("Object arrays cannot be loaded when allow_pickle=False")
    offset, count = stream.tell(), math.prod(shape)
    if len(data) - offset < count * dtype.itemsize:
        raise ValueError(
            f"EOF: reading array data, expected {count * dtype.itemsize} bytes "
            f"got {len(data) - offset}"
        )
    array = np.frombuffer(data, dtype, count, offset)
    if array.size != count:
        raise ValueError(f"Failed to read all data for array: expected {shape} = {count} elements")
    return array.reshape(shape[::-1]).T if fortran_order else array.reshape(shape)


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

    def load(
        self, digests: object, text: bytes | None, shape: tuple[int | None, ...]
    ) -> np.ndarray | None:
        """The array of the ``.npy`` when ``digests``, the manifest's sha256
        object, pins it, and also pins ``text`` when that is given; None when
        it does not and the caller is to parse the text.  ``text`` is the
        text file's bytes as the caller read them, or None when it has not
        read them: a lenient table's caller reads its text anyway, and a
        strict table reads its text with :meth:`read_text` only when this
        returns None.  A pinned ``.npy`` must be a finite ``'<f8'`` array of
        ``shape``, in which None matches any length; the array is a
        read-only view of the file's bytes."""
        if not isinstance(digests, dict):
            return self._broken(f"{self.manifest.name} sha256 is not an object")
        if text is not None and not self._pins_text(digests, text):
            return None
        data = None
        if self.npy.exists():
            data = self._lenient(lambda: read_bytes(self.npy, self.error))
        if data is None or sha256(data) != digests.get(self.npy.name):
            return None
        try:
            array = _npy_array(data)
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

    def read_text(self, digests: dict) -> bytes:
        """The text file's bytes, checked against their pin in ``digests``
        as they are read: a mismatch is an error when strict."""
        text = read_bytes(self.text, self.error)
        self._pins_text(digests, text)
        return text

    def _pins_text(self, digests: dict, text: bytes) -> bool:
        """Whether ``digests`` pins ``text``; a strict table raises if not."""
        if sha256(text) == digests.get(self.text.name):
            return True
        self._broken(
            f"{self.text} does not match its sha256 in {self.manifest.name} "
            "(torn save or edited file)"
        )
        return False

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
