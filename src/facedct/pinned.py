"""A text table with a digest-pinned ``.npy`` copy: the one write order and
the one check of pinned ``.npy`` bytes that the gallery and the score table
share.  Each table reads its own files and states its own trust rule in
the module that owns its format.

:func:`save_pinned` writes a pinned table as three files, or two when it
is given no text, in this order, each streamed through
:func:`~facedct.errors.write_atomic`, which returns the sha256 of the bytes
it wrote:

1. the ``.npy``: the array as ``'<f8'``, C order, no pickle, written as its
   header and then the array's own buffer, with the bytes ``np.save``
   gives;
2. the text, if any: the same table in its exchange format, written as the
   byte chunks its producer yields;
3. the manifest: strict JSON, with no NaN or infinity, that records the
   sha256 of the files written before it under their file names.  Without
   a text it pins the ``.npy`` alone, which is then the whole table.

So the writing process copies no file and holds none whole in memory to
write or hash it, except the gallery's text, which is built whole.  The
manifest is written last, so it is the commit point: a write cut before it
leaves the old manifest, whose digests the new files do not match.

:func:`pinned_array` is the one check of a ``.npy`` whose bytes match their
pin.  It reads them in the one layout every save has written: a format
1.0 header, parsed by numpy's reader of it, of a C-order ``'<f8'`` array of
the expected shape, then exactly the array's values, all finite.  The
array is a read-only view of the bytes that were hashed.  Any other
``.npy`` (another format version, Fortran order, another dtype, bytes
after the values) is an error naming the file, though ``np.load`` would
read it.  This module is the one that touches the ``.npy`` format.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import tokenize
from collections.abc import Iterable
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DataError, naming, write_atomic


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _npy_chunks(array: np.ndarray) -> tuple[bytes, memoryview]:
    """The bytes of ``np.save(array as '<f8', allow_pickle=False)`` as two
    chunks: the format 1.0 header, then the C-order array's own buffer."""
    array = np.ascontiguousarray(array, dtype="<f8")
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(array))
    return header.getvalue(), memoryview(array)


def save_pinned(
    npy: Path,
    array: np.ndarray,
    text: Path | None,
    chunks: bytes | Iterable[bytes] | None,
    manifest: Path,
    fields: Callable[[dict], dict],
) -> None:
    """Write ``array`` to ``npy``, then ``chunks``, bytes or byte chunks in
    order, to ``text`` unless it is None, then the JSON of
    ``fields(digests)`` to ``manifest``, where ``digests`` maps the names of
    the files written to the sha256 of their bytes, as :func:`write_atomic`
    returns them."""
    digests = {npy.name: write_atomic(npy, _npy_chunks(array))}
    if text is not None:
        digests[text.name] = write_atomic(text, chunks)
    record = json.dumps(fields(digests), indent=1, allow_nan=False)
    write_atomic(manifest, (record + "\n").encode())


def pinned_array(
    path: Path, data: bytes, shape: tuple[int | None, ...], error: type[DataError], noun: str
) -> np.ndarray:
    """The array of the pinned ``.npy`` bytes ``data`` read from ``path``, as a
    read-only view of them.  They must be in the one layout every save
    wrote: a format 1.0 header of a C-order ``'<f8'`` array of ``shape``, in
    which None matches any length, then exactly its values, all finite; or
    the read is an ``error`` naming ``path``.  ``noun`` names one number of
    the array in the message for a non-finite one."""
    stream = io.BytesIO(data)
    # numpy's retry of a header as a Python 2 one can fail with a SyntaxError
    # or a TokenError
    with naming(f"corrupt {path}", error, (ValueError, SyntaxError, tokenize.TokenError)):
        version = np.lib.format.read_magic(stream)
        if version != (1, 0):
            raise ValueError(f"format version {version}, not (1, 0)")
        got, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
    if dtype != np.dtype("<f8") or not (
        len(got) == len(shape) and all(n in (None, m) for m, n in zip(got, shape))
    ):
        want = ", ".join("*" if n is None else str(n) for n in shape)
        raise error(f"{path} holds a {dtype.str} array of shape {got}, not <f8 of shape ({want})")
    if fortran_order:
        raise error(f"corrupt {path}: its values are in Fortran order, not C order")
    count, offset = math.prod(got), stream.tell()
    if len(data) - offset != 8 * count:
        raise error(f"corrupt {path}: {len(data) - offset} bytes follow its header, not {8 * count}")
    array = np.frombuffer(data, "<f8", count, offset).reshape(got)
    if not np.isfinite(array).all():
        raise error(f"{path} has a non-finite {noun}")
    return array
