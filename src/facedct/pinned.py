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
pin.  They are parsed in place, as a read-only view of the bytes that were
hashed, by ``np.load``'s header reader, which loads no pickle, and must then
be a finite ``'<f8'`` array of the expected shape, or the read is an error
naming the file.
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
    read-only view of them.  It must be a finite ``'<f8'`` array of
    ``shape``, in which None matches any length, or it is an ``error``
    naming ``path``; ``noun`` names one number of the array in the message
    for a non-finite one."""
    with naming(f"corrupt {path}", error, ValueError):
        array = _npy_array(data)
    if array.dtype != np.dtype("<f8") or not (
        array.ndim == len(shape) and all(n in (None, m) for m, n in zip(array.shape, shape))
    ):
        want = ", ".join("*" if n is None else str(n) for n in shape)
        raise error(
            f"{path} holds a {array.dtype.str} array of shape {array.shape}, "
            f"not <f8 of shape ({want})"
        )
    if not np.isfinite(array).all():
        raise error(f"{path} has a non-finite {noun}")
    return array
