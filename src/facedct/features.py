"""DCT feature extraction.

A normalized gray plane is mapped to a D-dimensional feature vector by
taking the orthonormal 2-D DCT and keeping the first D coefficients in
zigzag (low-frequency-first) order, DC included.  D defaults to 100.
:func:`_coefficients` is the one function that does this: it writes the
coefficients into a caller's array, which is how ``pipeline.featurize_image``
fills a matrix row, and :func:`extract_features` wraps its result in a
:class:`FeatureVector`.

A CSV row holds subject id (csv-quoted when needed), channel, dim and the
coefficients at 17 significant digits, so a float64 round-trips exactly.
``feature_matrix_to_csv`` writes a matrix as rows, and
``feature_matrix_from_csv`` reads them back with one ``np.loadtxt`` call.
"""

from __future__ import annotations

import io
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DataError
from .imageio import CHANNELS

DEFAULT_DIM = 100


@dataclass
class FeatureVector:
    """D retained DCT coefficients describing one face image."""

    coeffs: np.ndarray = field(repr=False)
    source_channel: str = "gray"
    subject_id: str | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.float64).reshape(-1)
        if arr.size < 1:
            raise ValueError("feature vector must have at least one coefficient")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature coefficients must be finite")
        if self.source_channel not in CHANNELS:
            raise ValueError(f"unknown source channel {self.source_channel!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def dim(self) -> int:
        return int(self.coeffs.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return (
            self.source_channel == other.source_channel
            and self.subject_id == other.subject_id
            and np.array_equal(self.coeffs, other.coeffs)
        )


@lru_cache(maxsize=None)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis: C[k, m] = s(k) cos(pi (2m+1) k / 2n).

    s(0) = sqrt(1/n), s(k>0) = sqrt(2/n); rows are orthonormal, so the
    inverse transform is the transpose.
    """
    if n < 1:
        raise ValueError("transform size must be >= 1")
    k = np.arange(n, dtype=np.float64)[:, None]
    m = np.arange(n, dtype=np.float64)[None, :]
    c = np.cos(np.pi * (2.0 * m + 1.0) * k / (2.0 * n))
    c *= np.sqrt(2.0 / n)
    c[0, :] = np.sqrt(1.0 / n)
    c.flags.writeable = False
    return c


def dct2(plane: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of a plane, applied separably to rows and columns."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2 or plane.shape[0] < 1 or plane.shape[1] < 1:
        raise ValueError("plane must be a non-empty 2-D array")
    ch = dct_matrix(plane.shape[0])
    cw = dct_matrix(plane.shape[1])
    return ch @ plane @ cw.T


def idct2(spectrum: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct2` (orthonormal, so just the transposed basis)."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.ndim != 2 or spectrum.shape[0] < 1 or spectrum.shape[1] < 1:
        raise ValueError("spectrum must be a non-empty 2-D array")
    ch = dct_matrix(spectrum.shape[0])
    cw = dct_matrix(spectrum.shape[1])
    return ch.T @ spectrum @ cw


@lru_cache(maxsize=None)
def zigzag_order(n: int) -> tuple[tuple[int, int], ...]:
    """JPEG-style zigzag traversal of an n x n grid.

    Starts at (0,0) then (0,1); anti-diagonals alternate direction, odd
    diagonals walking down-left and even ones up-right.
    """
    if n < 1:
        raise ValueError("grid side must be >= 1")
    order: list[tuple[int, int]] = []
    for d in range(2 * n - 1):
        lo = max(0, d - n + 1)
        hi = min(n - 1, d)
        rows = range(lo, hi + 1) if d % 2 == 1 else range(hi, lo - 1, -1)
        order.extend((i, d - i) for i in rows)
    return tuple(order)


@lru_cache(maxsize=None)
def _zigzag_index(n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (rows, cols) index arrays of the first ``dim`` zigzag cells."""
    order = zigzag_order(n)[:dim]
    rows = np.fromiter((rc[0] for rc in order), dtype=np.intp, count=dim)
    cols = np.fromiter((rc[1] for rc in order), dtype=np.intp, count=dim)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@lru_cache(maxsize=None)
def _zigzag_flat(n: int, dim: int) -> np.ndarray:
    """Read-only C-order flat indices of the first ``dim`` zigzag cells."""
    rows, cols = _zigzag_index(n, dim)
    flat = rows * n + cols
    flat.flags.writeable = False
    return flat


def _coefficients(plane: np.ndarray, dim: int, out: np.ndarray | None = None) -> np.ndarray:
    """The first ``dim`` zigzag-ordered DCT coefficients of a square float64
    plane, written into ``out`` (a new array when None) and returned."""
    if plane.ndim != 2 or plane.shape[0] != plane.shape[1]:
        raise ValueError("feature extraction expects the canonical square window")
    n = plane.shape[0]
    if not 1 <= dim <= n * n:
        raise ValueError(f"dim must be in [1, {n * n}], got {dim}")
    return np.take(dct2(plane), _zigzag_flat(n, dim), out=out)


def extract_features(
    plane: np.ndarray,
    dim: int = DEFAULT_DIM,
    source_channel: str = "gray",
    subject_id: str | None = None,
) -> FeatureVector:
    """First ``dim`` zigzag-ordered DCT coefficients of a square plane."""
    coeffs = _coefficients(np.asarray(plane, dtype=np.float64), dim)
    return FeatureVector(coeffs, source_channel, subject_id)


def _csv_field(text: str) -> str:
    # as csv.writer quotes it, and also on a carriage return, which
    # np.loadtxt would otherwise take for a line break
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def feature_matrix_to_csv(labels: list[str], channel: str, matrix: np.ndarray) -> str:
    """Inverse of :func:`feature_matrix_from_csv`: one row per matrix row,
    ``label,channel,dim,c1,...,cD`` with each coefficient as ``{:.17g}`` and
    each label quoted as ``csv.writer`` quotes it, and also when it holds a
    carriage return."""
    head = f",{channel},{matrix.shape[1]},"
    return "".join(
        _csv_field(label) + head + ",".join(map("{:.17g}".format, row)) + "\n"
        for label, row in zip(labels, matrix.tolist())
    )


#: a row's subject id, csv-quoted or bare, then the rest of its first line
_FIRST_LINE = re.compile(rb'[\r\n]*(?=[^\r\n])("(?:[^"]|"")*"|[^,\r\n]*)([^\r\n]*)')


def _load_rows(data: bytes, row: list) -> np.ndarray:
    opts = dict(delimiter=",", quotechar='"', comments=None, ndmin=1, encoding="utf-8")
    return np.loadtxt(io.BytesIO(data), row, **opts)


def first_bad_row(pieces: Iterable[bytes], load: Callable) -> tuple[int, str] | None:
    """Index of the first of ``pieces`` from which ``load`` (``np.loadtxt``)
    does not read exactly one row, and why, or None.  A blank piece is one;
    it is not loaded, as ``np.loadtxt`` would skip it with a warning."""
    for n, piece in enumerate(pieces):
        if not piece.strip():
            return n, "blank line"
        try:
            count = load(piece).size
        except ValueError as exc:  # UnicodeDecodeError included
            # loadtxt's row numbers mix 0- and 1-based; the caller names the row
            return n, str(exc).partition(" at row ")[0]
        if count != 1:
            return n, f"{count} rows in one line"
    return None


def feature_matrix_from_csv(data: bytes | str) -> tuple[list[str], str | None, np.ndarray]:
    """Feature rows, UTF-8 bytes or text, as ``(labels, channel, matrix)``:
    each row's subject id (``""`` for none), the channel all rows share and
    the float64 ``(N, D)`` coefficients, D being the first row's count.  One
    ``np.loadtxt`` call parses every row, csv-quoted ids included.  A row
    that is short, declares a dim other than its coefficient count, names an
    unknown channel or holds a non-numeric or non-finite coefficient is a
    DataError, and so are rows that differ in dim or channel.  An empty text
    gives no labels, channel None and a ``(0, 0)`` matrix.
    """
    data = data.encode() if isinstance(data, str) else data
    if not data.strip(b"\r\n"):
        return [], None, np.empty((0, 0))
    # after the id, the first line holds ",channel,dim,c1,...,cD"
    dim = _FIRST_LINE.match(data).group(2).count(b",") - 2
    if dim < 1:
        raise DataError(f"feature row 1 too short ({dim + 3} fields)")
    row = [("label", object), ("channel", object), ("dim", np.int64), ("coeffs", np.float64, dim)]
    try:
        rows = _load_rows(data, row)
    except ValueError:  # UnicodeDecodeError included
        pieces = (match.group(0) for match in _FIRST_LINE.finditer(data))
        bad = first_bad_row(pieces, lambda piece: _load_rows(piece, row))
        if bad is None:
            raise DataError("malformed feature rows") from None
        raise DataError(f"malformed feature row {bad[0] + 1}: {bad[1]}") from None
    channels = sorted(set(rows["channel"]))
    if len(channels) > 1:
        raise DataError(f"feature rows mix channels {channels}")
    if channels[0] not in CHANNELS:
        raise DataError(f"unknown source channel {channels[0]!r}")
    bad = np.flatnonzero(rows["dim"] != dim)
    if bad.size:
        n = bad[0]
        raise DataError(
            f"feature row {n + 1} declares dim={rows['dim'][n]} but carries {dim} coefficients"
        )
    matrix = np.ascontiguousarray(rows["coeffs"])
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise DataError(f"feature row {int(np.argmin(finite)) + 1} has a non-finite coefficient")
    return rows["label"].tolist(), channels[0], matrix
