"""DCT feature extraction.

A normalized gray plane is mapped to a D-dimensional feature vector by
taking the orthonormal 2-D DCT and keeping the first D coefficients in
zigzag (low-frequency-first) order, DC included.  D defaults to 100.
"""

from __future__ import annotations

import csv
import io
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


def extract_features(
    plane: np.ndarray,
    dim: int = DEFAULT_DIM,
    source_channel: str = "gray",
    subject_id: str | None = None,
) -> FeatureVector:
    """First ``dim`` zigzag-ordered DCT coefficients of a square plane."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2 or plane.shape[0] != plane.shape[1]:
        raise ValueError("feature extraction expects the canonical square window")
    n = plane.shape[0]
    if not 1 <= dim <= n * n:
        raise ValueError(f"dim must be in [1, {n * n}], got {dim}")
    rows, cols = _zigzag_index(n, dim)
    return FeatureVector(dct2(plane)[rows, cols], source_channel, subject_id)


def feature_to_row(vec: FeatureVector) -> list[str]:
    """CSV row: subjectId, sourceChannel, dim, then coefficients at 17 sig digits."""
    return [
        vec.subject_id if vec.subject_id is not None else "",
        vec.source_channel,
        str(vec.dim),
        *(f"{c:.17g}" for c in vec.coeffs),
    ]


def feature_from_row(row: list[str]) -> FeatureVector:
    """Inverse of :func:`feature_to_row`; round-trip exact for 64-bit floats."""
    if len(row) < 4:
        raise DataError(f"feature row too short ({len(row)} fields)")
    subject = row[0] or None
    channel = row[1]
    try:
        dim = int(row[2])
        coeffs = np.array([float(v) for v in row[3:]], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"malformed feature row: {exc}") from exc
    if coeffs.size != dim:
        raise DataError(f"feature row declares dim={dim} but carries {coeffs.size} coefficients")
    try:
        return FeatureVector(coeffs, channel, subject)
    except ValueError as exc:
        raise DataError(f"malformed feature row: {exc}") from exc


def features_to_csv(vectors: list[FeatureVector]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for vec in vectors:
        writer.writerow(feature_to_row(vec))
    return buf.getvalue()


def features_from_csv(text: str) -> list[FeatureVector]:
    """Row-by-row reader of :func:`features_to_csv`; the reference that
    :func:`feature_matrix_from_csv` is tested against."""
    reader = csv.reader(io.StringIO(text))
    return [feature_from_row(row) for row in reader if row]


def feature_matrix_from_csv(text: str) -> tuple[list[str], str | None, np.ndarray]:
    """Rows of :func:`features_to_csv` as ``(labels, channel, matrix)``.

    ``labels`` holds each row's subject id (``""`` when the row has none),
    ``channel`` the source channel all rows share, and ``matrix`` the
    coefficients as one float64 ``(N, D)`` array, parsed in a single call.
    Every row :func:`feature_from_row` rejects is a DataError here too, and
    so are rows that differ in dim or channel.  An empty text gives no
    labels, channel None and a ``(0, 0)`` matrix.
    """
    if '"' in text or "\r" in text:
        # csv.writer quotes a subject id holding a comma, quote or newline;
        # without those characters a row is exactly its line split at commas
        try:
            rows = [
                r[:3] + [",".join(r[3:])] if len(r) > 3 else r
                for r in csv.reader(io.StringIO(text))
                if r
            ]
        except csv.Error as exc:
            raise DataError(f"malformed feature row: {exc}") from exc
    else:
        rows = [line.split(",", 3) for line in text.split("\n") if line]
    if not rows:
        return [], None, np.empty((0, 0))
    for n, row in enumerate(rows, 1):
        if len(row) < 4:
            raise DataError(f"feature row {n} too short ({len(row)} fields)")
    channels = sorted({row[1] for row in rows})
    if len(channels) > 1:
        raise DataError(f"feature rows mix channels {channels}")
    if channels[0] not in CHANNELS:
        raise DataError(f"unknown source channel {channels[0]!r}")
    try:
        dims = [int(row[2]) for row in rows]
        # one C-level parse of every coefficient; rows of unequal length fail
        matrix = np.loadtxt(
            [row[3] for row in rows], dtype=np.float64, delimiter=",", comments=None, ndmin=2
        )
    except ValueError as exc:
        raise DataError(f"malformed feature row: {exc}") from exc
    if len(matrix) != len(rows):
        # loadtxt skips a blank line, so a row without coefficients vanishes
        raise DataError("feature row without coefficients")
    dim = matrix.shape[1]
    bad = next((n for n, d in enumerate(dims) if d != dim), None)
    if bad is not None:
        raise DataError(
            f"feature row {bad + 1} declares dim={dims[bad]} but carries {dim} coefficients"
        )
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise DataError(f"feature row {int(np.argmin(finite)) + 1} has a non-finite coefficient")
    return [row[0] for row in rows], channels[0], matrix
