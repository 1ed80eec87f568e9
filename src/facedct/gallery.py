"""Enrollment store: subjects -> ordered template vectors, plus the
train/test split rule and on-disk persistence.

A gallery holds its M templates as one contiguous, read-only float64
``(M, D)`` matrix with CSR-style subject offsets: subjects in lexicographic
order, each subject's templates in enrollment order, and subject
``subject_ids[j]`` owning rows ``offsets[j]:offsets[j + 1]``.  Matching
reduces one distance kernel over that matrix (see ``matching``).

A saved gallery (format ``facedct-gallery`` v1) is a directory of three
files, written in this order, each under a temporary name renamed into place:

1. ``templates.npy``: the matrix as ``'<f8'``, C order, no pickle.  This is
   what :func:`load_gallery` reads.
2. ``vectors.csv``: the same rows as text, one ``label,channel,dim,coeffs``
   row per template, for exchange; its bytes do not depend on the sidecar.
3. ``gallery.json``: the subjects with their template counts, the feature
   dim, the channel, the meta, and the sha256 of the other two files.

``gallery.json`` is the commit point.  A save cut before it leaves the old
``gallery.json``, whose digests the new files do not match.  On load,
``vectors.csv`` must match its digest or the gallery is rejected;
``templates.npy`` is used only when it matches its digest, and otherwise
``vectors.csv`` is parsed.  A ``gallery.json`` without digests (written
before they were) loads from ``vectors.csv`` alone.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, MismatchError, read_bytes, write_atomic
from .features import FeatureVector, feature_matrix_from_csv, feature_matrix_to_csv
from .imageio import CHANNELS, MAX_WINDOW

GALLERY_FORMAT = "facedct-gallery"
GALLERY_VERSION = 1

GALLERY_JSON = "gallery.json"
VECTORS_CSV = "vectors.csv"
TEMPLATES_NPY = "templates.npy"


class GalleryError(DataError):
    """Enrollment or persistence failure."""


class GalleryVersionError(GalleryError):
    """Persisted gallery written by an incompatible format version."""


class GalleryCorruptError(GalleryError):
    """Persisted gallery payload is inconsistent or truncated."""


class SplitError(DataError):
    """A subject cannot satisfy the requested sample split."""


@dataclass(frozen=True)
class SplitSpec:
    """1-based sample indices assigned to training and testing."""

    train_indices: frozenset[int]
    test_indices: frozenset[int]

    def __post_init__(self) -> None:
        for name, idx in (("train", self.train_indices), ("test", self.test_indices)):
            if not idx:
                raise ValueError(f"{name} index set must be non-empty")
            if any(i < 1 for i in idx):
                raise ValueError(f"{name} indices are 1-based and must be >= 1")
        if self.train_indices & self.test_indices:
            raise ValueError("train and test index sets must be disjoint")

    @classmethod
    def from_iterables(cls, train, test) -> "SplitSpec":
        return cls(frozenset(int(i) for i in train), frozenset(int(i) for i in test))


def select_samples(
    manifest: dict[str, list[Path]], indices: frozenset[int]
) -> dict[str, list[Path]]:
    """Each subject's samples at the given 1-based indices, in index order.

    Subjects are returned in lexicographic order.  A subject with fewer
    samples than the largest index is an error naming it; indices outside
    the given set need not exist.
    """
    needed = max(indices)
    for subject in sorted(manifest):
        if len(manifest[subject]) < needed:
            raise SplitError(
                f"subject {subject!r} has {len(manifest[subject])} samples "
                f"but the selection needs index {needed}"
            )
    order = sorted(indices)
    return {s: [manifest[s][i - 1] for i in order] for s in sorted(manifest)}


def apply_split(
    manifest: dict[str, list[Path]], split: SplitSpec
) -> tuple[dict[str, list[Path]], dict[str, list[Path]]]:
    """Partition each subject's ordered samples by 1-based index.

    Subjects are returned in lexicographic order.  A subject with fewer
    samples than the largest index of either set is an error naming it.
    """
    return (
        select_samples(manifest, split.train_indices),
        select_samples(manifest, split.test_indices),
    )


class Gallery:
    """Immutable-after-enrollment map of subject id -> template vectors.

    The first enrollment fixes the feature dimension and source channel.
    Templates live in :attr:`matrix`, subjects in lexicographic order so
    downstream score tensors are reproducible; enrollment may come in any
    subject order and is merged into the matrix on the next read.
    """

    def __init__(self) -> None:
        self._feature_dim: int | None = None
        self._channel: str | None = None
        self._ids: list[str] = []
        self._index: dict[str, int] = {}
        self._matrix = np.empty((0, 0))
        self._offsets = np.zeros(1, dtype=np.intp)
        self._staged: list[tuple[str, np.ndarray]] = []

    @classmethod
    def _of_subjects(
        cls, ids: list[str], counts: list[int], channel: str, matrix: np.ndarray
    ) -> "Gallery":
        """Gallery of a matrix whose rows are grouped by subject, ``counts[j]``
        rows for ``ids[j]``; the ids must be in strictly increasing order."""
        gallery = cls()
        gallery._feature_dim = int(matrix.shape[1])
        gallery._channel = channel
        gallery._hold(ids, counts, np.ascontiguousarray(matrix))
        return gallery

    def _merge(self, labels: list[str], rows: np.ndarray) -> None:
        """Add matrix rows labelled by subject after the enrolled ones; each
        subject keeps its rows in order, and subjects are sorted."""
        counts = np.diff(self._offsets).tolist()
        labels = [s for s, c in zip(self._ids, counts) for _ in range(c)] + labels
        if len(self._matrix):
            rows = np.concatenate([self._matrix, rows])
        rows_of: dict[str, list[int]] = {}
        for i, subject in enumerate(labels):
            rows_of.setdefault(subject, []).append(i)
        ids = sorted(rows_of)
        counts = [len(rows_of[s]) for s in ids]
        self._hold(ids, counts, rows[[i for s in ids for i in rows_of[s]]])

    def _hold(self, ids: list[str], counts: list[int], matrix: np.ndarray) -> None:
        """Take ``matrix``, rows grouped by subject in ``ids`` order, read-only."""
        matrix.flags.writeable = False
        offsets = np.zeros(len(ids) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        offsets.flags.writeable = False
        self._ids = ids
        self._index = {s: j for j, s in enumerate(ids)}
        self._matrix = matrix
        self._offsets = offsets

    def _flush(self) -> None:
        if self._staged:
            staged, self._staged = self._staged, []
            self._merge([s for s, _ in staged], np.array([row for _, row in staged]))

    @property
    def feature_dim(self) -> int | None:
        return self._feature_dim

    @property
    def channel(self) -> str | None:
        return self._channel

    @property
    def matrix(self) -> np.ndarray:
        """Read-only float64 ``(M, D)`` templates, grouped by subject."""
        self._flush()
        return self._matrix

    @property
    def offsets(self) -> np.ndarray:
        """Read-only ``(S + 1,)`` row offsets of the subjects in :attr:`matrix`."""
        self._flush()
        return self._offsets

    @property
    def subject_ids(self) -> list[str]:
        self._flush()
        return list(self._ids)

    @property
    def n_subjects(self) -> int:
        self._flush()
        return len(self._ids)

    @property
    def n_templates(self) -> int:
        return len(self._matrix) + len(self._staged)

    def templates_of(self, subject_id: str) -> list[FeatureVector]:
        self._flush()
        try:
            j = self._index[subject_id]
        except KeyError:
            raise GalleryError(f"subject {subject_id!r} is not enrolled") from None
        rows = self._matrix[self._offsets[j] : self._offsets[j + 1]]
        return [FeatureVector(row, self._channel, subject_id) for row in rows]

    def __contains__(self, subject_id: str) -> bool:
        self._flush()
        return subject_id in self._index

    def enroll(self, subject_id: str, vec: FeatureVector) -> None:
        """Append one template to a subject, preserving enrollment order."""
        if self._feature_dim is None:
            self._feature_dim = vec.dim
            self._channel = vec.source_channel
        if vec.dim != self._feature_dim:
            raise MismatchError(
                f"template dim {vec.dim} != gallery dim {self._feature_dim}"
            )
        if vec.source_channel != self._channel:
            raise MismatchError(
                f"template channel {vec.source_channel!r} != gallery channel {self._channel!r}"
            )
        if vec.subject_id is not None and vec.subject_id != subject_id:
            raise GalleryError(
                f"vector labelled {vec.subject_id!r} enrolled under {subject_id!r}"
            )
        self._staged.append((subject_id, vec.coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gallery):
            return NotImplemented
        self._flush()
        other._flush()
        return (
            self._feature_dim == other._feature_dim
            and self._channel == other._channel
            and self._ids == other._ids
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._matrix, other._matrix)
        )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def save_gallery(gallery: Gallery, directory: str | Path, meta: dict | None = None) -> None:
    """Persist as templates.npy + vectors.csv + gallery.json; load is bit-exact.

    Each file is written under a temporary name and renamed into place, in
    that order.  gallery.json, written last, records the sha256 of the bytes
    written to the other two, so it is the commit point: until it is renamed
    into place the directory still holds the old gallery.json, which the new
    vectors.csv does not match (see :func:`load_gallery`).  A failed save
    leaves no partial file behind.
    """
    if gallery.n_templates == 0:
        raise GalleryError("refusing to save an empty gallery (nothing enrolled)")
    directory = Path(directory)
    manifest = {
        "format": GALLERY_FORMAT,
        "version": GALLERY_VERSION,
        "feature_dim": gallery.feature_dim,
        "channel": gallery.channel,
        "subjects": [
            {"id": s, "templates": int(b - a)}
            for s, a, b in zip(gallery.subject_ids, gallery.offsets[:-1], gallery.offsets[1:])
        ],
    }
    if meta:
        manifest["meta"] = meta
    labels = [entry["id"] for entry in manifest["subjects"] for _ in range(entry["templates"])]
    npy = io.BytesIO()
    np.save(npy, np.ascontiguousarray(gallery.matrix, dtype="<f8"), allow_pickle=False)
    files = {
        TEMPLATES_NPY: npy.getvalue(),
        VECTORS_CSV: feature_matrix_to_csv(labels, gallery.channel, gallery.matrix).encode(),
    }
    manifest["sha256"] = {name: _sha256(data) for name, data in files.items()}
    for name, data in files.items():
        write_atomic(directory / name, data)
    write_atomic(directory / GALLERY_JSON, (json.dumps(manifest, indent=1) + "\n").encode())


def _check_window(window, feature_dim: int, directory: Path) -> None:
    # bool is an int subclass, but true/false is no window size
    if type(window) is not int or not 1 <= window <= MAX_WINDOW or window * window < feature_dim:
        raise GalleryCorruptError(
            f"gallery {directory}: meta.window {window!r} must be an integer in "
            f"[1, {MAX_WINDOW}] whose square covers feature_dim {feature_dim}"
        )


def _check_manifest(manifest, directory: Path) -> tuple[list[str], list[int], int, str, dict]:
    """The subject ids, their template counts, the feature dim, the channel
    and the meta that gallery.json lists, each checked; every source of the
    template matrix shares this check.  As :func:`save_gallery` writes them,
    the ids must be strictly increasing and each count at least 1."""
    if not isinstance(manifest, dict) or manifest.get("format") != GALLERY_FORMAT:
        raise GalleryVersionError(f"not a {GALLERY_FORMAT} payload")
    if manifest.get("version") != GALLERY_VERSION:
        raise GalleryVersionError(
            f"gallery version {manifest.get('version')!r} != supported {GALLERY_VERSION}"
        )
    subjects = manifest.get("subjects", [])
    if not isinstance(subjects, list):
        raise GalleryCorruptError(f"{GALLERY_JSON} subjects is not a list")
    ids: list[str] = []
    counts: list[int] = []
    for entry in subjects:
        if not isinstance(entry, dict):
            raise GalleryCorruptError(f"{GALLERY_JSON} subject entry {entry!r} is not an object")
        subject, count = entry.get("id"), entry.get("templates")
        if not isinstance(subject, str):
            raise GalleryCorruptError(f"{GALLERY_JSON} subject id {subject!r} is not a string")
        if ids and not ids[-1] < subject:
            raise GalleryCorruptError(
                f"{GALLERY_JSON} lists subject {subject!r} after {ids[-1]!r}"
            )
        if type(count) is not int or count < 1:
            raise GalleryCorruptError(f"subject {subject!r} lists {count!r} templates")
        ids.append(subject)
        counts.append(count)
    if not ids:
        raise GalleryCorruptError("persisted gallery holds no templates")
    feature_dim, channel = manifest.get("feature_dim"), manifest.get("channel")
    if type(feature_dim) is not int or feature_dim < 1:
        raise GalleryCorruptError(f"{GALLERY_JSON} feature_dim {feature_dim!r} is no dimension")
    if channel not in CHANNELS:
        raise GalleryCorruptError(f"{GALLERY_JSON} channel {channel!r} is unknown")
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise GalleryCorruptError(f"gallery {directory}: meta is not an object")
    if "window" in meta:
        _check_window(meta["window"], feature_dim, directory)
    return ids, counts, feature_dim, channel, meta


def _matrix_of_csv(
    data: bytes, path: Path, ids: list[str], counts: list[int], feature_dim: int, channel: str
) -> np.ndarray:
    """The templates of vectors.csv, whose rows must be the ones listed."""
    labels = [s for s, count in zip(ids, counts) for _ in range(count)]
    try:
        csv_labels, csv_channel, matrix = feature_matrix_from_csv(data)
    except DataError as exc:
        raise GalleryCorruptError(f"corrupt {path}: {exc}") from exc
    if len(csv_labels) != len(labels):
        raise GalleryCorruptError(
            f"{path} holds {len(csv_labels)} rows but {GALLERY_JSON} lists {len(labels)}"
        )
    if csv_labels != labels:
        # the row format writes no label and the label "" alike
        label, subject = next((a, b) for a, b in zip(csv_labels, labels) if a != b)
        raise GalleryCorruptError(f"row labelled {label!r} listed under subject {subject!r}")
    if matrix.shape[1] != feature_dim or csv_channel != channel:
        raise GalleryCorruptError(f"{GALLERY_JSON} metadata disagrees with {path}")
    return matrix


def _matrix_of_npy(data: bytes, path: Path, n_rows: int, feature_dim: int) -> np.ndarray:
    """The templates of templates.npy, read by np.load's .npy reader, which
    loads no pickle; it must be a finite '<f8' array of the listed shape."""
    try:
        matrix = np.lib.format.read_array(io.BytesIO(data), allow_pickle=False)
    except ValueError as exc:
        raise GalleryCorruptError(f"corrupt {path}: {exc}") from None
    if matrix.dtype != np.dtype("<f8") or matrix.shape != (n_rows, feature_dim):
        raise GalleryCorruptError(
            f"{path} holds a {matrix.dtype.str} array of shape {matrix.shape}, "
            f"not <f8 of shape {(n_rows, feature_dim)}"
        )
    if not np.isfinite(matrix).all():
        raise GalleryCorruptError(f"{path} has a non-finite coefficient")
    return matrix


def load_gallery(directory: str | Path) -> tuple[Gallery, dict]:
    """Load a persisted gallery; returns (gallery, meta dict).

    gallery.json is checked first: its subject entries (ids strictly
    increasing, each with at least one template), the feature dim, the
    channel, and ``meta["window"]`` against the feature dim.  The template
    matrix then comes from one of two files:

    - gallery.json without a ``sha256`` key (written before the digests
      were): vectors.csv is parsed.
    - vectors.csv does not match its digest (a torn save or an edited file):
      GalleryCorruptError.
    - templates.npy matches its digest: its matrix is used, and must be a
      finite '<f8' array of shape (templates listed, feature_dim).
    - templates.npy is missing or does not match: the verified vectors.csv
      is parsed.  A save cut right after writing templates.npy thus still
      loads the old gallery.

    The subjects, offsets and channel always come from gallery.json, so
    every source gives the same gallery; only the vectors.csv path also
    checks them against the rows.  A gallery file that cannot be read is a
    GalleryCorruptError naming it.
    """
    directory = Path(directory)
    try:
        manifest = json.loads(read_bytes(directory / GALLERY_JSON, GalleryCorruptError))
    except ValueError as exc:  # UnicodeDecodeError included
        raise GalleryCorruptError(f"unreadable {directory / GALLERY_JSON}: {exc}") from exc
    ids, counts, feature_dim, channel, meta = _check_manifest(manifest, directory)
    # bytes, so that no line ending inside a quoted subject id is translated
    csv_data = read_bytes(directory / VECTORS_CSV, GalleryCorruptError)
    matrix = None
    if "sha256" in manifest:
        digests = manifest["sha256"]
        if not isinstance(digests, dict):
            raise GalleryCorruptError(f"{GALLERY_JSON} sha256 is not an object")
        if _sha256(csv_data) != digests.get(VECTORS_CSV):
            raise GalleryCorruptError(
                f"{directory / VECTORS_CSV} does not match its sha256 in {GALLERY_JSON} "
                "(torn save or edited file)"
            )
        npy_path = directory / TEMPLATES_NPY
        if npy_path.exists():
            npy = read_bytes(npy_path, GalleryCorruptError)
            if _sha256(npy) == digests.get(TEMPLATES_NPY):
                matrix = _matrix_of_npy(npy, npy_path, sum(counts), feature_dim)
    if matrix is None:
        matrix = _matrix_of_csv(
            csv_data, directory / VECTORS_CSV, ids, counts, feature_dim, channel
        )
    return Gallery._of_subjects(ids, counts, channel, matrix), meta
