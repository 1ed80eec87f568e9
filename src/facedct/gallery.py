"""Enrollment store: subjects -> ordered template vectors, plus the
train/test split rule and on-disk persistence (gallery.json + vectors.csv).

A gallery holds its M templates as one contiguous, read-only float64
``(M, D)`` matrix with CSR-style subject offsets: subjects in lexicographic
order, each subject's templates in enrollment order, and subject
``subject_ids[j]`` owning rows ``offsets[j]:offsets[j + 1]``.  Matching
reduces one distance kernel over that matrix (see ``matching``).
``vectors.csv`` stores the rows in the same order, formatted from the matrix
and read back from its bytes with one ``np.loadtxt`` call.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, MismatchError
from .features import FeatureVector, feature_matrix_from_csv, feature_matrix_to_csv

GALLERY_FORMAT = "facedct-gallery"
GALLERY_VERSION = 1

GALLERY_JSON = "gallery.json"
VECTORS_CSV = "vectors.csv"


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
    def _of_rows(cls, labels: list[str], channel: str, matrix: np.ndarray) -> "Gallery":
        """Gallery of matrix rows labelled by subject, in any subject order."""
        gallery = cls()
        gallery._feature_dim = int(matrix.shape[1])
        gallery._channel = channel
        gallery._merge(labels, matrix)
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
        matrix = rows[[i for s in ids for i in rows_of[s]]]
        matrix.flags.writeable = False
        offsets = np.zeros(len(ids) + 1, dtype=np.intp)
        np.cumsum([len(rows_of[s]) for s in ids], out=offsets[1:])
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


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory, so that a failed write leaves the old file (or none) in place."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_gallery(gallery: Gallery, directory: str | Path, meta: dict | None = None) -> None:
    """Persist as gallery.json + vectors.csv; load is bit-exact.

    Each file is written under a temporary name and renamed into place,
    vectors.csv first, so a failed save leaves no partial file behind.
    """
    if gallery.n_templates == 0:
        raise GalleryError("refusing to save an empty gallery (nothing enrolled)")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
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
    vectors_text = feature_matrix_to_csv(labels, gallery.channel, gallery.matrix)
    manifest_text = json.dumps(manifest, indent=1) + "\n"
    _write_atomic(directory / VECTORS_CSV, vectors_text)
    _write_atomic(directory / GALLERY_JSON, manifest_text)


def _check_window(window, feature_dim: int, directory: Path) -> None:
    # bool is an int subclass, but true/false is no window size
    if (
        not isinstance(window, int)
        or isinstance(window, bool)
        or window < 1
        or window * window < feature_dim
    ):
        raise GalleryCorruptError(
            f"gallery {directory}: meta.window {window!r} must be an integer >= 1 "
            f"whose square covers feature_dim {feature_dim}"
        )


def load_gallery(directory: str | Path) -> tuple[Gallery, dict]:
    """Load a persisted gallery; returns (gallery, meta dict).

    ``meta["window"]``, when present, is checked against the feature dim.
    """
    directory = Path(directory)
    try:
        manifest = json.loads((directory / GALLERY_JSON).read_text())
    except FileNotFoundError:
        raise GalleryCorruptError(f"missing {GALLERY_JSON} in {directory}") from None
    except json.JSONDecodeError as exc:
        raise GalleryCorruptError(f"unreadable {GALLERY_JSON}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != GALLERY_FORMAT:
        raise GalleryVersionError(f"not a {GALLERY_FORMAT} payload")
    if manifest.get("version") != GALLERY_VERSION:
        raise GalleryVersionError(
            f"gallery version {manifest.get('version')!r} != supported {GALLERY_VERSION}"
        )
    try:
        # bytes, so that no line ending inside a quoted subject id is translated
        csv_data = (directory / VECTORS_CSV).read_bytes()
    except FileNotFoundError:
        raise GalleryCorruptError(f"missing {VECTORS_CSV} in {directory}") from None
    try:
        labels, channel, matrix = feature_matrix_from_csv(csv_data)
    except DataError as exc:
        raise GalleryCorruptError(f"corrupt {directory / VECTORS_CSV}: {exc}") from exc

    listed: list = []
    for entry in manifest.get("subjects", []):
        if not isinstance(entry, dict):
            raise GalleryCorruptError(f"{GALLERY_JSON} subject entry {entry!r} is not an object")
        subject, count = entry.get("id"), entry.get("templates", 0)
        if not isinstance(count, int) or count < 0:
            raise GalleryCorruptError(f"subject {subject!r} lists {count!r} templates")
        if len(listed) + count > len(labels):
            raise GalleryCorruptError(
                f"vectors.csv truncated: subject {subject!r} expects {count} rows"
            )
        listed.extend([subject] * count)
    if len(listed) != len(labels):
        raise GalleryCorruptError(
            f"vectors.csv carries {len(labels) - len(listed)} rows beyond the manifest"
        )
    if labels != listed:
        # the row format writes no label and the label "" alike
        label, subject = next((a, b) for a, b in zip(labels, listed) if a != b)
        raise GalleryCorruptError(f"row labelled {label!r} listed under subject {subject!r}")
    feature_dim = int(matrix.shape[1]) if labels else None
    if feature_dim != manifest.get("feature_dim") or channel != manifest.get("channel"):
        raise GalleryCorruptError("gallery.json metadata disagrees with vectors.csv")
    if not labels:
        raise GalleryCorruptError("persisted gallery holds no templates")
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise GalleryCorruptError(f"gallery {directory}: meta is not an object")
    if "window" in meta:
        _check_window(meta["window"], feature_dim, directory)
    return Gallery._of_rows(labels, channel, matrix), meta
