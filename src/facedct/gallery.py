"""Enrollment store: subjects -> ordered template vectors, plus the
train/test split rule and on-disk persistence (gallery.json + vectors.csv)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, MismatchError
from .features import FeatureVector, features_from_csv, features_to_csv

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

    @property
    def max_index(self) -> int:
        return max(self.train_indices | self.test_indices)


def _check_samples(manifest: dict[str, list[Path]], needed: int, what: str) -> None:
    for subject in sorted(manifest):
        n = len(manifest[subject])
        if n < needed:
            raise SplitError(
                f"subject {subject!r} has {n} samples but {what} needs index {needed}"
            )


def select_samples(
    manifest: dict[str, list[Path]], indices: frozenset[int]
) -> dict[str, list[Path]]:
    """Each subject's samples at the given 1-based indices, in index order.

    Subjects are returned in lexicographic order.  A subject with fewer
    samples than the largest index is an error naming it; indices outside
    the given set need not exist.
    """
    _check_samples(manifest, max(indices), "the selection")
    order = sorted(indices)
    return {s: [manifest[s][i - 1] for i in order] for s in sorted(manifest)}


def apply_split(
    manifest: dict[str, list[Path]], split: SplitSpec
) -> tuple[dict[str, list[Path]], dict[str, list[Path]]]:
    """Partition each subject's ordered samples by 1-based index.

    Subjects are returned in lexicographic order.  A subject with fewer
    samples than the largest requested index is an error naming it.
    """
    _check_samples(manifest, split.max_index, "the split")
    return (
        select_samples(manifest, split.train_indices),
        select_samples(manifest, split.test_indices),
    )


class Gallery:
    """Immutable-after-enrollment map of subject id -> template vectors.

    The first enrollment fixes the feature dimension and source channel;
    subject iteration order is lexicographic so downstream score tensors
    are reproducible.
    """

    def __init__(self) -> None:
        self._subjects: dict[str, list[FeatureVector]] = {}
        self._feature_dim: int | None = None
        self._channel: str | None = None

    @property
    def feature_dim(self) -> int | None:
        return self._feature_dim

    @property
    def channel(self) -> str | None:
        return self._channel

    @property
    def subject_ids(self) -> list[str]:
        return sorted(self._subjects)

    @property
    def n_subjects(self) -> int:
        return len(self._subjects)

    @property
    def n_templates(self) -> int:
        return sum(len(t) for t in self._subjects.values())

    def templates_of(self, subject_id: str) -> list[FeatureVector]:
        try:
            return list(self._subjects[subject_id])
        except KeyError:
            raise GalleryError(f"subject {subject_id!r} is not enrolled") from None

    def __contains__(self, subject_id: str) -> bool:
        return subject_id in self._subjects

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
        stored = (
            vec
            if vec.subject_id == subject_id
            else FeatureVector(vec.coeffs, vec.source_channel, subject_id)
        )
        self._subjects.setdefault(subject_id, []).append(stored)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gallery):
            return NotImplemented
        return (
            self._feature_dim == other._feature_dim
            and self._channel == other._channel
            and self.subject_ids == other.subject_ids
            and all(
                self._subjects[s] == other._subjects[s] for s in self._subjects
            )
        )


def save_gallery(gallery: Gallery, directory: str | Path, meta: dict | None = None) -> None:
    """Persist as gallery.json + vectors.csv; load is bit-exact."""
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
            {"id": s, "templates": len(gallery.templates_of(s))}
            for s in gallery.subject_ids
        ],
    }
    if meta:
        manifest["meta"] = meta
    (directory / GALLERY_JSON).write_text(json.dumps(manifest, indent=1) + "\n")
    vectors = [t for s in gallery.subject_ids for t in gallery.templates_of(s)]
    (directory / VECTORS_CSV).write_text(features_to_csv(vectors))


def load_gallery(directory: str | Path) -> tuple[Gallery, dict]:
    """Load a persisted gallery; returns (gallery, meta dict)."""
    directory = Path(directory)
    try:
        manifest = json.loads((directory / GALLERY_JSON).read_text())
    except FileNotFoundError:
        raise GalleryCorruptError(f"missing {GALLERY_JSON} in {directory}") from None
    except json.JSONDecodeError as exc:
        raise GalleryCorruptError(f"unreadable {GALLERY_JSON}: {exc}") from exc
    if manifest.get("format") != GALLERY_FORMAT:
        raise GalleryVersionError(f"not a {GALLERY_FORMAT} payload")
    if manifest.get("version") != GALLERY_VERSION:
        raise GalleryVersionError(
            f"gallery version {manifest.get('version')!r} != supported {GALLERY_VERSION}"
        )
    try:
        csv_text = (directory / VECTORS_CSV).read_text()
    except FileNotFoundError:
        raise GalleryCorruptError(f"missing {VECTORS_CSV} in {directory}") from None
    try:
        vectors = features_from_csv(csv_text)
    except DataError as exc:
        raise GalleryCorruptError(f"corrupt {VECTORS_CSV}: {exc}") from exc

    gallery = Gallery()
    cursor = 0
    for entry in manifest.get("subjects", []):
        subject, count = entry.get("id"), entry.get("templates", 0)
        chunk = vectors[cursor : cursor + count]
        if len(chunk) != count:
            raise GalleryCorruptError(
                f"vectors.csv truncated: subject {subject!r} expects {count} rows"
            )
        cursor += count
        for vec in chunk:
            # the row format writes no label and the label "" alike
            if (vec.subject_id or "") != subject:
                raise GalleryCorruptError(
                    f"row labelled {vec.subject_id!r} listed under subject {subject!r}"
                )
            try:
                gallery.enroll(subject, vec)
            except (MismatchError, GalleryError) as exc:
                raise GalleryCorruptError(str(exc)) from exc
    if cursor != len(vectors):
        raise GalleryCorruptError(
            f"vectors.csv carries {len(vectors) - cursor} rows beyond the manifest"
        )
    if gallery.feature_dim != manifest.get("feature_dim") or gallery.channel != manifest.get("channel"):
        raise GalleryCorruptError("gallery.json metadata disagrees with vectors.csv")
    if gallery.n_templates == 0:
        raise GalleryCorruptError("persisted gallery holds no templates")
    return gallery, manifest.get("meta", {})
