"""Enrollment store: subjects -> ordered template vectors, plus the
train/test split rule and on-disk persistence.

A gallery holds its M templates as one contiguous, read-only float64
``(M, D)`` matrix with CSR-style subject offsets: subjects in lexicographic
order, each subject's templates in enrollment order, and subject
``subject_ids[j]`` owning rows ``offsets[j]:offsets[j + 1]``.  Matching
reduces one distance kernel over that matrix (see ``matching``).  The same
grouped matrix also carries a probe set: ``pipeline.extract_subject_features``
returns one per channel, and ``build_score_tensor`` scores its rows in order.
:meth:`Gallery.enroll` appends a row to a buffer beside the matrix, and the
next read merges the buffer in, so many enrollments cost one merge.

A saved gallery (format ``facedct-gallery`` v1) is a directory of two
files, or three when its text is asked for, written in this order by
:func:`~facedct.pinned.save_pinned`, the write order it shares with the
score table:

1. ``templates.npy``: the matrix as ``'<f8'``, C order, no pickle.  This is
   what :func:`load_gallery` reads.
2. ``vectors.csv``, only when :func:`save_gallery` is given ``text=True``
   (``enroll --text``): the same rows as text, one
   ``label,channel,dim,coeffs`` row per template, for exchange; its bytes
   do not depend on the sidecar.
3. ``gallery.json``: the subjects with their template counts, the feature
   dim, the channel, the meta, the sha256 of the files written before it,
   and ``fields_sha256``, the sha256 of its own subjects, counts, dim,
   channel and meta.

So ``templates.npy`` and ``gallery.json`` are a whole gallery.
``gallery.json`` is the commit point of the whole directory.  Its digest
keys must be a set that some save wrote, and it may hold no top-level key
that no save writes (any but ``format``, ``version``, ``feature_dim``,
``channel``, ``subjects``, ``meta``, ``sha256`` and ``fields_sha256``), or
the gallery is rejected as an edited ``gallery.json``, so that no edit of
a key name can make it look like an older layout with fewer checks or drop
its meta.  The digest key sets are:

- neither ``sha256`` nor ``fields_sha256``: written before the digests,
  loaded from ``vectors.csv`` alone, whose labels are checked against the
  listed fields;
- ``sha256`` of ``templates.npy`` and ``vectors.csv``, without
  ``fields_sha256`` (written before it was) or with it;
- ``sha256`` of ``templates.npy`` alone, with ``fields_sha256``: a
  text-less save.

``templates.npy`` carries no labels, so it is used only when
``fields_sha256`` pins the fields it is read with; a gallery without
``fields_sha256`` loads from its pinned ``vectors.csv``.  With
``fields_sha256``, a ``templates.npy`` that matches its digest is the
gallery's matrix, and ``vectors.csv`` is not read.  A file is checked when
it is read: only when ``templates.npy`` is missing or does not match its
digest is ``vectors.csv`` read and parsed, and then it must match its own
digest or the gallery is rejected.  When ``gallery.json`` pins no
``vectors.csv``, there is no text to fall back on: ``templates.npy`` must
match its digest, or the gallery is rejected, and a ``vectors.csv`` beside
it is never read.  A text-less save removes an older ``vectors.csv`` once
its ``gallery.json`` is in place, so no unpinned text that disagrees with
``templates.npy`` stays beside it.  A broken pin is an error, never a
fallback: a ``gallery.json`` that cannot be read or is not JSON, digests
that are not an object, and a ``templates.npy`` that exists but cannot be
read are GalleryCorruptErrors.  A save cut before ``gallery.json`` leaves a
``templates.npy`` that fails its digest, so the torn ``vectors.csv`` is
still caught; an edited ``vectors.csv`` beside a pinned ``templates.npy``
is never read, so it does not matter.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, MismatchError, naming, parse_json, read_bytes, remove_file
from .features import FeatureVector, feature_matrix_from_csv, feature_matrix_to_csv
from .imageio import CHANNELS, MAX_WINDOW, manifest_entries
from .pinned import pinned_array, save_pinned, sha256

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


def select_samples(manifest: dict[str, list], indices: frozenset[int]) -> dict[str, list]:
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


def load_samples(path: str | Path, *index_sets: frozenset[int]) -> list[dict[str, list[Path]]]:
    """:func:`select_samples` of the manifest at ``path`` for each of
    ``index_sets``, in order.

    Every entry the manifest lists is checked (``imageio.manifest_entries``),
    so a bad path of a sample no set selects is refused too; only the
    selected entries are then joined to the manifest's directory.  A
    subject with fewer samples than a set needs is a SplitError naming the
    manifest and the subject.
    """
    path = Path(path)
    entries = manifest_entries(path)
    with naming(path):
        selections = [select_samples(entries, indices) for indices in index_sets]
    base = path.parent
    return [{s: [base / e for e in chosen] for s, chosen in sel.items()} for sel in selections]


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
    """Map of subject id -> template vectors: a grouped matrix, plus an
    append buffer that the next read merges into it.

    The first enrollment fixes the feature dimension and source channel.
    Templates live in :attr:`matrix`, subjects in lexicographic order so
    downstream score tensors are reproducible, each subject's rows in
    enrollment order.  :meth:`enroll` appends one row to the buffer, in any
    subject order and also after :func:`load_gallery`, so it costs O(1);
    the next read of the matrix, its offsets or its subjects merges the
    buffer in with one stable sort of the row labels.
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
        """Merge the staged rows after the grouped ones; each subject keeps
        its rows in order, and subjects are sorted."""
        if self._staged:
            staged, self._staged = self._staged, []
            labels = _labels(self._ids, np.diff(self._offsets).tolist()) + [s for s, _ in staged]
            rows = np.array([row for _, row in staged])
            if len(self._matrix):
                rows = np.concatenate([self._matrix, rows])
            # a stable sort keeps each subject's rows in enrollment order
            order = sorted(range(len(labels)), key=labels.__getitem__)
            counts = Counter(labels)
            ids = sorted(counts)
            self._hold(ids, [counts[s] for s in ids], rows[order])

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
        """Append one template to a subject, preserving enrollment order.

        The first enrollment fixes the dim and channel; a rejected one
        changes nothing.
        """
        dim, channel = self._feature_dim, self._channel
        if dim is None:
            dim, channel = vec.dim, vec.source_channel
        if vec.dim != dim:
            raise MismatchError(f"template dim {vec.dim} != gallery dim {dim}")
        if vec.source_channel != channel:
            raise MismatchError(
                f"template channel {vec.source_channel!r} != gallery channel {channel!r}"
            )
        if vec.subject_id is not None and vec.subject_id != subject_id:
            raise GalleryError(
                f"vector labelled {vec.subject_id!r} enrolled under {subject_id!r}"
            )
        self._feature_dim, self._channel = dim, channel
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


def _labels(ids: list[str], counts: list[int]) -> list[str]:
    """The subject of each row of a matrix grouped by subject, ``counts[j]``
    rows for ``ids[j]``."""
    return [s for s, c in zip(ids, counts) for _ in range(c)]


#: every top-level key of a gallery.json a save has written
_KEYS = set("format version feature_dim channel subjects meta sha256 fields_sha256".split())

#: the digest keys of each gallery.json a save has written: whether it has
#: ``fields_sha256``, and the files its ``sha256`` pins (None without one)
_DIGEST_KEYS = {
    (False, None),  # written before the digests
    (False, (TEMPLATES_NPY, VECTORS_CSV)),  # before fields_sha256
    (True, (TEMPLATES_NPY, VECTORS_CSV)),
    (True, (TEMPLATES_NPY,)),  # without its text
}


def _fields_sha256(ids: list[str], counts: list[int], dim: int, channel: str, meta: dict) -> str:
    """sha256 of the gallery.json fields that the templates.npy path trusts."""
    fields = json.dumps([ids, counts, dim, channel, meta], separators=(",", ":"), allow_nan=False)
    return sha256(fields.encode())


def save_gallery(
    gallery: Gallery, directory: str | Path, meta: dict | None = None, *, text: bool = True
) -> None:
    """Persist as templates.npy, vectors.csv when ``text``, then
    gallery.json; load is bit-exact.

    Each file is written under a temporary name and renamed into place, in
    that order.  gallery.json, written last, records the sha256 of the bytes
    written to the others, so it is the commit point: until it is renamed
    into place the directory still holds the old gallery.json, which neither
    the new templates.npy nor the new vectors.csv matches (see
    :func:`load_gallery`).  gallery.json also records ``fields_sha256``,
    the sha256 of its listed fields.  Without ``text``, vectors.csv is not
    built, and an older one is removed after gallery.json is in place.  A
    failed save leaves no partial file behind, and a ``meta`` that holds a
    NaN or infinity, which JSON has no token for, raises ValueError before
    the first write.
    """
    if gallery.n_templates == 0:
        raise GalleryError("refusing to save an empty gallery (nothing enrolled)")
    ids, counts = gallery.subject_ids, np.diff(gallery.offsets).tolist()
    manifest = {
        "format": GALLERY_FORMAT,
        "version": GALLERY_VERSION,
        "feature_dim": gallery.feature_dim,
        "channel": gallery.channel,
        "subjects": [{"id": s, "templates": c} for s, c in zip(ids, counts)],
    }
    if meta:
        manifest["meta"] = meta
    fields = _fields_sha256(ids, counts, gallery.feature_dim, gallery.channel, meta or {})
    directory = Path(directory)
    csv = chunks = None
    if text:
        csv = directory / VECTORS_CSV
        chunks = feature_matrix_to_csv(_labels(ids, counts), gallery.channel, gallery.matrix).encode()
    save_pinned(
        directory / TEMPLATES_NPY, gallery.matrix,
        csv, chunks,
        directory / GALLERY_JSON,
        lambda digests: {**manifest, "sha256": digests, "fields_sha256": fields},
    )
    if not text:
        remove_file(directory / VECTORS_CSV)


def check_window(window, dim: int) -> None:
    """ValueError unless ``window`` is an int in [1, MAX_WINDOW] and ``dim`` in [1, window²]."""
    # bool is an int subclass, but true/false is no window size
    if type(window) is not int or not 1 <= window <= MAX_WINDOW or not 1 <= dim <= window * window:
        raise ValueError(
            f"{window!r} must be an integer in [1, {MAX_WINDOW}] and dim {dim} in [1, window²]"
        )


def _check_manifest(manifest, path: Path) -> tuple[list[str], list[int], int, str, dict]:
    """The subject ids, their template counts, the feature dim, the channel
    and the meta that the gallery.json ``path`` lists, each checked; every
    source of the template matrix shares this check.  As :func:`save_gallery`
    writes them, the ids must be strictly increasing and each count at least
    1.  Each complaint names ``path``."""
    with naming(path):
        if not isinstance(manifest, dict) or manifest.get("format") != GALLERY_FORMAT:
            raise GalleryVersionError(f"not a {GALLERY_FORMAT} payload")
        if manifest.get("version") != GALLERY_VERSION:
            raise GalleryVersionError(
                f"gallery version {manifest.get('version')!r} != supported {GALLERY_VERSION}"
            )
        subjects = manifest.get("subjects", [])
        if not isinstance(subjects, list):
            raise GalleryCorruptError("subjects is not a list")
        ids: list[str] = []
        counts: list[int] = []
        for entry in subjects:
            if not isinstance(entry, dict):
                raise GalleryCorruptError(f"subject entry {entry!r} is not an object")
            subject, count = entry.get("id"), entry.get("templates")
            if not isinstance(subject, str):
                raise GalleryCorruptError(f"subject id {subject!r} is not a string")
            if ids and not ids[-1] < subject:
                raise GalleryCorruptError(f"lists subject {subject!r} after {ids[-1]!r}")
            if type(count) is not int or count < 1:
                raise GalleryCorruptError(f"subject {subject!r} lists {count!r} templates")
            ids.append(subject)
            counts.append(count)
        if not ids:
            raise GalleryCorruptError("persisted gallery holds no templates")
        feature_dim, channel = manifest.get("feature_dim"), manifest.get("channel")
        if type(feature_dim) is not int or feature_dim < 1:
            raise GalleryCorruptError(f"feature_dim {feature_dim!r} is no dimension")
        if channel not in CHANNELS:
            raise GalleryCorruptError(f"channel {channel!r} is unknown")
        meta = manifest.get("meta", {})
        if not isinstance(meta, dict):
            raise GalleryCorruptError("meta is not an object")
        if "window" in meta:
            with naming("meta.window", GalleryCorruptError, ValueError):
                check_window(meta["window"], feature_dim)
    return ids, counts, feature_dim, channel, meta


def _matrix_of_csv(
    data: bytes, path: Path, ids: list[str], counts: list[int], feature_dim: int, channel: str
) -> np.ndarray:
    """The templates of vectors.csv, whose rows must be the ones listed."""
    labels = _labels(ids, counts)
    with naming(f"corrupt {path}", GalleryCorruptError, DataError):
        csv_labels, csv_channel, matrix = feature_matrix_from_csv(data)
        if len(csv_labels) == len(labels) and csv_labels != labels:
            # the row format writes no label and the label "" alike
            label, subject = next((a, b) for a, b in zip(csv_labels, labels) if a != b)
            raise GalleryCorruptError(f"row labelled {label!r} listed under subject {subject!r}")
    if len(csv_labels) != len(labels):
        raise GalleryCorruptError(
            f"{path} holds {len(csv_labels)} rows but {GALLERY_JSON} lists {len(labels)}"
        )
    if matrix.shape[1] != feature_dim or csv_channel != channel:
        raise GalleryCorruptError(f"{GALLERY_JSON} metadata disagrees with {path}")
    return matrix


def load_gallery(directory: str | Path) -> tuple[Gallery, dict]:
    """Load a persisted gallery; returns (gallery, meta dict).

    gallery.json is checked first: its subject entries (ids strictly
    increasing, each with at least one template), the feature dim, the
    channel, and ``meta["window"]`` against the feature dim, and then its
    digest keys, which must be one of the sets a save wrote, and then its
    other keys, each of which a save must write (module docstring), or the
    load is a GalleryCorruptError naming gallery.json as edited.  The
    template matrix then comes from one of two files:

    - gallery.json without ``fields_sha256``: vectors.csv is parsed, and
      must first match its digest when gallery.json has a ``sha256`` key.
    - templates.npy matches its digest: its matrix is used, and must be a
      finite '<f8' array of shape (templates listed, feature_dim).
      vectors.csv is not read, so an edited, missing or unreadable one does
      not matter.
    - templates.npy is missing or does not match its digest: vectors.csv is
      read, and must match its own digest (else GalleryCorruptError: a torn
      save or an edited file) before it is parsed.  A save cut right after
      writing templates.npy thus still loads the old gallery, and one cut
      after vectors.csv is rejected.  When the digests pin no vectors.csv,
      the gallery has no text copy to fall back on, so this is a
      GalleryCorruptError naming templates.npy.

    The subjects, offsets and channel always come from gallery.json, so
    every source gives the same gallery; only the vectors.csv path also
    checks them against the rows.  Last, the subject ids, counts, feature
    dim, channel and meta must match ``fields_sha256`` when gallery.json
    has it (galleries saved before it was added do not), so an edit of them
    is a GalleryCorruptError on the templates.npy path too; so is a meta
    that holds a NaN or infinity, which has no digest.  A gallery file
    that cannot be read is a GalleryCorruptError naming it.
    """
    directory = Path(directory)
    npy, csv, path = directory / TEMPLATES_NPY, directory / VECTORS_CSV, directory / GALLERY_JSON
    manifest = parse_json(read_bytes(path, GalleryCorruptError), path, GalleryCorruptError)
    ids, counts, feature_dim, channel, meta = _check_manifest(manifest, path)
    digests, fields_pinned = manifest.get("sha256"), "fields_sha256" in manifest
    if "sha256" in manifest and not isinstance(digests, dict):
        raise GalleryCorruptError(f"{path}: sha256 is not an object")
    if (fields_pinned, None if digests is None else tuple(sorted(digests))) not in _DIGEST_KEYS:
        raise GalleryCorruptError(f"{path}: its digest keys match no save's (edited file)")
    unknown = next((key for key in manifest if key not in _KEYS), None)
    if unknown is not None:
        raise GalleryCorruptError(f"{path}: its key {unknown!r} is written by no save (edited file)")
    matrix = None
    if fields_pinned:
        data = read_bytes(npy, GalleryCorruptError) if npy.exists() else None
        if data is not None and sha256(data) == digests[TEMPLATES_NPY]:
            shape = (sum(counts), feature_dim)
            matrix = pinned_array(npy, data, shape, GalleryCorruptError, "coefficient")
        elif VECTORS_CSV not in digests:
            state = "is missing" if data is None else f"does not match its sha256 in {GALLERY_JSON}"
            raise GalleryCorruptError(
                f"{npy} {state}, and the gallery has no text copy ({VECTORS_CSV}) to fall back on"
            )
    if matrix is None:
        # bytes, so that no line ending inside a quoted subject id is translated
        csv_data = read_bytes(csv, GalleryCorruptError)
        if digests is not None and sha256(csv_data) != digests[VECTORS_CSV]:
            raise GalleryCorruptError(
                f"{csv} does not match its sha256 in {GALLERY_JSON} (torn save or edited file)"
            )
        matrix = _matrix_of_csv(csv_data, csv, ids, counts, feature_dim, channel)
    if fields_pinned:
        try:
            fields = _fields_sha256(ids, counts, feature_dim, channel, meta)
        except ValueError:  # a NaN or infinity, which no save writes
            raise GalleryCorruptError(f"{path} meta holds a NaN or infinity") from None
        if manifest["fields_sha256"] != fields:
            raise GalleryCorruptError(f"{path} does not match its fields_sha256 (edited file)")
    return Gallery._of_subjects(ids, counts, channel, matrix), meta
