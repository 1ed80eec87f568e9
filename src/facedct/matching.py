"""Nearest-template matching: the distance kernel, the probe x model x trial
score tensor, and the rank-1 identification rate.

Distances are stored (smaller = better match); a probe identifies its
subject when the genuine cell is the strict minimum of its row.

One kernel, :func:`_batched_distances`, computes a probe's distance to
every row of a template matrix.  A probe's distance to a subject is the
minimum over that subject's rows, taken with ``np.minimum.reduceat`` over
the gallery's matrix and subject offsets (:func:`subject_distances`).
``build_score_tensor``, the ``identify`` command and the channel fusion
runs all score through it, and ``mse``, ``mad`` and ``person_score`` are
thin calls into it, so every route gives the same bits.
``build_score_tensor`` hands it one ``(M, D)`` scratch array and one
distance row, reused across all the probes of a share.
:meth:`ScoreTensor.partition` is the one genuine/impostor split of a tensor.

``build_score_tensor`` takes its probes in one of two forms:

- a grouped matrix, a :class:`~facedct.gallery.Gallery` whose row
  ``i * T + k`` is trial ``k`` of probe subject ``i``, as
  ``pipeline.extract_subject_features`` returns it.  The CLI and the
  channel fusion runs pass this form.  It is checked once as a whole:
  every subject enrolled, ``T`` rows for each, and the gallery's dim and
  channel.
- subject -> list of :class:`FeatureVector`, the public form.  Each vector
  is enrolled into one new gallery through ``Gallery.enroll``, which checks
  its dim, channel and label, and the first read of that gallery merges
  them all into a grouped matrix at once.

A tensor is exchanged as ``facedct-scores-v1`` CSV, one ``i,j,k,score`` row
per cell.  ``scores_to_csv`` writes each probe row's cells with one ``%``
operation on a template of the row's indices and ``%.17g`` fields, and
``scores_from_csv`` reads the rows with one ``np.loadtxt`` call.  A score row
is what ``np.loadtxt`` reads as one row.  If the rows do not load, or a blank
line leaves them short, the line named is the first from which
``np.loadtxt`` alone does not read one row (``first_bad_row``).

On disk, :func:`save_scores_csv` writes a score file ``scores.csv`` and its
two sidecars with :func:`~facedct.pinned.save_pinned`, in this order:

1. ``scores.npy``: the tensor as ``'<f8'``, C order, no pickle;
2. ``scores.csv``: the CSV, whose bytes do not depend on the other two;
3. ``scores.json``: ``{"format": "facedct-scores-v1", "sha256": {...}}``,
   the sha256 of the other two under their file names, written last as the
   commit point.

Two steps run in row shares (:mod:`facedct.shares`), one probe row to a
row: ``build_score_tensor``, with probe-template pairs as its work and a
floor of ``_TENSOR_FLOOR`` pairs a share, and the CSV text of
``save_scores_csv``, with cells as its work and a floor of
``_SHARE_FLOOR`` cells a share; the bits and bytes are the same for any
number of shares.

The names beside the CSV are its own with the suffix replaced.  The CSV is
always the truth, and the sidecars are a cache of it.
:func:`load_scores_csv` hashes the CSV in chunks, keeping only its header,
then takes the cells from ``scores.npy`` only when ``scores.json`` is a
``facedct-scores-v1`` manifest whose digests match both the CSV and
``scores.npy``; otherwise it reads the CSV whole and parses its header and
rows from that one read.  Such a ``scores.npy`` must be a finite ``'<f8'``
array of shape (probe subjects, gallery subjects, trials) that makes a
valid :class:`ScoreTensor`, or it is a DataError naming it.  A missing,
unreadable, stale or malformed manifest or ``scores.npy`` leaves the CSV
rows to be parsed, so the result is always the CSV's tensor.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DataError, MismatchError, parse_json, read_bytes, read_chunks
from .features import FeatureVector, first_bad_row
from .gallery import Gallery
from .imageio import ArrayRecord
from .pinned import pinned_array, save_pinned, sha256
from .shares import fill, text

METRICS = ("mse", "mad")


class MatchingError(DataError):
    """Probe set and gallery cannot be scored against each other."""


def _check_dims(x: FeatureVector, y: FeatureVector) -> None:
    if x.dim != y.dim:
        raise MismatchError(f"feature dims differ: {x.dim} vs {y.dim}")


def _batched_distances(
    metric: str,
    probe: np.ndarray,
    templates: np.ndarray,
    scratch: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    # templates: (M, D); probe: (D,) -> (M,), each row reduced along its
    # contiguous axis.  The differences go into ``scratch`` and the sums
    # into ``out``, (M, D) and (M,) arrays a caller reuses across probes,
    # or new arrays when None.
    d = np.subtract(templates, probe, out=scratch)
    if metric == "mse":
        np.multiply(d, d, out=d)
    else:
        np.abs(d, out=d)
    return np.add.reduce(d, axis=1, out=out)


def mse(x: FeatureVector, y: FeatureVector) -> float:
    """Sum of squared coefficient differences."""
    _check_dims(x, y)
    return float(_batched_distances("mse", x.coeffs, y.coeffs[None, :])[0])


def mad(x: FeatureVector, y: FeatureVector) -> float:
    """Sum of absolute coefficient differences."""
    _check_dims(x, y)
    return float(_batched_distances("mad", x.coeffs, y.coeffs[None, :])[0])


def check_metric(metric: str) -> str:
    metric = metric.lower()
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    return metric


def person_score(probe: FeatureVector, templates: list[FeatureVector], metric: str) -> float:
    """Distance from a probe to a person: minimum over their templates."""
    metric = check_metric(metric)
    if not templates:
        raise ValueError("person_score needs at least one template")
    for t in templates:
        _check_dims(probe, t)
    matrix = np.array([t.coeffs for t in templates])
    return float(_batched_distances(metric, probe.coeffs, matrix).min())


def subject_distances(
    probe: np.ndarray,
    gallery: Gallery,
    metric: str,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Distance from probe coefficients to each enrolled subject, in
    ``gallery.subject_ids`` order: the minimum over the subject's templates.
    ``scratch``, an ``(M, D)`` and an ``(M,)`` float64 array for the M
    templates, holds the work of a call, so that a caller scoring many
    probes allocates it once."""
    dists = _batched_distances(check_metric(metric), probe, gallery.matrix, *(scratch or ()))
    return np.minimum.reduceat(dists, gallery.offsets[:-1])


@dataclass(eq=False)
class ScoreTensor(ArrayRecord):
    """Distances s[i][j][k]: probe k of subject i against subject j's models.

    Probe subjects must all be enrolled (appear among gallery subjects);
    the tensor is square exactly when the two subject lists coincide.
    """

    probe_subjects: tuple[str, ...]
    gallery_subjects: tuple[str, ...]
    scores: np.ndarray = field(repr=False)
    metric: str = "mse"

    def __post_init__(self) -> None:
        object.__setattr__(self, "probe_subjects", tuple(self.probe_subjects))
        object.__setattr__(self, "gallery_subjects", tuple(self.gallery_subjects))
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError("scores must be a 3-D array (probe, gallery, trial)")
        if arr.shape[0] != len(self.probe_subjects) or arr.shape[1] != len(self.gallery_subjects):
            raise ValueError("scores shape does not match the subject lists")
        if arr.shape[2] < 1:
            raise ValueError("tensor needs at least one trial per subject")
        if len(set(self.probe_subjects)) != len(self.probe_subjects):
            raise ValueError("duplicate probe subjects")
        if len(set(self.gallery_subjects)) != len(self.gallery_subjects):
            raise ValueError("duplicate gallery subjects")
        missing = set(self.probe_subjects) - set(self.gallery_subjects)
        if missing:
            raise ValueError(f"probe subjects missing from gallery: {sorted(missing)}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("scores must be finite")
        if arr.size and arr.min() < 0:
            raise ValueError("distances must be >= 0")
        self._freeze("scores", arr)
        self.metric = check_metric(self.metric)

    @property
    def n_trials(self) -> int:
        return int(self.scores.shape[2])

    def partition(self) -> tuple[np.ndarray, np.ndarray]:
        """Genuine cells ``(P, T)``, each probe row's own-subject column, and
        impostor cells ``(P, G-1, T)``, its other columns in gallery order."""
        n_probes, n_gallery, n_trials = self.scores.shape
        lookup = {s: j for j, s in enumerate(self.gallery_subjects)}
        own = np.zeros((n_probes, n_gallery, 1), dtype=bool)
        own[np.arange(n_probes), [lookup[s] for s in self.probe_subjects]] = True
        # a full-shape mask picks single cells, ~10x faster than (P, G) rows
        own = np.broadcast_to(own, self.scores.shape)
        impostor = self.scores[~own].reshape(n_probes, n_gallery - 1, n_trials)
        return self.scores[own].reshape(n_probes, n_trials), impostor

    def with_scores(self, scores: np.ndarray) -> "ScoreTensor":
        return ScoreTensor(self.probe_subjects, self.gallery_subjects, scores, self.metric)


@dataclass(frozen=True)
class IdentificationResult:
    successes: int
    errors: int

    @property
    def trials(self) -> int:
        return self.successes + self.errors

    @property
    def rate(self) -> float:
        return self.successes / self.trials


#: the fewest probe-template pairs per share when :func:`build_score_tensor`
#: splits its probe rows between processes.  On a 2-vCPU Xeon, in a caller
#: holding 100 MB, n probes against n templates at dim 100 took, in two
#: shares against inline (medians of 15), 4.9x, 2.3x, 1.9x and 1.3x at
#: n = 50, 100, 150 and 200 (a fork, its reaping and the caller's page
#: faults after it cost ~5 ms), 1.02x at 300, and 0.66x, 0.66x and 0.53x
#: at 400, 600 and 1000; with this floor the rows are split from 160,000
#: pairs (400 x 400), and an orl-rgb tensor (200 x 200) never is
_TENSOR_FLOOR = 80_000


def build_score_tensor(
    probes: Gallery | dict[str, list[FeatureVector]], gallery: Gallery, metric: str
) -> ScoreTensor:
    """Score every probe against every enrolled person's nearest template.

    ``probes`` is a grouped matrix, or subject -> vectors enrolled into one
    first.  Probe subjects must be enrolled and must all carry the same
    number of trials; dimensions and source channel must match the gallery.
    """
    metric = check_metric(metric)
    if isinstance(probes, dict):
        probes, vectors = Gallery(), probes
        for subject in sorted(vectors):
            if not vectors[subject]:
                raise MatchingError(f"probe subject {subject!r} has no trials")
            try:
                for vec in vectors[subject]:
                    probes.enroll(subject, vec)
            except DataError as exc:
                raise type(exc)(f"probe subject {subject!r}: {exc}") from exc
    probe_subjects = tuple(probes.subject_ids)
    if not probe_subjects:
        raise MatchingError("no probe subjects supplied")
    for subject in probe_subjects:
        if subject not in gallery:
            raise MatchingError(f"probe subject {subject!r} is not enrolled")
    counts = np.diff(probes.offsets)
    n_trials = int(counts[0])
    i = int(np.argmax(counts != n_trials))  # the first ragged subject, if any
    if counts[i] != n_trials:
        raise MatchingError(
            f"ragged trial counts: subject {probe_subjects[i]!r} has {counts[i]} "
            f"test samples, expected {n_trials}"
        )
    if (probes.feature_dim, probes.channel) != (gallery.feature_dim, gallery.channel):
        raise MismatchError(
            f"probe {probe_subjects[0]!r} has dim {probes.feature_dim}, channel {probes.channel!r}; "
            f"gallery has dim {gallery.feature_dim}, channel {gallery.channel!r}"
        )

    gallery_subjects = tuple(gallery.subject_ids)
    n_rows, n_templates = len(probes.matrix), len(gallery.matrix)

    def score(out: np.ndarray, rows: range) -> None:
        scratch = np.empty_like(gallery.matrix), np.empty(n_templates)
        for row in rows:
            dists = subject_distances(probes.matrix[row], gallery, metric, scratch)
            out[row // n_trials, :, row % n_trials] = dists

    shape = (len(probe_subjects), len(gallery_subjects), n_trials)
    scores = fill(shape, n_rows, n_rows * n_templates, _TENSOR_FLOOR, score)
    return ScoreTensor(probe_subjects, gallery_subjects, scores, metric)


def identification_rate(tensor: ScoreTensor) -> IdentificationResult:
    """Fraction of probes whose own subject attains the strict row minimum.

    A tie between the genuine cell and any other subject counts as an error.
    """
    return _identification(*tensor.partition())


def _identification(genuine: np.ndarray, impostor: np.ndarray) -> IdentificationResult:
    """:func:`identification_rate` of the two arrays of
    :meth:`ScoreTensor.partition`."""
    successes = int(np.count_nonzero(genuine < impostor.min(axis=1, initial=np.inf)))
    return IdentificationResult(successes, genuine.size - successes)


SCORES_FORMAT = "facedct-scores-v1"


def score_files(path: str | Path) -> tuple[Path, Path, Path]:
    """The score file ``path`` and its two sidecars, its name with the
    suffix ``.npy`` and ``.json``: the CSV, ``scores.npy`` and
    ``scores.json``."""
    path = Path(path)
    return path, path.with_suffix(".npy"), path.with_suffix(".json")


def _score_head(tensor: ScoreTensor) -> bytes:
    """The header lines of :func:`scores_to_csv`: the ``#`` comments and the
    ``i,j,k,score`` row."""
    head = [
        f"# format={SCORES_FORMAT}",
        f"# metric={tensor.metric}",
        f"# probe_subjects={json.dumps(list(tensor.probe_subjects))}",
        f"# gallery_subjects={json.dumps(list(tensor.gallery_subjects))}",
        "i,j,k,score",
    ]
    return ("\n".join(head) + "\n").encode()


def _row_blocks(tensor: ScoreTensor, rows: range) -> Iterator[bytes]:
    """The bytes of the probe rows ``rows`` of :func:`scores_to_csv`, one
    block per probe row, in C order of the tensor.

    The rows of probe ``i`` come from one ``%`` operation: a template of
    its ``i,j,k,%.17g`` lines, built from the tensor's indices alone, is
    applied to the row's scores.  The header is built apart from it, so a
    ``%`` in a subject id is written as it is.
    """
    n_probe, n_gallery, n_trials = tensor.scores.shape
    cells = [f",{j},{k},%.17g" for j in range(n_gallery) for k in range(n_trials)]
    flat = tensor.scores.reshape(n_probe, -1)
    # "%.17g" % x gives the same text as format(x, ".17g"), and no field
    # holds a comma, quote or newline, so csv.writer would quote none
    for i in rows:
        s = str(i)
        yield ((s + ("\n" + s).join(cells) + "\n") % tuple(flat[i].tolist())).encode()


def scores_to_csv(tensor: ScoreTensor) -> str:
    """Interchange CSV: provenance comments, then i,j,k,score rows.

    :func:`save_scores_csv` writes the same text from the same two
    formatters, one probe row at a time; only this whole string holds more
    than one row's text.
    """
    return b"".join([_score_head(tensor), *_row_blocks(tensor, range(len(tensor.scores)))]).decode()


#: the fewest tensor cells per share when :func:`save_scores_csv` splits the
#: probe rows between processes.  On a 2-vCPU Xeon, a save in two shares
#: took 1.5x and 1.3x the inline time at 10,000 and 25,000 cells, and 0.8x,
#: 0.6x and 0.6x at 50,000, 100,000 and 200,000 cells; with this floor the
#: rows are split from 200,000 cells, well past where a fork starts to pay
_SHARE_FLOOR = 100_000


_ROW_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("k", np.int64), ("score", np.float64)])


def _load_score_rows(data: bytes) -> np.ndarray:
    opts = dict(delimiter=",", comments=None, ndmin=1, encoding="ascii")
    return np.loadtxt(io.BytesIO(data), _ROW_DTYPE, **opts)


def _score_header(data: bytes) -> tuple[list[str], list[str], str, int, int]:
    """The probe and gallery subjects and the metric of a score file's
    header, and the offset and line number of its first row."""
    meta: dict[str, str] = {}
    pos = 0
    line_no = 1
    while data.startswith(b"#", pos):
        end = data.find(b"\n", pos)
        end = len(data) if end < 0 else end
        try:
            key, _, value = data[pos + 1 : end].decode().strip().partition("=")
        except UnicodeDecodeError:
            raise DataError(f"score file line {line_no} is not UTF-8") from None
        meta[key.strip()] = value
        pos, line_no = end + 1, line_no + 1
    if meta.get("format") != SCORES_FORMAT:
        raise DataError(f"not a {SCORES_FORMAT} score file")
    for key in ("probe_subjects", "gallery_subjects", "metric"):
        if key not in meta:
            raise DataError(f"score file header incomplete: {key!r}")
    subjects = []
    for key in ("probe_subjects", "gallery_subjects"):
        subjects.append(parse_json(meta[key], f"score file header {key}", DataError))
        if not isinstance(subjects[-1], list) or not all(isinstance(s, str) for s in subjects[-1]):
            raise DataError(f"score file header {key} is not a JSON list of strings")

    header_end = data.find(b"\n", pos)
    header_end = len(data) if header_end < 0 else header_end
    if data[pos:header_end].rstrip(b"\r") != b"i,j,k,score":
        raise DataError("score file missing i,j,k,score header row")
    return subjects[0], subjects[1], meta["metric"], header_end + 1, line_no + 1


def _score_rows(data: bytes, pos: int, line_no: int, n_probe: int, n_gallery: int) -> np.ndarray:
    """The ``(n_probe, n_gallery, T)`` cells of the rows from offset ``pos``,
    line ``line_no``, on."""
    stop = len(data)
    while stop > pos and data[stop - 1] in b"\r\n":
        stop -= 1

    if stop <= pos:
        raise DataError("score file has no rows")
    body = data[pos:stop]
    try:
        rows = _load_score_rows(body)
    except ValueError:  # UnicodeDecodeError included
        rows = None
    # loadtxt skips blank lines, so a blank line leaves a row short
    if rows is None or rows.size != body.count(b"\n") + 1:
        lines = body.split(b"\n")
        bad = first_bad_row(lines, _load_score_rows)
        if bad is None:
            raise DataError("malformed score rows")
        raise DataError(
            f"malformed score row at line {line_no + bad[0]}: "
            f"{lines[bad[0]][:80].decode('ascii', 'replace')!r} (expected i,j,k,score)"
        )
    index = np.stack([rows["i"], rows["j"], rows["k"]], axis=1)
    max_k = int(index[:, 2].max())
    shape = (n_probe, n_gallery, max_k + 1)
    expected = shape[0] * shape[1] * shape[2]
    outside = np.flatnonzero(np.any((index < 0) | (index >= shape), axis=1))
    if outside.size:
        i, j, k = index[outside[0]].tolist()
        raise DataError(f"score cell index ({i},{j},{k}) out of bounds {shape}")
    # before the tensor-sized bincount, which one huge k index would inflate
    if rows.size != expected:
        raise DataError(
            f"score file has {rows.size} cells, expected {expected} for shape {shape}"
        )
    flat = np.ravel_multi_index(tuple(index.T), shape)
    del index
    seen = np.bincount(flat, minlength=expected)
    if np.any(seen > 1):
        i, j, k = np.unravel_index(int(np.argmax(seen > 1)), shape)
        raise DataError(f"score cell ({i},{j},{k}) appears more than once")
    scores = np.empty(expected)
    scores[flat] = rows["score"]
    return scores.reshape(shape)


def _score_tensor(
    probe_subjects: list[str], gallery_subjects: list[str], scores: np.ndarray, metric: str
) -> ScoreTensor:
    try:
        return ScoreTensor(tuple(probe_subjects), tuple(gallery_subjects), scores, metric)
    except ValueError as exc:
        raise DataError(f"invalid score tensor: {exc}") from exc


def scores_from_csv(data: bytes | str) -> ScoreTensor:
    """Parse the interchange CSV back into a ScoreTensor.

    The ``#`` comment lines and the ``i,j,k,score`` header come first, then
    one row per cell; every cell of the tensor must appear exactly once.
    ``data`` is the file's bytes (text is encoded first).  One ``np.loadtxt``
    call parses the rows; a line it does not read as one row, blank or not
    ASCII, is an error naming it.  Line breaks after the last row are ignored.
    """
    data = data.encode() if isinstance(data, str) else data
    probe_subjects, gallery_subjects, metric, pos, line_no = _score_header(data)
    scores = _score_rows(data, pos, line_no, len(probe_subjects), len(gallery_subjects))
    return _score_tensor(probe_subjects, gallery_subjects, scores, metric)


def save_scores_csv(tensor: ScoreTensor, path: str | Path) -> None:
    """Write ``tensor`` to the score file ``path`` and its two sidecars
    (module docstring): ``scores.npy``, then the CSV of :func:`scores_to_csv`,
    then ``scores.json`` last, each atomically.  The CSV is streamed into its
    file and its digest one probe row at a time, so its text is never held
    whole.  Its bytes are the same as without the sidecars, and the same
    however many processes format them.  A ``path`` with the suffix
    ``.npy`` or ``.json`` would be one of its own sidecars, so it is a
    ValueError before any write."""
    csv, npy, manifest = score_files(path)
    if csv in (npy, manifest):
        raise ValueError(f"score file {csv} has the name of its own {csv.suffix} sidecar")
    with text(len(tensor.scores), tensor.scores.size, _SHARE_FLOOR,
              lambda rows: _row_blocks(tensor, rows)) as chunks:
        save_pinned(
            npy, tensor.scores,
            csv, itertools.chain([_score_head(tensor)], chunks),
            manifest, lambda digests: {"format": SCORES_FORMAT, "sha256": digests},
        )


#: the ``#`` lines of a score file and the line after them; a ``#`` line
#: cut short by the end of the bytes is not taken for that line
_HEAD = re.compile(rb"(?:#[^\n]*\n)*(?!#)[^\n]*\n")


def _head_and_digest(path: Path) -> tuple[bytes, str]:
    """The header of the score file ``path``, its ``#`` lines and the line
    after them (all its bytes when it ends first), and the sha256 of all its
    bytes, from one read in chunks.  The header is matched only after a
    chunk that ends a line, and from the start of the first line it ends,
    so the read stays linear in the file's size, however long its lines."""
    digest = hashlib.sha256()
    head = bytearray()
    found = None
    line = 0  # where the line being read starts; each line before it is a # line
    for chunk in read_chunks(path, DataError):
        digest.update(chunk)
        if found is None:
            head += chunk
            if b"\n" in chunk:
                found = _HEAD.match(head, line)
                line = head.rfind(b"\n") + 1
    return bytes(head[: found.end() if found else None]), digest.hexdigest()


def _pinned_npy(path: Path, digest: str) -> tuple[Path, bytes] | None:
    """The path and bytes of the ``scores.npy`` beside the score file
    ``path``, whose sha256 is ``digest``, when ``scores.json`` is a
    ``facedct-scores-v1`` manifest whose digests pin both files; None when
    the CSV rows are to be parsed.  A sidecar that cannot be read or
    parsed counts as absent."""
    _, npy, manifest_path = score_files(path)
    try:
        manifest = parse_json(read_bytes(manifest_path, DataError), manifest_path, DataError)
    except DataError:
        return None
    if not isinstance(manifest, dict) or manifest.get("format") != SCORES_FORMAT:
        return None
    digests = manifest.get("sha256")
    if not isinstance(digests, dict) or digest != digests.get(path.name):
        return None
    try:
        npy_data = read_bytes(npy, DataError)
    except DataError:
        return None
    if sha256(npy_data) != digests.get(npy.name):
        return None
    return npy, npy_data


def _named(path: Path, parse: Callable[..., Any], *args: Any) -> Any:
    """``parse(*args)``, with a DataError it raises prefixed by ``path``."""
    try:
        return parse(*args)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_scores_csv(path: str | Path) -> ScoreTensor:
    """The tensor of the score file ``path``: its header always, and its
    cells from the pinned ``scores.npy`` beside it when the manifest pins
    both files, or else from its rows (module docstring).  The CSV is
    hashed in chunks, keeping only its header; it is read whole only when
    its rows are parsed, and then its header and rows come from that one
    read.  Every DataError names the file it is about: the CSV, or a pinned
    ``scores.npy``."""
    path = Path(path)
    head, digest = _head_and_digest(path)
    pinned = _pinned_npy(path, digest)
    if pinned is None:
        return _named(path, scores_from_csv, read_bytes(path, DataError))
    npy, npy_data = pinned
    probe_subjects, gallery_subjects, metric, _, _ = _named(path, _score_header, head)
    shape = (len(probe_subjects), len(gallery_subjects), None)
    scores = pinned_array(npy, npy_data, shape, DataError, "score")
    return _named(npy, _score_tensor, probe_subjects, gallery_subjects, scores, metric)
