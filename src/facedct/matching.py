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
thin calls into it, so every route gives the same bits, and
:meth:`ScoreTensor.partition` is the one genuine/impostor split of a tensor.

A tensor is exchanged as ``facedct-scores-v1`` CSV, one ``i,j,k,score`` row
per cell, which ``load_scores_csv`` reads as bytes with one ``np.loadtxt``
call.  A score row is what ``np.loadtxt`` reads as one row.  If the rows do
not load, or a blank line leaves them short, the line named is the first
from which ``np.loadtxt`` alone does not read one row (``first_bad_row``).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, MismatchError, read_bytes, write_atomic
from .features import FeatureVector, first_bad_row
from .gallery import Gallery

METRICS = ("mse", "mad")


class MatchingError(DataError):
    """Probe set and gallery cannot be scored against each other."""


def _check_dims(x: FeatureVector, y: FeatureVector) -> None:
    if x.dim != y.dim:
        raise MismatchError(f"feature dims differ: {x.dim} vs {y.dim}")


def _batched_distances(metric: str, probe: np.ndarray, templates: np.ndarray) -> np.ndarray:
    # templates: (M, D); probe: (D,) -> (M,), each row reduced along its
    # contiguous axis
    d = templates - probe
    if metric == "mse":
        return np.sum(d * d, axis=1)
    return np.sum(np.abs(d), axis=1)


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


def subject_distances(probe: np.ndarray, gallery: Gallery, metric: str) -> np.ndarray:
    """Distance from probe coefficients to each enrolled subject, in
    ``gallery.subject_ids`` order: the minimum over the subject's templates."""
    dists = _batched_distances(check_metric(metric), probe, gallery.matrix)
    return np.minimum.reduceat(dists, gallery.offsets[:-1])


@dataclass
class ScoreTensor:
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
        arr.flags.writeable = False
        object.__setattr__(self, "scores", arr)
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


def build_score_tensor(
    probes: dict[str, list[FeatureVector]], gallery: Gallery, metric: str
) -> ScoreTensor:
    """Score every probe against every enrolled person's nearest template.

    Probe subjects must be enrolled and must all carry the same number of
    trials; dimensions and source channel must match the gallery.
    """
    metric = check_metric(metric)
    if not probes:
        raise MatchingError("no probe subjects supplied")
    probe_subjects = tuple(sorted(probes))
    for subject in probe_subjects:
        if subject not in gallery:
            raise MatchingError(f"probe subject {subject!r} is not enrolled")
        if not probes[subject]:
            raise MatchingError(f"probe subject {subject!r} has no trials")
    n_trials = len(probes[probe_subjects[0]])
    for subject in probe_subjects:
        if len(probes[subject]) != n_trials:
            raise MatchingError(
                f"ragged trial counts: subject {subject!r} has {len(probes[subject])} "
                f"test samples, expected {n_trials}"
            )

    gallery_subjects = tuple(gallery.subject_ids)
    dim = gallery.feature_dim
    scores = np.empty((len(probe_subjects), len(gallery_subjects), n_trials))
    for i, subject in enumerate(probe_subjects):
        for k, vec in enumerate(probes[subject]):
            if vec.dim != dim:
                raise MismatchError(
                    f"probe {subject!r}[{k}] has dim {vec.dim}, gallery dim is {dim}"
                )
            if vec.source_channel != gallery.channel:
                raise MismatchError(
                    f"probe {subject!r}[{k}] channel {vec.source_channel!r} != "
                    f"gallery channel {gallery.channel!r}"
                )
            scores[i, :, k] = subject_distances(vec.coeffs, gallery, metric)
    return ScoreTensor(probe_subjects, gallery_subjects, scores, metric)


def identification_rate(tensor: ScoreTensor) -> IdentificationResult:
    """Fraction of probes whose own subject attains the strict row minimum.

    A tie between the genuine cell and any other subject counts as an error.
    """
    genuine, impostor = tensor.partition()
    successes = int(np.count_nonzero(genuine < impostor.min(axis=1, initial=np.inf)))
    return IdentificationResult(successes, genuine.size - successes)


SCORES_FORMAT = "facedct-scores-v1"


def scores_to_csv(tensor: ScoreTensor) -> str:
    """Interchange CSV: provenance comments, then i,j,k,score rows."""
    head = [
        f"# format={SCORES_FORMAT}",
        f"# metric={tensor.metric}",
        f"# probe_subjects={json.dumps(list(tensor.probe_subjects))}",
        f"# gallery_subjects={json.dumps(list(tensor.gallery_subjects))}",
        "i,j,k,score",
    ]
    n_probe, n_gallery, n_trials = tensor.scores.shape
    jk_strings = [f"{j},{k}," for j in range(n_gallery) for k in range(n_trials)]
    blocks = ["\n".join(head) + "\n"]
    # one block per probe row, in C order of the tensor, so that only one
    # row's strings are alive at a time; no field holds a comma, quote or
    # newline, so csv.writer would quote none
    for i, row in enumerate(tensor.scores.reshape(n_probe, -1).tolist()):
        cells = [f"{i}," + jk for jk in jk_strings]
        values = map("{:.17g}".format, row)
        blocks.append("\n".join(map(str.__add__, cells, values)) + "\n")
    return "".join(blocks)


_ROW_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("k", np.int64), ("score", np.float64)])


def _load_score_rows(data: bytes) -> np.ndarray:
    opts = dict(delimiter=",", comments=None, ndmin=1, encoding="ascii")
    return np.loadtxt(io.BytesIO(data), _ROW_DTYPE, **opts)


def scores_from_csv(data: bytes | str) -> ScoreTensor:
    """Parse the interchange CSV back into a ScoreTensor.

    The ``#`` comment lines and the ``i,j,k,score`` header come first, then
    one row per cell; every cell of the tensor must appear exactly once.
    ``data`` is the file's bytes (text is encoded first).  One ``np.loadtxt``
    call parses the rows; a line it does not read as one row, blank or not
    ASCII, is an error naming it.  Line breaks after the last row are ignored.
    """
    data = data.encode() if isinstance(data, str) else data
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
    try:
        probe_subjects = json.loads(meta["probe_subjects"])
        gallery_subjects = json.loads(meta["gallery_subjects"])
        metric = meta["metric"]
    except (KeyError, json.JSONDecodeError) as exc:
        raise DataError(f"score file header incomplete: {exc}") from exc
    for key, subjects in (("probe_subjects", probe_subjects), ("gallery_subjects", gallery_subjects)):
        if not isinstance(subjects, list) or not all(isinstance(s, str) for s in subjects):
            raise DataError(f"score file header {key} is not a JSON list of strings")

    header_end = data.find(b"\n", pos)
    header_end = len(data) if header_end < 0 else header_end
    if data[pos:header_end].rstrip(b"\r") != b"i,j,k,score":
        raise DataError("score file missing i,j,k,score header row")
    pos, line_no = header_end + 1, line_no + 1
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
    shape = (len(probe_subjects), len(gallery_subjects), max_k + 1)
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
    try:
        return ScoreTensor(
            tuple(probe_subjects), tuple(gallery_subjects), scores.reshape(shape), metric
        )
    except ValueError as exc:
        raise DataError(f"invalid score tensor: {exc}") from exc


def save_scores_csv(tensor: ScoreTensor, path: str | Path) -> None:
    write_atomic(path, scores_to_csv(tensor).encode())


def load_scores_csv(path: str | Path) -> ScoreTensor:
    return scores_from_csv(read_bytes(path, DataError))
