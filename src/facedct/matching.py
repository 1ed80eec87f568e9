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
thin calls into it, so every route gives the same bits.  It computes
under ``np.errstate(over="ignore")``: a distance past the largest double is
+inf, no match, and ``build_score_tensor`` refuses a tensor that holds one
with a :class:`DistanceOverflowError` naming its two subjects.
A :class:`ScoreTensor` finds each probe row's own-subject column once,
when it is made, through one lookup of its gallery subjects, and holds the
genuine cells there as the read-only ``(P, T)`` :attr:`ScoreTensor.genuine`.
:func:`identification_rate` is the one rank-1 rule, and
``pipeline.summarize_tensor`` counts with it: it compares each probe's
genuine cells with its best impostor, the two arrays of
:meth:`ScoreTensor.genuine_and_best`, the best found through one
``(P, G, 1)`` mask of the other columns, with no impostor cell copied.
``verification.split_intra_inter`` takes :attr:`ScoreTensor.genuine`,
builds no mask and keeps the tensor's scores as its pool of cells, and
:meth:`ScoreTensor.partition` copies every impostor cell out, for a
:class:`~facedct.verification.TrialScores` whose impostor cells are asked
for.  No other module reads a private member of a :class:`ScoreTensor`.

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
per cell, its score as ``'%.17g' % score`` gives it.  ``scores_to_csv``
builds the rows in blocks of whole probe rows, at most ``_BLOCK_CELLS``
cells unless one row holds more, each a matrix of bytes with a line a row
(:func:`_row_blocks`); the scores in ``%g``'s fixed notation
are formatted there as arrays, exactly (:func:`_g17`), and only the rest
(zeros, subnormals, below 1e-4 and from 1e17 on) one by one.
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
The header has one parser, :func:`_score_header`, which takes the file's
lines in order and stops at the ``i,j,k,score`` row.
:func:`load_scores_csv` reads the CSV once to hash it, parsing its header
from its first lines as they are hashed and hashing the rest in chunks,
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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import errors
from .errors import DataError, MismatchError, naming, parse_json, read_bytes, reading
from .features import FeatureVector, first_bad_row
from .gallery import Gallery
from .imageio import ArrayRecord
from .pinned import pinned_array, save_pinned, sha256
from .shares import fill, text

METRICS = ("mse", "mad")


class MatchingError(DataError):
    """Probe set and gallery cannot be scored against each other."""


class DistanceOverflowError(MatchingError):
    """A probe's distance to an enrolled subject is past the largest double."""


def _check_dims(x: FeatureVector, y: FeatureVector) -> None:
    if x.dim != y.dim:
        raise MismatchError(f"feature dims differ: {x.dim} vs {y.dim}")


def _batched_distances(metric: str, probe: np.ndarray, templates: np.ndarray) -> np.ndarray:
    # templates: (M, D); probe: (D,) -> (M,), each row reduced along its
    # contiguous axis; a distance past the largest double is +inf, no match
    with np.errstate(over="ignore"):
        d = templates - probe
        if metric == "mse":
            np.multiply(d, d, out=d)
        else:
            np.abs(d, out=d)
        return np.add.reduce(d, axis=1)


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


@dataclass(eq=False)
class ScoreTensor(ArrayRecord):
    """Distances s[i][j][k]: probe k of subject i against subject j's models.

    Probe subjects must all be enrolled (appear among gallery subjects);
    the tensor is square exactly when the two subject lists coincide.
    Each probe row's own-subject column is found once, at construction,
    from one lookup of the gallery subjects, and :attr:`genuine` holds the
    read-only ``(P, T)`` genuine cells, those columns, gathered then.
    Neither is a field, so equality and repr read the fields alone.
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
        column = {s: j for j, s in enumerate(self.gallery_subjects)}
        if len(column) != len(self.gallery_subjects):
            raise ValueError("duplicate gallery subjects")
        missing = set(self.probe_subjects) - column.keys()
        if missing:
            raise ValueError(f"probe subjects missing from gallery: {sorted(missing)}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("scores must be finite")
        if arr.size and arr.min() < 0:
            raise ValueError("distances must be >= 0")
        self._freeze("scores", arr)
        self.metric = check_metric(self.metric)
        # each probe row's own-subject column, and the genuine cells there
        self._own_columns = np.array([column[s] for s in self.probe_subjects], dtype=np.intp)
        self._freeze("genuine", arr[np.arange(len(self._own_columns)), self._own_columns])

    @property
    def n_trials(self) -> int:
        return int(self.scores.shape[2])

    def _impostor_mask(self) -> np.ndarray:
        """The ``(P, G, 1)`` mask of every column but each probe row's own."""
        return (np.arange(self.scores.shape[1]) != self._own_columns[:, None])[:, :, None]

    def genuine_and_best(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`genuine`, and each probe's best impostor ``(P, T)``, the
        least of its other columns (+inf when the gallery has no other
        subject); no impostor cell is copied."""
        best = np.min(self.scores, axis=1, where=self._impostor_mask(), initial=np.inf)
        return self.genuine, best

    def partition(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`genuine`, and the impostor cells ``(P, G-1, T)``, each
        probe row's other columns in gallery order."""
        n_probes, n_gallery, n_trials = self.scores.shape
        # a full-shape mask picks single cells, ~10x faster than (P, G) rows
        impostor = self.scores[np.broadcast_to(self._impostor_mask(), self.scores.shape)]
        return self.genuine, impostor.reshape(n_probes, n_gallery - 1, n_trials)

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
            with naming(f"probe subject {subject!r}"):
                for vec in vectors[subject]:
                    probes.enroll(subject, vec)
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
        for row in rows:
            dists = subject_distances(probes.matrix[row], gallery, metric)
            out[row // n_trials, :, row % n_trials] = dists

    shape = (len(probe_subjects), len(gallery_subjects), n_trials)
    scores = fill(shape, n_rows, n_rows * n_templates, _TENSOR_FLOOR, score)
    if not np.isfinite(scores).all():
        i, j, _ = np.argwhere(~np.isfinite(scores))[0]
        raise DistanceOverflowError(
            f"the distance of probe subject {probe_subjects[i]!r} to subject "
            f"{gallery_subjects[j]!r} is past the largest double"
        )
    return ScoreTensor(probe_subjects, gallery_subjects, scores, metric)


def identification_rate(tensor: ScoreTensor) -> IdentificationResult:
    """Fraction of probes whose own subject attains the strict row minimum.

    A tie between the genuine cell and any other subject counts as an error.
    """
    genuine, best = tensor.genuine_and_best()
    successes = int(np.count_nonzero(genuine < best))
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


#: the most bytes of ``'%.17g' % x`` for a double, as in ``-2.2250738585072014e-308``
_FIELD = 24

#: the most cells in one block of whole probe rows of :func:`_row_blocks`,
#: unless one row holds more; its line matrix is then ~0.15 MB.  1M cells
#: took 0.22-0.25 s in blocks of 4k, 16k or 32k cells, and 1.5-1.9x that in
#: blocks of 1k; a save of a 300 x 300 tensor peaked at 1.0, 4.3 and 8.5 MB
#: of Python memory in blocks of 4k, 16k and 32k cells
_BLOCK_CELLS = 4096


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double into two halves of at most 26
    significant bits, whose sum is exactly the double: ``(high, low)``."""
    t = a * 134217729.0  # 2**27 + 1
    high = t - (t - a)
    return high, a - high


#: 10**p for p = 0 .. 22, each exactly a double, and its two halves
_POW10 = np.array([float(10**p) for p in range(23)])
_POW10_HIGH, _POW10_LOW = _halves(_POW10)


def _g17(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each ``v`` of ``x``, as the rows of a
    ``(len(x), _FIELD)`` uint8 matrix, each field left-aligned and followed
    by zeros.

    A cell ``1e-4 <= v < 1e17`` is in ``%g``'s fixed notation at 17
    significant digits, whose exponent is ``X = floor(log10 v)`` (no
    rounding carries past 1e17, since every double from 1e16 on is an
    integer).  Its digits are the integer ``N`` nearest to
    ``y = v * 10**(16 - X)``, ties to even, as dtoa rounds:

    - ``10**(16 - X)`` is an exact double, and Dekker's product (1971, "A
      floating-point technique for extending the available precision")
      gives ``y`` exactly as ``hi + lo``, with ``|lo|`` at most half an ulp
      of ``hi``.  ``X`` starts from numpy's ``log10`` and is moved until
      ``1e16 <= hi + lo < 1e17``, tested exactly.
    - ``hi >= 1e16`` is an even integer, so ``N = hi + rint(lo)``, since
      ``rint`` also rounds half to even.  ``N = 10**17`` is ``10**16`` with
      ``X + 1``.
    - The 17 digits come from the two halves of ``N`` below ``2**32``, one
      divide a digit, from the last, into a ``(17, cells)`` array.  The
      fraction's trailing zeros are left out, and the ``.`` with them when
      none is left.  The cells are sorted by ``X``, so the cells of each
      ``X`` are one run of rows whose digits all go to the same columns.

    This is the fixed-precision printing of Adams (2019, "Ryu revisited:
    printf floating point conversion") over arrays, with a double-double
    product in place of its tables.  Every other cell (a zero, a
    subnormal, ``v < 1e-4`` or ``v >= 1e17``, and a negative or non-finite
    value) is formatted by ``'%.17g'`` one cell at a time.
    """
    out = np.zeros((len(x), _FIELD), np.uint8)
    fast = (x >= 1e-4) & (x < 1e17)
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{_FIELD}")
        out[slow] = text.view(np.uint8).reshape(-1, _FIELD)
    cells = np.flatnonzero(fast)
    if not len(cells):
        return out
    v = x[cells]
    exp = np.clip(np.floor(np.log10(v)), -4, 16).astype(np.int8)
    v_high, v_low = _halves(v)
    while True:
        p = (16 - exp).astype(np.intp)
        hi = v * _POW10[p]
        lo = ((v_high * _POW10_HIGH[p] - hi) + v_high * _POW10_LOW[p] + v_low * _POW10_HIGH[p]) \
            + v_low * _POW10_LOW[p]
        below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        if not (below.any() or above.any()):
            break
        exp += above.astype(np.int8) - below
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    exp[carry] += 1
    order = np.argsort(exp, kind="stable")
    exp, n = exp[order], n[order]
    starts = [0, *(np.flatnonzero(exp[1:] != exp[:-1]) + 1).tolist()]
    runs = [(int(exp[s]), s, t) for s, t in zip(starts, [*starts[1:], len(n)])]
    digits = np.empty((17, len(n)), np.uint8)
    trailing = np.ones(len(n), bool)  # no nonzero digit after this one
    top = n // 10**9
    for half, last, first in ((n - top * 10**9, 16, 8), (top, 7, 0)):
        half = half.astype(np.uint32)
        for d in range(last, first - 1, -1):
            quotient = half // 10
            digits[d] = half - quotient * 10 + ord("0")
            half = quotient
            if trailing is not None:
                trailing &= digits[d] == ord("0")
                # a trailing zero of the fraction is left out
                digits[d][trailing & (exp < d)] = 0
                if not trailing.any():
                    trailing = None
    field = np.zeros((len(n), _FIELD), np.uint8)
    for e, s, t in runs:
        chars = digits[:, s:t].T
        if e < 0:
            field[s:t, : 1 - e] = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
            field[s:t, 1 - e : 18 - e] = chars
        else:
            field[s:t, : e + 1] = chars[:, : e + 1]
            field[s:t, e + 2 : 18] = chars[:, e + 1 :]
            if e < 16:
                field[s:t, e + 1] = np.where(chars[:, e + 1] != 0, ord("."), 0)
    rows = out.view(f"V{_FIELD}")[:, 0]
    rows[cells[order]] = field.view(f"V{_FIELD}")[:, 0]
    return out


def _decimals(v: np.ndarray, out: np.ndarray) -> None:
    """Write each integer ``v >= 0`` right-aligned into its row of ``out``,
    uint8 zeros wide enough for the largest, with no leading zeros."""
    out[:, -1] = v % 10 + ord("0")
    for col in range(out.shape[1] - 2, -1, -1):
        v = v // 10
        out[:, col] = np.where(v > 0, v % 10 + ord("0"), 0)


def _row_blocks(tensor: ScoreTensor, rows: range) -> Iterator[bytes]:
    """The bytes of the probe rows ``rows`` of :func:`scores_to_csv`, in C
    order of the tensor, in blocks of whole probe rows: as many as fit in
    ``_BLOCK_CELLS`` cells, and at least one, so a row of more cells is a
    block of its own.  Every block's lines are cut from one template.

    A block's ``i,j,k,score`` lines are built in one matrix of bytes, a
    line a row: ``i``, ``j`` and ``k`` right-aligned in columns as wide as
    the largest of each, a ``,`` after each, the score's ``%.17g`` field
    from :func:`_g17`, and ``\\n``.  The matrix starts as zeros, which no
    line holds, so dropping its zeros leaves the lines.  No field holds a
    comma, quote or newline, so ``csv.writer`` would quote none.  The
    header is built apart from them, so no subject id is ever formatted
    here.
    """
    n_probe, n_gallery, n_trials = tensor.scores.shape
    if not n_probe:
        raise ValueError("a tensor without probes has no score rows")
    i_width, j_width, k_width = (len(str(n - 1)) for n in tensor.scores.shape)
    score = i_width + j_width + k_width + 3  # the column of the score field
    row_cells = n_gallery * n_trials
    per_block = max(1, _BLOCK_CELLS // row_cells)
    # the lines of one block, less i and the score: zeros, then ,j,k, zeros
    # and \n
    cells = np.tile(np.arange(row_cells), per_block)
    template = np.zeros((len(cells), score + _FIELD + 1), np.uint8)
    template[:, [i_width, i_width + j_width + 1, score - 1]] = ord(",")
    _decimals(cells // n_trials, template[:, i_width + 1 : i_width + 1 + j_width])
    _decimals(cells % n_trials, template[:, score - 1 - k_width : score - 1])
    template[:, -1] = ord("\n")
    ids = np.zeros((len(rows), i_width), np.uint8)
    _decimals(np.arange(rows.start, rows.stop), ids)
    flat = tensor.scores.reshape(n_probe, row_cells)
    for i in range(rows.start, rows.stop, per_block):
        block_ids = ids[i - rows.start : i - rows.start + per_block]
        lines = template[: len(block_ids) * row_cells].copy()
        lines.reshape(len(block_ids), row_cells, -1)[:, :, :i_width] = block_ids[:, None]
        lines[:, score:-1] = _g17(flat[i : i + len(block_ids)].ravel())
        yield lines[lines != 0].tobytes()


def scores_to_csv(tensor: ScoreTensor) -> str:
    """Interchange CSV: provenance comments, then i,j,k,score rows.

    :func:`save_scores_csv` writes the same text from the same two
    formatters, one block of :func:`_row_blocks` at a time; only this whole
    string holds more than one block's text.
    """
    return b"".join([_score_head(tensor), *_row_blocks(tensor, range(len(tensor.scores)))]).decode()


#: the fewest tensor cells per share when :func:`save_scores_csv` splits the
#: probe rows between processes.  On a 2-vCPU Xeon, at ~0.2 us a cell of
#: text, a save in two shares took 1.9-2.1x, 1.1-1.3x and 1.0-1.3x the
#: inline time at 10,000, 25,000 and 50,000 cells, 0.8-1.05x at 100,000,
#: 0.7-0.9x at 200,000, and 0.65-0.77x at 300,000 to 1,000,000 cells
#: (medians of 9 or 11 interleaved saves, in three sets); with this floor
#: the rows are split from 200,000 cells, where the fork paid in every set
_SHARE_FLOOR = 100_000


_ROW_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("k", np.int64), ("score", np.float64)])


def _load_score_rows(data: bytes) -> np.ndarray:
    opts = dict(delimiter=",", comments=None, ndmin=1, encoding="ascii")
    return np.loadtxt(io.BytesIO(data), _ROW_DTYPE, **opts)


def _score_header(lines: Iterable[bytes]) -> tuple[list[str], list[str], str, int]:
    """The probe and gallery subjects and the metric of a score file's
    header, and the line number of its first row, from the file's lines in
    order: its ``#`` lines, then the ``i,j,k,score`` row, the last line
    taken, so that an open file is left at its first row."""
    meta: dict[str, str] = {}
    line_no = 1
    for row in lines:
        if not row.startswith(b"#"):
            break
        try:
            key, _, value = row[1:].decode().strip().partition("=")
        except UnicodeDecodeError:
            raise DataError(f"score file line {line_no} is not UTF-8") from None
        meta[key.strip()] = value
        line_no += 1
    # a format line was taken, so ``row`` is bound past this check; when the
    # lines end, it is the last ``#`` line, which is no i,j,k,score row
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
    if row.rstrip(b"\r\n") != b"i,j,k,score":
        raise DataError("score file missing i,j,k,score header row")
    return subjects[0], subjects[1], meta["metric"], line_no + 1


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


def scores_from_csv(data: bytes | str) -> ScoreTensor:
    """Parse the interchange CSV back into a ScoreTensor.

    The ``#`` comment lines and the ``i,j,k,score`` header come first, then
    one row per cell; every cell of the tensor must appear exactly once.
    ``data`` is the file's bytes (text is encoded first).  One ``np.loadtxt``
    call parses the rows; a line it does not read as one row, blank or not
    ASCII, is an error naming it.  Line breaks after the last row are ignored.
    """
    data = data.encode() if isinstance(data, str) else data
    stream = io.BytesIO(data)
    probe_subjects, gallery_subjects, metric, line_no = _score_header(stream)
    scores = _score_rows(data, stream.tell(), line_no, len(probe_subjects), len(gallery_subjects))
    with naming("invalid score tensor", DataError, ValueError):
        return ScoreTensor(tuple(probe_subjects), tuple(gallery_subjects), scores, metric)


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


def load_scores_csv(path: str | Path) -> ScoreTensor:
    """The tensor of the score file ``path``: its header always, and its
    cells from the pinned ``scores.npy`` beside it when the manifest pins
    both files, or else from its rows (module docstring).  The CSV is read
    once to hash it: :func:`_score_header` parses its header from its lines
    as they are hashed, and the rest is hashed in reads of
    ``errors.CHUNK_SIZE`` bytes, so only the header is held.  It is read
    whole only when its rows are parsed, and then its header and rows come
    from that one read.  Every DataError names the file it is about: the
    CSV, or a pinned ``scores.npy``."""
    path = Path(path)
    digest = hashlib.sha256()
    with reading(path, DataError) as f:
        with naming(path, DataError, DataError):
            # each line is hashed as the header parser takes it
            lines = (digest.update(line) or line for line in f)
            probe_subjects, gallery_subjects, metric, _ = _score_header(lines)
        while chunk := f.read(errors.CHUNK_SIZE):
            digest.update(chunk)
    pinned = _pinned_npy(path, digest.hexdigest())
    if pinned is None:
        data = read_bytes(path, DataError)
        with naming(path, DataError, DataError):
            return scores_from_csv(data)
    npy, npy_data = pinned
    shape = (len(probe_subjects), len(gallery_subjects), None)
    scores = pinned_array(npy, npy_data, shape, DataError, "score")
    with naming(npy, DataError, DataError), naming("invalid score tensor", DataError, ValueError):
        return ScoreTensor(tuple(probe_subjects), tuple(gallery_subjects), scores, metric)
