"""End-to-end plumbing shared by the channel pipelines and the CLI:
manifest -> features (one decode per image, for every channel) -> gallery
-> score tensor -> summary metrics.

:func:`featurize_image` is the one per-image step of every command.  It
reads an image's bytes in one unbuffered read and decodes them once, into
the file's own sample dtype; casts those samples to float64 once and
builds each requested channel's normalized plane from that cast; resizes
each plane to the window through the cached plan of its shapes
(``imageio._resize_plan``, at most ``imageio._PLANS`` kept); and writes the
plane's first D zigzag DCT coefficients into the caller's row.  No
``RasterImage`` or ``FeatureVector`` is made on the way.

On a 2-vCPU Xeon, one hot 80×96 gray image at window 64, dim 100, took
72–80 µs in :func:`featurize_image`: 5–8 µs to read, 4–8 µs to decode,
10–13 µs for the cast and the plane, 24–26 µs to resize and 23–31 µs for
the DCT coefficients (minimum of 9 runs of 3,000 calls, in six rounds).

:func:`extract_subject_features` returns, per channel, one
:class:`~facedct.gallery.Gallery`: an ``(N, D)`` float64 matrix with rows
grouped by subject, each row written in place by :func:`featurize_image`.
The training split's is the gallery that ``enroll`` saves, and the test
split's is the probe set that ``build_score_tensor`` scores, so features
are never regrouped or enrolled one vector at a time.

It featurizes in row shares (:func:`facedct.shares.fill`), one image to
a row and to a unit of work, with at least ``_FEATURIZE_FLOOR`` images a
share."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, naming, read_bytes
from .features import DEFAULT_DIM, _coefficients
from .gallery import Gallery
from .imageio import _decode, _prepare
from .matching import IdentificationResult, ScoreTensor, identification_rate
from .shares import fill
from .verification import DcfParams, DetCurve, det_vertices, eer, min_dcf, split_intra_inter

DEFAULT_WINDOW = 64

#: the fewest images per share when :func:`extract_subject_features` splits
#: them between processes.  On a 2-vCPU Xeon, in a caller holding 100 MB,
#: n gray 80x96 images at window 64, dim 100 took, in two shares against
#: inline (medians of 15, in four rounds), 1.12-1.45x at n = 50,
#: 0.84-1.32x at 100, 0.75-0.95x at 150, 0.66-0.86x at 200, 0.62-0.81x at
#: 300 and 0.59-0.80x at 400, 600 and 1000; one channel of 64x64 RGB images
#: took 0.85-1.14x, 0.71-1.06x and 0.69-1.05x at 100, 150 and 200, and
#: 0.62-0.68x at 300 (three rounds).  Interleaved rounds of the code before
#: the resize plan and the one cast, at ~1.4x the cost an image, broke even
#: at the same 100-200 gray images.  With this floor the images are split from 300,
#: and an orl-rgb split (200 images) never is, though four channels of its
#: images took 0.59-0.63x at 200: a fork also costs the caller's later
#: calls a page fault for each page they write, which that timing leaves out
_FEATURIZE_FLOOR = 150


def featurize_image(
    path: str | Path,
    channels: tuple[str, ...],
    dim: int,
    window: int,
    subject: str | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Featurize one image for each of ``channels``, decoding it once: row
    ``i`` of ``out``, a ``(len(channels), dim)`` float64 array (a new one
    when None), receives the first ``dim`` zigzag DCT coefficients of
    channel ``i`` at ``window``, and ``out`` is returned.  An image that
    cannot be read, decoded or converted is a DataError naming its path,
    and its subject when given; decode errors keep their class."""
    with naming(f"image {path}" if subject is None else f"subject {subject!r}, image {path}"):
        samples, maxval = _decode(read_bytes(path, DataError))
        planes = _prepare(samples, maxval, channels, window)
    if out is None:
        out = np.empty((len(channels), dim))
    for plane, row in zip(planes, out):
        _coefficients(plane, dim, row)
    return out


def extract_subject_features(
    subjects: dict[str, list[Path]],
    channels: tuple[str, ...] = ("gray",),
    dim: int = DEFAULT_DIM,
    window: int = DEFAULT_WINDOW,
) -> dict[str, Gallery]:
    """Featurize every listed image for each of ``channels``, decoding it
    once: channel -> one ``(N, dim)`` matrix grouped by subject, subjects in
    lexicographic order and each subject's rows in listed order.  Every
    subject lists at least one image, as ``imageio.manifest_entries``
    ensures.  Each image's rows are written in place; no split is held whole
    in any other form."""
    ids = sorted(subjects)
    counts = [len(subjects[s]) for s in ids]
    images = [(s, p) for s in ids for p in subjects[s]]

    def featurize(out: np.ndarray, rows: range) -> None:
        for row in rows:
            subject, path = images[row]
            featurize_image(path, channels, dim, window, subject, out[:, row])

    shape = (len(channels), len(images), dim)
    matrices = fill(shape, len(images), len(images), _FEATURIZE_FLOOR, featurize)
    return {c: Gallery._of_subjects(ids, counts, c, m) for c, m in zip(channels, matrices)}


@dataclass(frozen=True)
class TensorSummary:
    """Evaluation metrics of one score tensor, and the vertices of its DET
    curve, which take part in equality but not in repr."""

    metric: str
    identification: IdentificationResult
    eer: float
    min_dcf: dict[str, float]
    min_dcf_threshold: dict[str, float]
    n_genuine: int
    n_impostor: int
    det: DetCurve = field(repr=False)


def summarize_tensor(tensor: ScoreTensor, c_miss: float = 1.0, c_fa: float = 1.0) -> TensorSummary:
    """Identification rate, verification metrics and DET vertices of a tensor.

    min-DCF is reported both at a target prior of 0.5 and at the empirical
    genuine-trial fraction, since either reading of the cost model's prior
    is defensible.  The tensor is split once, by ``split_intra_inter``,
    whose pool is the tensor's own cells: it takes ``ScoreTensor.genuine``,
    the genuine cells the tensor gathered when it was made, and copies no
    impostor cell out.  The EER, both min-DCF values and the DET
    vertices (``det_vertices``, as ``det.csv`` and ``det.svg`` hold them)
    read that split's one sort of the head of the pool, the cells at or
    below the largest genuine score and the run just above it.  The rank-1
    count is ``identification_rate`` of the tensor, taken after the split,
    which refuses a one-subject tensor with a ``DegenerateScoresError``.  A
    summary holds no array of the tensor's size.
    """
    trials = split_intra_inter(tensor)
    empirical = trials.n_genuine / trials.n_cells
    values: dict[str, float] = {}
    arg: dict[str, float] = {}
    for label, p_true in (("0.5", 0.5), ("empirical", empirical)):
        values[label], arg[label] = min_dcf(trials, DcfParams(c_miss, c_fa, p_true))
    return TensorSummary(
        metric=tensor.metric,
        identification=identification_rate(tensor),
        eer=eer(trials),
        min_dcf=values,
        min_dcf_threshold=arg,
        n_genuine=trials.n_genuine,
        n_impostor=trials.n_impostor,
        det=det_vertices(trials),
    )
