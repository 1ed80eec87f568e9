"""End-to-end plumbing shared by the channel pipelines and the CLI:
manifest -> features (one decode per image, for every channel) -> gallery
-> score tensor -> summary metrics.

:func:`featurize_image` is the one per-image step of every command.  It
reads an image's bytes and decodes them once, into the file's own sample
dtype; builds each requested channel's normalized plane straight from
those samples and resizes it to the window; and writes the plane's first
D zigzag DCT coefficients into the caller's row.  No ``RasterImage`` or
``FeatureVector`` is made on the way.

:func:`extract_subject_features` returns, per channel, one
:class:`~facedct.gallery.Gallery`: an ``(N, D)`` float64 matrix with rows
grouped by subject, each row written in place by :func:`featurize_image`.
The training split's is the gallery that ``enroll`` saves, and the test
split's is the probe set that ``build_score_tensor`` scores, so features
are never regrouped or enrolled one vector at a time.

It featurizes in row shares (:mod:`facedct.shares`): from
``2 * _FEATURIZE_FLOOR`` images, the rows are split into contiguous
shares, one per usable CPU.  The ``(C, N, D)`` array of all channels'
matrices then lives in memory shared with forked workers, each of which
writes its share's rows into it through :func:`featurize_image`, as the
caller does for the first share; that memory is the returned matrices,
with no copy.  A worker that fails (an image that cannot be read, say)
exits non-zero and prints nothing, and the caller featurizes its share
again, in share order, so a bad image raises the error of the inline
path, for the first bad image in row order."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, read_bytes
from .features import DEFAULT_DIM, _coefficients
from .gallery import Gallery
from .imageio import _decode, _prepare
from .matching import (
    IdentificationResult,
    ScoreTensor,
    _identification,
    build_score_tensor,
)
from .shares import compute_in_shares, n_shares, shared_array
from .verification import DcfParams, TrialScores, eer, min_dcf, split_intra_inter

DEFAULT_WINDOW = 64

#: the fewest images per share when :func:`extract_subject_features` splits
#: them between processes.  On a 2-vCPU Xeon, in a caller holding 100 MB,
#: n gray 80x96 images at window 64, dim 100 took, in two shares against
#: inline (medians of 15), 1.26x and 1.13x at n = 50 and 100, 0.73x, 0.74x
#: and 0.71x at 150, 200 and 300, and 0.64x, 0.69x and 0.59x at 400, 600
#: and 1000; one channel of 64x64 RGB images took 1.02x, 0.95x and 1.04x at
#: 100, 150 and 200, and 0.73x at 300.  With this floor the images are split from 300,
#: and an orl-rgb split (200 images) never is, though four channels of its
#: images took 0.64x at 200: a fork also costs the caller's later calls a
#: page fault for each page they write, which that timing leaves out
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
    whose = "" if subject is None else f"subject {subject!r}"
    try:
        samples, maxval = _decode(read_bytes(path, DataError))
        planes = [_prepare(samples, maxval, channel, window) for channel in channels]
    except DataError as exc:
        raise type(exc)(f"{whose}, image {path}: {exc}".removeprefix(", ")) from exc
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
    subject lists at least one image, as ``load_manifest`` ensures.  Each
    image's rows are written in place; no split is held whole in any other
    form."""
    ids = sorted(subjects)
    counts = [len(subjects[s]) for s in ids]
    images = [(s, p) for s in ids for p in subjects[s]]
    k = n_shares(len(images) // _FEATURIZE_FLOOR)
    matrices = shared_array((len(channels), len(images), dim), k)

    def featurize(rows: range) -> None:
        for row in rows:
            subject, path = images[row]
            featurize_image(path, channels, dim, window, subject, matrices[:, row])

    compute_in_shares(featurize, len(images), k)
    return {c: Gallery._of_subjects(ids, counts, c, m) for c, m in zip(channels, matrices)}


@dataclass(frozen=True)
class TensorSummary:
    """Evaluation metrics of one score tensor."""

    metric: str
    identification: IdentificationResult
    eer: float
    min_dcf: dict[str, float]
    min_dcf_threshold: dict[str, float]
    n_genuine: int
    n_impostor: int


def summarize_tensor(
    tensor: ScoreTensor,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
    trials: TrialScores | None = None,
) -> TensorSummary:
    """Identification rate plus verification metrics for a tensor.

    min-DCF is reported both at a target prior of 0.5 and at the empirical
    genuine-trial fraction, since either reading of the cost model's prior
    is defensible.  ``trials`` is ``split_intra_inter(tensor)`` when the
    caller already has it; passing it shares the split, and its one sort of
    the pooled cells, with the caller's DET export.  The EER and both
    min-DCF values read only the genuine steps of that sort, never the full
    staircase.  The identification rate reads the same split, so the tensor
    is partitioned once per summary at most.
    """
    if trials is None:
        trials = split_intra_inter(tensor)
    # the trials are the two arrays of the partition, flattened in C order
    n_probes, n_gallery, n_trials = tensor.scores.shape
    identification = _identification(
        trials.genuine.reshape(n_probes, n_trials),
        trials.impostor.reshape(n_probes, n_gallery - 1, n_trials),
    )
    empirical = trials.n_genuine / (trials.n_genuine + trials.n_impostor)
    values: dict[str, float] = {}
    arg: dict[str, float] = {}
    for label, p_true in (("0.5", 0.5), ("empirical", empirical)):
        values[label], arg[label] = min_dcf(trials, DcfParams(c_miss, c_fa, p_true))
    return TensorSummary(
        metric=tensor.metric,
        identification=identification,
        eer=eer(trials),
        min_dcf=values,
        min_dcf_threshold=arg,
        n_genuine=trials.n_genuine,
        n_impostor=trials.n_impostor,
    )
