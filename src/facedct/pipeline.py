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
are never regrouped or enrolled one vector at a time."""

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
from .verification import DcfParams, TrialScores, eer, min_dcf, split_intra_inter

DEFAULT_WINDOW = 64


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
    matrices = np.empty((len(channels), sum(counts), dim))
    for row, (subject, path) in enumerate((s, p) for s in ids for p in subjects[s]):
        featurize_image(path, channels, dim, window, subject, matrices[:, row])
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
    caller already has it; passing it shares the split and its staircase
    with the caller.  The identification rate reads the same split, so the
    tensor is partitioned once per summary at most.
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
