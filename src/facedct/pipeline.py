"""End-to-end plumbing shared by the channel pipelines and the CLI:
manifest -> features (one decode per image, for every channel) -> gallery
-> score tensor -> summary metrics."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import DataError
from .features import DEFAULT_DIM, FeatureVector, extract_features
from .gallery import Gallery
from .imageio import prepare_plane, read_pnm_file
from .matching import (
    IdentificationResult,
    ScoreTensor,
    build_score_tensor,
    identification_rate,
)
from .verification import DcfParams, TrialScores, eer, min_dcf, split_intra_inter

DEFAULT_WINDOW = 64


def featurize_image(
    path: str | Path, channels: tuple[str, ...], dim: int, window: int, subject: str | None = None
) -> list[FeatureVector]:
    """Decode one image once and featurize it for each of ``channels``, in
    order, labelled ``subject``.  An image that cannot be read, decoded or
    converted is a DataError naming its path, and its subject when given;
    decode errors keep their class."""
    whose = "" if subject is None else f"subject {subject!r}"
    try:
        image = read_pnm_file(path)
        planes = [prepare_plane(image, channel, window) for channel in channels]
    except FileNotFoundError:
        raise DataError(f"{whose}: missing image {path}".removeprefix(": ")) from None
    except OSError as exc:
        raise DataError(f"{whose}, image {path}: {exc.strerror or exc}".removeprefix(", ")) from exc
    except DataError as exc:
        raise type(exc)(f"{whose}, image {path}: {exc}".removeprefix(", ")) from exc
    return [extract_features(p, dim, c, subject) for c, p in zip(channels, planes)]


def extract_subject_features(
    subjects: dict[str, list[Path]],
    channels: tuple[str, ...] = ("gray",),
    dim: int = DEFAULT_DIM,
    window: int = DEFAULT_WINDOW,
) -> dict[str, dict[str, list[FeatureVector]]]:
    """Featurize every listed image for each of ``channels``, decoding it
    once: channel -> subject -> vectors, subjects in lexicographic order."""
    features: dict[str, dict] = {c: {} for c in channels}
    for subject in sorted(subjects):
        vectors = [featurize_image(p, channels, dim, window, subject) for p in subjects[subject]]
        for i, channel in enumerate(channels):
            features[channel][subject] = [v[i] for v in vectors]
    return features


def enroll_subjects(features: dict[str, list[FeatureVector]]) -> Gallery:
    gallery = Gallery()
    for subject in sorted(features):
        for vec in features[subject]:
            gallery.enroll(subject, vec)
    return gallery


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
    with the caller.
    """
    if trials is None:
        trials = split_intra_inter(tensor)
    empirical = trials.n_genuine / (trials.n_genuine + trials.n_impostor)
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
    )
