"""End-to-end plumbing shared by the channel pipelines and the CLI:
manifest -> features -> gallery -> score tensor -> summary metrics."""

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
    path: str | Path, channel: str, dim: int, window: int, subject: str | None = None
) -> FeatureVector:
    """Read, prepare and featurize one image, labelled ``subject``.  An image
    that cannot be read or decoded is a DataError naming its path, and its
    subject when given; decode errors keep their class."""
    whose = "" if subject is None else f"subject {subject!r}"
    try:
        plane = prepare_plane(read_pnm_file(path), channel, window)
    except FileNotFoundError:
        raise DataError(f"{whose}: missing image {path}".removeprefix(": ")) from None
    except OSError as exc:
        raise DataError(f"{whose}, image {path}: {exc.strerror or exc}".removeprefix(", ")) from exc
    except DataError as exc:
        raise type(exc)(f"{whose}, image {path}: {exc}".removeprefix(", ")) from exc
    return extract_features(plane, dim, channel, subject)


def extract_subject_features(
    subjects: dict[str, list[Path]],
    channel: str = "gray",
    dim: int = DEFAULT_DIM,
    window: int = DEFAULT_WINDOW,
) -> dict[str, list[FeatureVector]]:
    """Read, prepare and featurize every listed image, keyed by subject."""
    return {
        subject: [featurize_image(p, channel, dim, window, subject) for p in subjects[subject]]
        for subject in sorted(subjects)
    }


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
    priors: dict[str, float] | None = None,
    trials: TrialScores | None = None,
) -> TensorSummary:
    """Identification rate plus verification metrics for a tensor.

    ``priors`` maps a label to a target prior; by default min-DCF is
    reported both at 0.5 and at the empirical genuine-trial fraction,
    since either reading of the cost model's prior is defensible.
    ``trials`` is ``split_intra_inter(tensor)`` when the caller already has
    it; passing it shares the split and its staircase with the caller.
    """
    if trials is None:
        trials = split_intra_inter(tensor)
    if priors is None:
        empirical = trials.n_genuine / (trials.n_genuine + trials.n_impostor)
        priors = {"0.5": 0.5, "empirical": empirical}
    values: dict[str, float] = {}
    arg: dict[str, float] = {}
    for label, p_true in priors.items():
        value, threshold = min_dcf(trials, DcfParams(c_miss, c_fa, p_true))
        values[label] = value
        arg[label] = threshold
    return TensorSummary(
        metric=tensor.metric,
        identification=identification_rate(tensor),
        eer=eer(trials),
        min_dcf=values,
        min_dcf_threshold=arg,
        n_genuine=trials.n_genuine,
        n_impostor=trials.n_impostor,
    )
