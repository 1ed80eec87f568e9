"""Color-channel experiments: one pass over R, G, B and luminance, decoding
each image once, and score-level fusion of the channel score tensors.

Score fusion adds raw distance tensors cellwise, without per-channel
normalization, so channels with a larger dynamic range weigh more by
construction."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, naming
from .features import DEFAULT_DIM
from .gallery import SplitSpec, apply_split, load_samples
from .imageio import CHANNELS
from .matching import ScoreTensor, build_score_tensor
from .pipeline import (
    DEFAULT_WINDOW,
    TensorSummary,
    extract_subject_features,
    summarize_tensor,
)


def _check_compatible(tensors: list[ScoreTensor]) -> None:
    if not tensors:
        raise ValueError("fusion needs at least one tensor")
    first = tensors[0]
    for t in tensors[1:]:
        if t.scores.shape != first.scores.shape:
            raise ValueError(
                f"tensor shape {t.scores.shape} != {first.scores.shape}"
            )
        if t.probe_subjects != first.probe_subjects or t.gallery_subjects != first.gallery_subjects:
            raise ValueError("fused tensors must index identical subjects")
        if t.metric != first.metric:
            raise ValueError(f"fused tensors mix metrics {t.metric!r} and {first.metric!r}")


def fuse_scores_sum(tensors: list[ScoreTensor]) -> ScoreTensor:
    """Cellwise sum of channel score tensors: the weighted sum at unit
    weights, bit for bit, since ``1.0 * x == x``."""
    return fuse_scores_weighted(tensors, [1.0] * len(tensors))


#: the most cells of the block of whole probe rows that
#: :func:`fuse_scores_weighted` weighs at once, unless one row holds more.
#: On a 2-vCPU Xeon, a sum and its ScoreTensor took, at 4,096, 16,384,
#: 65,536 and 262,144 cells a block (medians of 25 or 41 interleaved runs,
#: eight sets): 4.58-6.47, 4.18-5.71, 4.01-5.88 and 4.61-6.43 ms for one
#: 1000 x 1000 x 1 tensor, where 65,536 was the least in five sets and
#: 16,384 in three; 0.050-0.097, 0.046-0.096, 0.046-0.082 and
#: 0.046-0.081 ms for three 40 x 40 x 5 tensors, one block from 16,384 on
_FUSE_BLOCK_CELLS = 65_536


def fuse_scores_weighted(tensors: list[ScoreTensor], weights: list[float]) -> ScoreTensor:
    """Cellwise weighted sum; weights must be >= 0 and not all zero.

    Each cell is +0.0 plus each channel's weighted score in turn, in the
    order of ``tensors``.  The weighted channels are added into the one
    output in blocks of whole probe rows, so the only array of the tensor's
    size the sum makes is the output.
    """
    _check_compatible(tensors)
    if len(weights) != len(tensors):
        raise ValueError(f"{len(weights)} weights for {len(tensors)} tensors")
    w = [float(x) for x in weights]
    if any(x < 0 for x in w):
        raise ValueError("weights must be >= 0")
    if not any(w):
        raise ValueError("weights must not all be zero")
    fused = np.zeros_like(tensors[0].scores)
    rows = max(1, _FUSE_BLOCK_CELLS // fused[0].size)
    for start in range(0, len(fused), rows):
        block = fused[start : start + rows]
        for weight, t in zip(w, tensors):
            block += weight * t.scores[start : start + rows]
    return tensors[0].with_scores(fused)


@dataclass(frozen=True)
class FusionSpec:
    """Parsed fusion request: plain sum or weighted sum over channels."""

    kind: str  # "sum" | "weighted"
    channels: tuple[str, ...]
    weights: tuple[float, ...] | None = None

    def label(self) -> str:
        if self.kind == "sum":
            return "+".join(c.upper() for c in self.channels)
        assert self.weights is not None
        return "+".join(f"{w:g}{c.upper()}" for w, c in zip(self.weights, self.channels))


_TERM_RE = re.compile(r"^([0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)([a-z]+)$", re.IGNORECASE)


def parse_fusion_spec(spec: str) -> FusionSpec:
    """Parse "sum:R,G,B" or "w:0.3R+0.59G+0.11B" into a FusionSpec; each
    channel is one of ``CHANNELS``, case-insensitive, named once."""
    kind, sep, body = spec.partition(":")
    kind = kind.strip().lower()
    if not sep or kind not in ("sum", "w"):
        raise ValidationError(
            f"fusion spec must look like 'sum:R,G,B' or 'w:0.3R+0.59G+0.11B', got {spec!r}"
        )
    if kind == "sum":
        channels = tuple(c.strip().lower() for c in body.split(",") if c.strip())
        if not channels:
            raise ValidationError(f"fusion spec {spec!r} lists no channels")
        parsed = FusionSpec("sum", channels)
    else:
        channels, weights = [], []
        for term in body.split("+"):
            m = _TERM_RE.match(term.strip())
            if not m:
                raise ValidationError(f"bad fusion term {term.strip()!r} in {spec!r}")
            weights.append(float(m.group(1)))
            channels.append(m.group(2).lower())
        if not any(weights):
            raise ValidationError(f"fusion spec {spec!r} has all-zero weights")
        parsed = FusionSpec("weighted", tuple(channels), tuple(weights))
    for i, channel in enumerate(parsed.channels):
        if channel not in CHANNELS:
            raise ValidationError(f"fusion spec {spec!r}: {channel!r} is none of {CHANNELS}")
        if channel in parsed.channels[:i]:
            raise ValidationError(f"fusion spec {spec!r} names channel {channel!r} twice")
    return parsed


def apply_fusion(spec: FusionSpec, tensors: dict[str, ScoreTensor]) -> ScoreTensor:
    """Fuse the per-channel tensors named by a FusionSpec."""
    try:
        selected = [tensors[c] for c in spec.channels]
    except KeyError as exc:
        raise ValidationError(f"fusion needs channel {exc.args[0]!r} but it was not run") from None
    with naming(f"fusion spec {spec.label()}", ValidationError, ValueError):
        # weights near the largest double can carry the sum past it
        with np.errstate(over="ignore", invalid="ignore"):
            return fuse_scores_weighted(selected, list(spec.weights or [1.0] * len(selected)))


@dataclass(frozen=True)
class ChannelRunResult:
    """Outcome of one channel's end-to-end run."""

    tensor: ScoreTensor
    summary: TensorSummary


def run_channel_pipeline(
    manifest: dict[str, list[Path]] | str | Path,
    split: SplitSpec,
    channels: tuple[str, ...],
    metric: str = "mse",
    dim: int = DEFAULT_DIM,
    window: int = DEFAULT_WINDOW,
    c_miss: float = 1.0,
    c_fa: float = 1.0,
) -> dict[str, ChannelRunResult]:
    """Per-channel experiments in one pass: featurize every image of the
    split once for all ``channels``, then per channel enroll the training
    split, score the test split and evaluate.  Keyed by channel, in order.
    ``manifest`` maps each subject to its image paths, or is the path of a
    manifest file, of which only the split's samples are joined
    (``gallery.load_samples``)."""
    if isinstance(manifest, dict):
        train, test = apply_split(manifest, split)
    else:
        train, test = load_samples(manifest, split.train_indices, split.test_indices)
    enrolled = extract_subject_features(train, channels, dim, window)
    probes = extract_subject_features(test, channels, dim, window)
    runs = {}
    for channel in channels:
        tensor = build_score_tensor(probes[channel], enrolled[channel], metric)
        runs[channel] = ChannelRunResult(tensor, summarize_tensor(tensor, c_miss, c_fa))
    return runs
