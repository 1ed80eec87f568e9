"""Deterministic synthetic face-like datasets for desk-scale evaluation.

Each subject gets a smooth random base pattern (rendered from a sparse
low-frequency spectrum); samples are the base plus scaled Gaussian noise,
quantized to 8-bit PGM/PPM.  The same seed always reproduces the same
bytes, and the noise fields are drawn independently of sigma, so raising
sigma rescales one fixed realization instead of redrawing it.

How an image's bytes are made: per subject, one base plane per identity
signal (three for "rgb", else one) is drawn, then per sample one
``standard_normal`` plane per signal or background channel, in channel
order ("rgb-equal" draws one and repeats it).  Each draw is turned in
place into ``floor(clip(level + sigma * noise, 0, 1) * 255 + 0.5)``, where
the level is the base plane or 0.5 for identityless noise, and cast once
into the image's ``uint8`` samples, which ``imageio.write_pnm_samples``
writes as a P5 or P6 file.  ``manifest.json`` lists each subject's images
as ``<subject>/<name>``, relative to the dataset directory.
``tests/test_synth.py`` pins the sha256 of every file written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import dct_matrix
from .imageio import MAX_WINDOW, write_json, write_pnm_samples

PLACEMENTS = ("gray", "rgb-equal", "rgb", "r-only", "g-only", "b-only")

_MAXVAL = 255


@dataclass(frozen=True)
class SynthSpec:
    """Generator knobs; the seed is mandatory for reproducibility."""

    subjects: int
    samples: int
    noise: float
    seed: int
    width: int = 64
    height: int = 64
    placement: str = "gray"

    def __post_init__(self) -> None:
        if self.subjects < 1 or self.samples < 1:
            raise ValueError("subjects and samples must be >= 1")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError("noise sigma must be finite and >= 0")
        if self.width < 4 or self.height < 4:
            raise ValueError("images must be at least 4x4")
        for side in ("width", "height"):
            if getattr(self, side) > MAX_WINDOW:
                raise ValueError(f"image {side} must be at most {MAX_WINDOW}")
        if self.placement not in PLACEMENTS:
            raise ValueError(f"placement must be one of {PLACEMENTS}")

    @property
    def color(self) -> bool:
        return self.placement != "gray"


def _base_plane(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    # smooth identity pattern: sparse low-frequency spectrum, rescaled to
    # [0.2, 0.8] so noise and clamping have headroom on both sides
    k = min(6, height, width)
    damp = 1.0 / (1.0 + np.add.outer(np.arange(k), np.arange(k, dtype=np.float64)))
    coeffs = rng.standard_normal((k, k)) * damp
    # idct2 of the spectrum with ``coeffs`` in its top-left k x k corner and
    # zeros elsewhere: its zero rows and columns add only exact zeros to
    # each sum, so the first k basis vectors of each side give the same plane
    # (checked against idct2 by tests/test_synth.py)
    plane = dct_matrix(height)[:k].T @ coeffs @ dct_matrix(width)[:k]
    lo, hi = plane.min(), plane.max()
    if hi - lo < 1e-12:
        return np.full((height, width), 0.5)
    # 0.2 + 0.6 * (plane - lo) / (hi - lo), in place
    plane -= lo
    plane *= 0.6
    plane /= hi - lo
    plane += 0.2
    return plane


def _render(
    rng: np.random.Generator, noise: np.ndarray, level: np.ndarray | float, sigma: float
) -> np.ndarray:
    """``noise``, filled with one draw and turned in place into the samples
    of ``level + sigma * draw``: clipped to [0, 1], times 255, plus 0.5.
    The caller's cast to ``uint8`` truncates, which for these positive
    values is the floor."""
    rng.standard_normal(out=noise)
    noise *= sigma
    noise += level
    noise.clip(0.0, 1.0, out=noise)
    noise *= _MAXVAL
    noise += 0.5
    return noise


def _layout(rng: np.random.Generator, placement: str, height: int, width: int
            ) -> list[tuple[slice, np.ndarray | float]]:
    """Draw a subject's base planes, three for "rgb" and else one; return
    the channels each draw of its samples fills, in draw order, and the
    level added to that draw: a base plane, or 0.5 for identityless noise."""
    if placement == "rgb":
        return [(slice(c, c + 1), _base_plane(rng, height, width)) for c in range(3)]
    base = _base_plane(rng, height, width)
    if placement == "gray":
        return [(slice(0, 1), base)]
    if placement == "rgb-equal":
        return [(slice(0, 3), base)]
    signal = "rgb".index(placement[0])  # "r-only", "g-only" or "b-only"
    return [(slice(c, c + 1), base if c == signal else 0.5) for c in range(3)]


def generate_dataset(spec: SynthSpec, out_dir: str | Path) -> Path:
    """Write the dataset under ``out_dir`` and return the manifest path.

    Layout: one directory per subject (s000, s001, ...) of numbered
    PGM/PPM samples, plus manifest.json at the top.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    h, w = spec.height, spec.width
    suffix = ".ppm" if spec.color else ".pgm"
    noise = np.empty((h, w))
    samples = np.empty((h, w, 3 if spec.color else 1), dtype=np.uint8)

    manifest: dict[str, list[str]] = {}
    for s in range(spec.subjects):
        subject = f"s{s:03d}"
        (out_dir / subject).mkdir(exist_ok=True)
        layout = _layout(rng, spec.placement, h, w)
        names = []
        for n in range(spec.samples):
            for channels, level in layout:
                samples[:, :, channels] = _render(rng, noise, level, spec.noise)[:, :, None]
            name = f"{subject}/{n + 1:02d}{suffix}"
            write_pnm_samples(samples, _MAXVAL, out_dir / name)
            names.append(name)
        manifest[subject] = names

    manifest_path = out_dir / "manifest.json"
    write_json(manifest_path, manifest)
    return manifest_path
