"""Deterministic synthetic face-like datasets for desk-scale evaluation.

Each subject gets a smooth random base pattern (rendered from a sparse
low-frequency spectrum); samples are the base plus scaled Gaussian noise,
quantized to 8-bit PGM/PPM.  The same seed always reproduces the same
bytes, and the noise fields are drawn independently of sigma, so raising
sigma rescales one fixed realization instead of redrawing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import idct2
from .imageio import MAX_WINDOW, RasterImage, save_manifest, write_pnm_file

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
    spectrum = np.zeros((height, width))
    damp = 1.0 / (1.0 + np.add.outer(np.arange(k), np.arange(k, dtype=np.float64)))
    spectrum[:k, :k] = rng.standard_normal((k, k)) * damp
    plane = idct2(spectrum)
    lo, hi = plane.min(), plane.max()
    if hi - lo < 1e-12:
        return np.full((height, width), 0.5)
    return 0.2 + 0.6 * (plane - lo) / (hi - lo)


def _quantize(values: np.ndarray) -> np.ndarray:
    return np.floor(np.clip(values, 0.0, 1.0) * _MAXVAL + 0.5).astype(np.int64)


def _signal_render(rng: np.random.Generator, base: np.ndarray, sigma: float) -> np.ndarray:
    return _quantize(base + sigma * rng.standard_normal(base.shape))


def _background_render(rng: np.random.Generator, shape: tuple[int, int], sigma: float) -> np.ndarray:
    return _quantize(0.5 + sigma * rng.standard_normal(shape))


def _n_bases(placement: str) -> int:
    return 3 if placement == "rgb" else 1


def generate_dataset(spec: SynthSpec, out_dir: str | Path) -> Path:
    """Write the dataset under ``out_dir`` and return the manifest path.

    Layout: one directory per subject (s000, s001, ...) of numbered
    PGM/PPM samples, plus manifest.json at the top.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    h, w = spec.height, spec.width
    shape = (h, w)
    suffix = ".ppm" if spec.color else ".pgm"

    manifest: dict[str, list[Path]] = {}
    for s in range(spec.subjects):
        subject = f"s{s:03d}"
        subject_dir = out_dir / subject
        subject_dir.mkdir(exist_ok=True)
        bases = [_base_plane(rng, h, w) for _ in range(_n_bases(spec.placement))]
        paths = []
        for n in range(spec.samples):
            if spec.placement == "gray":
                planes = [_signal_render(rng, bases[0], spec.noise)]
            elif spec.placement == "rgb-equal":
                one = _signal_render(rng, bases[0], spec.noise)
                planes = [one, one, one]
            elif spec.placement == "rgb":
                planes = [_signal_render(rng, b, spec.noise) for b in bases]
            else:  # single signal channel, identityless noise elsewhere
                signal_idx = {"r-only": 0, "g-only": 1, "b-only": 2}[spec.placement]
                planes = []
                for c in range(3):
                    if c == signal_idx:
                        planes.append(_signal_render(rng, bases[0], spec.noise))
                    else:
                        planes.append(_background_render(rng, shape, spec.noise))
            samples = np.stack(planes, axis=-1)
            img = RasterImage(w, h, samples.shape[-1], _MAXVAL, samples)
            path = subject_dir / f"{n + 1:02d}{suffix}"
            write_pnm_file(img, path)
            paths.append(path)
        manifest[subject] = paths

    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest, manifest_path)
    return manifest_path
