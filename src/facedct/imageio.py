"""Binary PNM (P5/P6) ingestion and pixel-level preparation.

Images are parsed into :class:`RasterImage` (integer samples), converted to a
single channel (gray passthrough, R/G/B selection, or luminance), normalized
to a float plane in [0, 1], and resized to the canonical analysis window.
Planes are plain 2-D float64 numpy arrays.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DataError, MismatchError, read_bytes, write_atomic

#: Single-channel sources a feature vector can come from.
CHANNELS = ("gray", "r", "g", "b", "y")

#: Largest analysis window side.  Each image is resized to a float64 plane
#: of window² cells; this bound keeps it at most 128 MiB, far above the
#: default window of 64 and the 80×96 FERET images, so that a mistyped
#: window is rejected instead of exhausting memory.
MAX_WINDOW = 4096

#: RGB -> luminance weights.
LUMA_WEIGHTS = (0.3, 0.59, 0.11)

_WHITESPACE = b" \t\n\r\x0b\x0c"


class PnmError(DataError):
    """Base class for PNM parse failures."""


class PnmUnsupportedMagicError(PnmError):
    """Recognized netpbm magic that this reader does not support (P1-P4, P7)."""


class PnmHeaderError(PnmError):
    """Malformed header: bad magic, non-numeric fields, zero dimensions."""


class PnmMaxvalError(PnmError):
    """Header maxval outside [1, 65535]."""


class PnmTruncatedError(PnmError):
    """Pixel body shorter than the header promises."""


class ManifestError(DataError):
    """Dataset manifest is structurally invalid."""


@dataclass
class RasterImage:
    """Integer pixel grid with 1 (gray) or 3 (RGB) channels.

    ``samples`` is stored as a read-only (height, width, channels) array in
    row-major order; every sample lies in [0, maxval].
    """

    width: int
    height: int
    channels: int
    maxval: int
    samples: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        if not 1 <= self.maxval <= 65535:
            raise ValueError("maxval must be in [1, 65535]")
        arr = np.asarray(self.samples, dtype=np.int64)
        expected = self.height * self.width * self.channels
        if arr.size != expected:
            raise ValueError(
                f"sample count {arr.size} != width*height*channels = {expected}"
            )
        arr = arr.reshape(self.height, self.width, self.channels)
        if arr.size and (arr.min() < 0 or arr.max() > self.maxval):
            raise ValueError("sample out of range [0, maxval]")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RasterImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.channels == other.channels
            and self.maxval == other.maxval
            and np.array_equal(self.samples, other.samples)
        )


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c in _WHITESPACE:
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PnmHeaderError("unexpected end of data inside header")
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE:
        pos += 1
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():
        raise PnmHeaderError(f"non-numeric {what} field: {token!r}")
    return int(token), pos


def read_pnm(data: bytes) -> RasterImage:
    """Parse a binary PGM (P5) or PPM (P6) byte string.

    Header comments ('#' to end of line) are skipped; a single whitespace
    byte separates maxval from the pixel body.  maxval > 255 implies
    two-byte big-endian samples.
    """
    magic = data[:2]
    if magic in (b"P1", b"P2", b"P3", b"P4", b"P7"):
        raise PnmUnsupportedMagicError(
            f"unsupported netpbm variant {magic.decode('ascii')}; only binary P5/P6 are accepted"
        )
    if magic not in (b"P5", b"P6"):
        raise PnmHeaderError(f"not a binary PNM file (magic {magic!r})")
    channels = 1 if magic == b"P5" else 3

    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PnmHeaderError(f"zero or missing dimension ({width}x{height})")
    if not 1 <= maxval <= 65535:
        raise PnmMaxvalError(f"maxval {maxval} outside [1, 65535]")
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise PnmHeaderError("missing single whitespace byte after maxval")
    pos += 1

    count = width * height * channels
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    need = count * dtype.itemsize
    body = data[pos : pos + need]
    if len(body) < need:
        raise PnmTruncatedError(
            f"pixel body has {len(body)} bytes, expected {need}"
        )
    samples = np.frombuffer(body, dtype=dtype).astype(np.int64)
    if samples.max(initial=0) > maxval:
        raise PnmError(f"sample value {samples.max()} exceeds maxval {maxval}")
    return RasterImage(width, height, channels, maxval, samples)


def write_pnm(img: RasterImage) -> bytes:
    """Serialize to canonical binary P5/P6; inverse of :func:`read_pnm`."""
    magic = "P5" if img.channels == 1 else "P6"
    header = f"{magic}\n{img.width} {img.height}\n{img.maxval}\n".encode("ascii")
    dtype = np.dtype(">u2") if img.maxval > 255 else np.dtype(np.uint8)
    return header + img.samples.astype(dtype).tobytes()


def read_pnm_file(path: str | Path) -> RasterImage:
    return read_pnm(read_bytes(path, DataError))


def write_pnm_file(img: RasterImage, path: str | Path) -> None:
    Path(path).write_bytes(write_pnm(img))


def to_luminance(img: RasterImage) -> RasterImage:
    """Collapse RGB to a single luminance channel (0.3R + 0.59G + 0.11B).

    Rounds half-up and clamps to [0, maxval]; gray input is rejected.
    """
    if img.channels != 3:
        raise MismatchError("luminance conversion requires an RGB image")
    rgb = img.samples.astype(np.float64)
    y = LUMA_WEIGHTS[0] * rgb[:, :, 0] + LUMA_WEIGHTS[1] * rgb[:, :, 1] + LUMA_WEIGHTS[2] * rgb[:, :, 2]
    out = np.clip(np.floor(y + 0.5), 0, img.maxval).astype(np.int64)
    return RasterImage(img.width, img.height, 1, img.maxval, out)


def select_channel(img: RasterImage, channel: str) -> RasterImage:
    """Project an RGB image onto one of its planes ("r", "g" or "b")."""
    try:
        idx = ("r", "g", "b").index(channel.lower())
    except ValueError:
        raise ValueError(f"channel must be r, g or b, not {channel!r}") from None
    if img.channels != 3:
        raise MismatchError("channel selection requires an RGB image")
    return RasterImage(img.width, img.height, 1, img.maxval, img.samples[:, :, idx].copy())


def normalize(img: RasterImage) -> np.ndarray:
    """Map a gray image to a float plane: samples / maxval, in [0, 1]."""
    if img.channels != 1:
        raise MismatchError("normalize expects a single-channel image")
    return img.samples[:, :, 0].astype(np.float64) / img.maxval


@lru_cache(maxsize=None)
def _axis_interp(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (lo, hi, weight of hi) source pixels of each output pixel."""
    # pixel-center mapping: src = (dst + 0.5) * (in/out) - 0.5, clamped
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    interp = lo, hi, src - lo
    for arr in interp:
        arr.flags.writeable = False
    return interp


def resize_bilinear(plane: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize of a 2-D plane with pixel-center alignment.

    A plane already of the output size comes back as a copy.  That is what
    the interpolation gives for a finite plane: every weight is exactly 0
    and ``x * 1.0 + y * 0.0 == x``, except that it turns -0.0 into 0.0.
    """
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise ValueError("plane must be 2-D")
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be >= 1")
    if plane.shape == (out_h, out_w):
        return plane.copy()
    in_h, in_w = plane.shape
    ylo, yhi, wy = _axis_interp(in_h, out_h)
    xlo, xhi, wx = _axis_interp(in_w, out_w)
    rows = plane[ylo, :] * (1.0 - wy)[:, None] + plane[yhi, :] * wy[:, None]
    return rows[:, xlo] * (1.0 - wx) + rows[:, xhi] * wx


def prepare_plane(img: RasterImage, channel: str, window: int) -> np.ndarray:
    """Run the canonical preparation: channel select -> normalize -> resize.

    ``channel`` is one of :data:`CHANNELS`.  "gray" requires a gray image,
    "y" computes luminance from RGB, "r"/"g"/"b" select one RGB plane.
    """
    channel = channel.lower()
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    if channel == "gray":
        if img.channels != 1:
            raise MismatchError("channel 'gray' requires a single-channel image")
        gray = img
    elif channel == "y":
        gray = to_luminance(img)
    else:
        gray = select_channel(img, channel)
    return resize_bilinear(normalize(gray), window, window)


def _natural_key(name: str) -> tuple:
    return tuple(int(p) if p.isdigit() else p for p in re.split(r"(\d+)", name))


def load_manifest(path: str | Path) -> dict[str, list[Path]]:
    """Load a dataset manifest: JSON mapping subject-id -> ordered image paths.

    Relative paths are resolved against the manifest's directory.  The
    list order defines the 1-based sample indices used by split rules.
    """
    path = Path(path)
    try:
        raw = json.loads(read_bytes(path, ManifestError))
    except ValueError as exc:  # UnicodeDecodeError included
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(raw, dict) or not raw:
        raise ManifestError("manifest must be a non-empty JSON object")
    base = path.parent
    manifest: dict[str, list[Path]] = {}
    for subject, entries in raw.items():
        if not isinstance(entries, list) or not entries:
            raise ManifestError(f"subject {subject!r}: expected a non-empty list of paths")
        if not all(isinstance(e, str) for e in entries):
            raise ManifestError(f"subject {subject!r}: paths must be strings")
        manifest[str(subject)] = [base / e for e in entries]
    return manifest


def build_manifest_from_tree(root: str | Path) -> dict[str, list[Path]]:
    """Scan ``root``, treating each subdirectory as a subject.

    Image files (*.pgm, *.ppm, *.pnm) are ordered by natural numeric sort,
    so "2.pgm" precedes "10.pgm".
    """
    root = Path(root)
    manifest: dict[str, list[Path]] = {}
    for sub in sorted((d for d in root.iterdir() if d.is_dir()), key=lambda d: _natural_key(d.name)):
        files = [f for f in sub.iterdir() if f.suffix.lower() in (".pgm", ".ppm", ".pnm")]
        if files:
            manifest[sub.name] = sorted(files, key=lambda f: _natural_key(f.name))
    if not manifest:
        raise ManifestError(f"no subject directories with PNM images under {root}")
    return manifest


def save_manifest(manifest: dict[str, list[Path]], path: str | Path) -> None:
    """Write a manifest, storing paths relative to the manifest file when possible."""
    path = Path(path)
    base = path.parent.resolve()

    def entry(p: Path) -> str:
        try:
            return str(p.resolve().relative_to(base))
        except ValueError:
            return str(p)

    write_json(path, {subject: [entry(p) for p in paths] for subject, paths in manifest.items()})


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as key-sorted JSON indented by one space; the format
    of the manifest and of the CLI's JSON artifacts."""
    write_atomic(path, (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode())
