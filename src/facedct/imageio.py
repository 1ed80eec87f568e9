"""Binary PNM (P5/P6) ingestion and pixel-level preparation.

An image's bytes are decoded once, by :func:`_decode`, into a read-only
view of its samples in the file's own dtype (``uint8`` or ``>u2``), each
sample checked against maxval there.  :func:`_values` casts those samples
to float64 once per image, into one contiguous plane per channel, and
:func:`_plane` builds each requested channel from that cast (gray
passthrough, R/G/B selection, or the one luminance formula, :func:`_luma`)
as a float plane, samples / maxval in [0, 1].  :func:`_resize` brings it to
the canonical analysis window, giving back the plane itself when it
already has that size.  It reads a plan of read-only index and weight
arrays, built once per pair of plane and output shapes
(:func:`_resize_plan`), of which at most :data:`_PLANS` are kept, the
least recently used dropped first; so a dataset of one image size at one
window builds one plan.  Planes are plain 2-D float64 numpy arrays.
``pipeline.featurize_image`` runs these pieces on every image; the public
helpers (:func:`read_pnm`, :func:`to_luminance`, :func:`normalize`,
:func:`resize_bilinear` and :func:`prepare_plane`) call the same pieces on
a :class:`RasterImage`, whose samples are int64.

The ``pipeline`` module docstring gives the measured cost of each step.

:class:`ArrayRecord` is the one equality rule of the public records that
hold arrays: :class:`RasterImage` here, ``FeatureVector``, ``ScoreTensor``
and ``TrialScores``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DataError, MismatchError, naming, parse_json, read_bytes, write_atomic

#: Single-channel sources a feature vector can come from.
CHANNELS = ("gray", "r", "g", "b", "y")

#: Largest analysis window side, far above the default window of 64 and the
#: 80×96 FERET images, so that a mistyped window is rejected.  A plane of
#: window² float64 cells is 128 MiB at this bound, but it is not the whole
#: cost of a window: the cached resize plan of an 80×96 image
#: (:func:`_resize_plan`) holds 2·4096·(80 + 2·4096 + 1) doubles, about
#: 517 MiB (33.3 MiB at window 1024), up to :data:`_PLANS` such plans are
#: kept, and ``features.dct_matrix(4096)`` caches another 128 MiB.
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


class ArrayRecord:
    """Base of the public records that hold numpy arrays.

    Two records are equal when they are of one type and every dataclass
    field is equal, arrays by ``np.array_equal``.  A record is unhashable,
    as its arrays are, and holds each array read-only.
    """

    __hash__ = None

    def _freeze(self, name: str, arr: np.ndarray) -> None:
        arr.flags.writeable = False
        object.__setattr__(self, name, arr)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


@dataclass(eq=False)
class RasterImage(ArrayRecord):
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
        self._freeze("samples", arr)


#: a header token and the whitespace and '#' comments before it; bytes
#: ``\s`` is exactly :data:`_WHITESPACE`, and a token may hold '#'
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if not match.group(1):
        raise PnmHeaderError("unexpected end of data inside header")
    return match.group(1), match.end()


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():
        raise PnmHeaderError(f"non-numeric {what} field: {token!r}")
    try:
        return int(token), pos
    except ValueError:  # more digits than Python converts to an int
        raise PnmHeaderError(f"{what} field of {len(token)} digits is too large") from None


def _decode(data: bytes) -> tuple[np.ndarray, int]:
    """The samples of a binary PGM (P5) or PPM (P6) byte string, as a
    read-only (height, width, channels) view of its body in the file's own
    dtype (``uint8``, or ``>u2`` when maxval > 255), and its maxval.

    Header comments ('#' to end of line) are skipped; a single whitespace
    byte separates maxval from the pixel body.  Every sample is checked
    against maxval here, once.
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
    if len(data) - pos < need:
        raise PnmTruncatedError(f"pixel body has {len(data) - pos} bytes, expected {need}")
    samples = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    if maxval not in (255, 65535):  # else no sample of the dtype can exceed it
        top = samples.max()
        if top > maxval:
            raise PnmError(f"sample value {top} exceeds maxval {maxval}")
    return samples.reshape(height, width, channels), maxval


def read_pnm(data: bytes) -> RasterImage:
    """Parse a binary PGM (P5) or PPM (P6) byte string.

    Header comments ('#' to end of line) are skipped; a single whitespace
    byte separates maxval from the pixel body.  maxval > 255 implies
    two-byte big-endian samples.
    """
    samples, maxval = _decode(data)
    height, width, channels = samples.shape
    return RasterImage(width, height, channels, maxval, samples)


def _encode(samples: np.ndarray, maxval: int) -> bytes:
    """Canonical binary P5/P6 bytes of (height, width, channels) samples,
    one or three channels, each in [0, maxval]; two-byte big-endian samples
    when maxval > 255.  The one encoder: the inverse of :func:`_decode`."""
    height, width, channels = samples.shape
    magic = "P5" if channels == 1 else "P6"
    header = f"{magic}\n{width} {height}\n{maxval}\n".encode("ascii")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    return header + samples.astype(dtype, copy=False).tobytes()


def write_pnm(img: RasterImage) -> bytes:
    """Serialize to canonical binary P5/P6; inverse of :func:`read_pnm`."""
    return _encode(img.samples, img.maxval)


def read_pnm_file(path: str | Path) -> RasterImage:
    return read_pnm(read_bytes(path, DataError))


def write_pnm_samples(samples: np.ndarray, maxval: int, path: str | Path) -> None:
    """Write :func:`_encode` of ``samples`` to the file ``path``: the one
    image write, of the synthetic datasets."""
    with open(path, "wb") as f:
        f.write(_encode(samples, maxval))


def _values(samples: np.ndarray) -> np.ndarray:
    """(height, width, channels) samples of any dtype as one new C-order
    (channels, height, width) float64 array: the one cast of an image's
    samples, each channel a contiguous plane."""
    return np.ascontiguousarray(samples.transpose(2, 0, 1), dtype=np.float64)


def _luma(samples: np.ndarray, maxval: int) -> np.ndarray:
    """The luminance of (3, height, width) samples as a new float plane:
    0.3R + 0.59G + 0.11B, rounded half-up and clamped to [0, maxval]."""
    y = LUMA_WEIGHTS[0] * samples[0]  # float64 for every sample dtype
    y += LUMA_WEIGHTS[1] * samples[1]
    y += LUMA_WEIGHTS[2] * samples[2]
    y += 0.5
    np.floor(y, out=y)
    return np.minimum(y, maxval, out=y)  # y >= 0.5 before the floor


def _plane(values: np.ndarray, maxval: int, channel: str) -> np.ndarray:
    """The normalized float plane, values / maxval in [0, 1], of one of
    :data:`CHANNELS` of an image's :func:`_values`.  "gray" requires one
    channel, "y" is the luminance of RGB, and "r"/"g"/"b" one RGB plane.
    """
    channel = channel.lower()
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    if channel == "gray":
        if values.shape[0] != 1:
            raise MismatchError("channel 'gray' requires a single-channel image")
        return values[0] / maxval
    if values.shape[0] != 3:
        what = "luminance conversion" if channel == "y" else "channel selection"
        raise MismatchError(f"{what} requires an RGB image")
    if channel == "y":
        y = _luma(values, maxval)
        return np.divide(y, maxval, out=y)
    return values["rgb".index(channel)] / maxval


def to_luminance(img: RasterImage) -> RasterImage:
    """Collapse RGB to a single luminance channel (0.3R + 0.59G + 0.11B).

    Rounds half-up and clamps to [0, maxval]; gray input is rejected.
    """
    if img.channels != 3:
        raise MismatchError("luminance conversion requires an RGB image")
    y = _luma(img.samples.transpose(2, 0, 1), img.maxval).astype(np.int64)
    return RasterImage(img.width, img.height, 1, img.maxval, y)


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
    return _plane(_values(img.samples), img.maxval, "gray")


def _axis_interp(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (lo, hi, weight of hi) source pixels of each output pixel."""
    # pixel-center mapping: src = (dst + 0.5) * (in/out) - 0.5, clamped
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, src - lo


#: the most resize plans kept at once, one per pair of plane and output
#: shapes; the least recently used is dropped first
_PLANS = 8


@lru_cache(maxsize=_PLANS)
def _resize_plan(in_h: int, in_w: int, out_h: int, out_w: int) -> tuple[np.ndarray, ...]:
    """The read-only arrays :func:`_resize` reads for an (in_h, in_w) plane
    and an (out_h, out_w) output: the source rows ``ylo`` and ``yhi`` of
    each output row; their weights ``1 - wy`` and ``wy``, each laid out at
    the (out_h, in_w) size of the row step; the flat indices ``xlo`` and
    ``xhi`` of each output cell's source cells in that step's C-order
    result; and their weights ``1 - wx`` and ``wx`` at the output size.
    So each product and sum of a resize is one contiguous loop.  A plan
    holds 2·out_h·(in_w + 2·out_w + 1) values of 8 bytes: 214,016 bytes
    for an 80×96 image at window 64."""
    ylo, yhi, wy = _axis_interp(in_h, out_h)
    xlo, xhi, wx = _axis_interp(in_w, out_w)
    rows, cells = (out_h, in_w), (out_h, out_w)
    wy_lo, wy_hi = (np.broadcast_to(w[:, None], rows).copy() for w in (1.0 - wy, wy))
    row_start = np.arange(out_h, dtype=np.intp)[:, None] * in_w
    wx_lo, wx_hi = (np.broadcast_to(w, cells).copy() for w in (1.0 - wx, wx))
    plan = ylo, yhi, wy_lo, wy_hi, row_start + xlo, row_start + xhi, wx_lo, wx_hi
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _resize(plane: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize of a finite 2-D float64 plane; the plane itself when
    it already has the output size.  Each cell is ``(lo * (1 - w)) + (hi *
    w)`` of two source rows, then the same of two cells of that result."""
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be >= 1")
    if plane.shape == (out_h, out_w):
        return plane
    ylo, yhi, wy_lo, wy_hi, xlo, xhi, wx_lo, wx_hi = _resize_plan(*plane.shape, out_h, out_w)
    rows = plane.take(ylo, axis=0)
    rows *= wy_lo
    below = plane.take(yhi, axis=0)
    below *= wy_hi
    rows += below
    out = rows.take(xlo)
    out *= wx_lo
    right = rows.take(xhi)
    right *= wx_hi
    out += right
    return out


def resize_bilinear(plane: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize of a 2-D plane with pixel-center alignment.

    A plane already of the output size comes back as a copy.  That is what
    the interpolation gives for a finite plane: every weight is exactly 0
    and ``x * 1.0 + y * 0.0 == x``, except that it turns -0.0 into 0.0.
    """
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise ValueError("plane must be 2-D")
    resized = _resize(plane, out_w, out_h)
    return resized.copy() if resized is plane else resized


def _prepare(
    samples: np.ndarray, maxval: int, channels: tuple[str, ...], window: int
) -> list[np.ndarray]:
    """The ``window`` x ``window`` plane of each of ``channels`` of decoded
    samples: one float64 cast of the samples (:func:`_values`), then
    :func:`_plane` and :func:`_resize` of each channel."""
    values = _values(samples)
    return [_resize(_plane(values, maxval, channel), window, window) for channel in channels]


def prepare_plane(img: RasterImage, channel: str, window: int) -> np.ndarray:
    """Run the canonical preparation: channel select -> normalize -> resize.

    ``channel`` is one of :data:`CHANNELS`.  "gray" requires a gray image,
    "y" computes luminance from RGB, "r"/"g"/"b" select one RGB plane.
    """
    return _prepare(img.samples, img.maxval, (channel,), window)[0]


#: a lone surrogate, which JSON text can hold and UTF-8 text cannot
_SURROGATE = re.compile("[\ud800-\udfff]")


def manifest_entries(path: str | Path) -> dict[str, list[str]]:
    """The entries of a dataset manifest, a JSON object mapping each subject
    id to its ordered image paths, each checked and none joined.

    The list order defines the 1-based sample indices used by split rules.
    A manifest that cannot be read, is not JSON, or is not of that form (a
    path that is no string or holds a NUL, or a subject id with a lone
    surrogate) is a ManifestError naming it.
    """
    path = Path(path)
    raw = parse_json(read_bytes(path, ManifestError), f"manifest {path}", ManifestError)
    with naming(path):
        if not isinstance(raw, dict) or not raw:
            raise ManifestError("manifest must be a non-empty JSON object")
        for subject, entries in raw.items():
            if not isinstance(entries, list) or not entries:
                raise ManifestError(f"subject {subject!r}: expected a non-empty list of paths")
            if not all(isinstance(e, str) and "\0" not in e for e in entries):
                raise ManifestError(f"subject {subject!r}: paths must be strings without NUL")
            if _SURROGATE.search(subject):  # which no UTF-8 text, such as vectors.csv, holds
                raise ManifestError(f"subject {subject!r}: an id cannot hold a lone surrogate")
    return raw


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as key-sorted JSON indented by one space; the format
    of the manifest and of the CLI's JSON artifacts.  A NaN or infinity
    raises ``ValueError``: JSON has no token for them."""
    text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    write_atomic(path, (text + "\n").encode())
