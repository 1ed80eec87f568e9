"""The bilinear resize as the toolkit first wrote it: one broadcast product
per weight, over rows, then over columns.  The tests' oracle for
``imageio._resize``, sharing no code with it."""

import numpy as np


def axis_interp(n_in, n_out):
    """The (lo, hi, weight of hi) source pixels of each of ``n_out`` output
    pixels, by the pixel-center mapping."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, src - lo


def reference_resize(plane, out_w, out_h):
    """The ``(out_h, out_w)`` bilinear resize of a float64 plane, computed in
    full at every size, an equal one included."""
    ylo, yhi, wy = axis_interp(plane.shape[0], out_h)
    xlo, xhi, wx = axis_interp(plane.shape[1], out_w)
    rows = plane[ylo, :] * (1.0 - wy)[:, None] + plane[yhi, :] * wy[:, None]
    return rows[:, xlo] * (1.0 - wx) + rows[:, xhi] * wx
