"""Verification analytics: genuine/impostor score split, FAR/FRR threshold
sweep, DET staircase, EER, and the detection cost function.

Convention: scores are distances and a trial is ACCEPTED iff score <=
threshold, so FAR falls and FRR rises as the threshold decreases.  The
score = threshold boundary counts as acceptance.  All threshold sweeps use
the exact candidate set: -inf, a threshold between each two adjacent
pooled distinct scores, and +inf.  That threshold is their midpoint, or the
lower score where the midpoint falls outside [lower, upper): where the
midpoint of two adjacent doubles rounds onto the upper one, or their sum
overflows to +-inf.  So the error staircase attains on the set every value
it takes anywhere on the real line.

The genuine and impostor populations are the two arrays of
:meth:`ScoreTensor.partition`, flattened.  The staircase is built once per
:class:`TrialScores`, when :func:`det_curve`, :func:`eer` or :func:`min_dcf`
first asks.  Every count in it comes from positions in one sort of the
pooled cells: where each run of equal scores ends gives the cells at most
its value, each genuine score's position among the distinct values gives
the genuine ones, and the impostor cells are the rest.  Each threshold lies
between its value and the next, so the counts at the values are the counts
at the thresholds.  :func:`det_curve` returns a :class:`DetCurve`, a
sequence of :class:`DetPoint` over three read-only arrays.

:func:`det_curve` is the full staircase, one point per candidate threshold,
and :func:`eer` and :func:`min_dcf` read all of it.  The ``det.csv`` and
``det.svg`` files hold only :meth:`DetCurve.vertices`: a run of purely
horizontal or purely vertical steps is one straight segment, so its interior
points are dropped.  Each kept row has the bytes the full export gives it.
The thresholds of the dropped points are not exported; ``scores.csv`` and
:func:`far_frr_at` still give the error rates at any threshold.

Each kept interior point ends or begins a step that moves p_miss, and one
that moves p_fa, so there are at most 2 * min(#distinct genuine, #distinct
impostor) + 2 vertices: about 2,000 for a thousand genuine trials.  The
exports write them point by point, through the one probit,
:func:`normal_deviate`, the standard library's
:meth:`statistics.NormalDist.inv_cdf` (Wichura's AS241 algorithm).
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, write_atomic
from .matching import ScoreTensor


class DegenerateScoresError(DataError):
    """Trial set lacks one of the two score populations."""


@dataclass
class TrialScores:
    """Genuine (intra) and impostor (inter) distance populations."""

    genuine: np.ndarray = field(repr=False)
    impostor: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("genuine", "impostor"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            if arr.size == 0:
                raise DegenerateScoresError(f"no {name} trials")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} scores must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_genuine(self) -> int:
        return int(self.genuine.size)

    @property
    def n_impostor(self) -> int:
        return int(self.impostor.size)

    @cached_property
    def _staircase(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(thresholds asc, p_fa, p_miss) over the exact candidate set.

        Every count comes from positions in one sort of the pooled cells.
        A run of equal scores ends at index j - 1 of the sorted pool, so j
        cells score at most its value.  Each genuine score's position among
        the distinct values, counted and summed, gives the genuine cells at
        most each value, and the impostor cells are the rest.  The threshold
        after a value lies in [that value, the next one), so it accepts
        those cells and no others, and the rates divide the same counts as
        :func:`far_frr_at`.

        Built in place: its peak is about four arrays of the pooled cells.
        """
        pooled = np.concatenate([self.genuine, self.impostor])
        pooled.sort()
        # edge[j]: a run of equal scores ends before index j and one starts at it
        edge = np.empty(pooled.size + 1, dtype=bool)
        edge[0] = edge[-1] = True
        np.not_equal(pooled[1:], pooled[:-1], out=edge[1:-1])
        values = pooled[edge[:-1]]
        # cells[k + 1] is the count of cells <= values[k]; cells[0] is 0
        cells = np.flatnonzero(edge)
        del pooled, edge
        thresholds = np.empty(cells.size)
        thresholds[0], thresholds[-1] = -np.inf, np.inf
        mids = thresholds[1:-1]
        with np.errstate(over="ignore"):
            np.add(values[:-1], values[1:], out=mids)
        mids /= 2.0
        # the midpoint of two adjacent doubles can round onto the upper one,
        # a threshold that accepts both, and a sum past the largest double
        # is +-inf; in both cases the lower score accepts only itself
        np.copyto(mids, values[:-1], where=(mids >= values[1:]) | (mids < values[:-1]))
        # hits[k + 1] is the count of genuine cells <= values[k]
        hits = np.bincount(np.searchsorted(values, self.genuine) + 1, minlength=cells.size)
        np.cumsum(hits, out=hits)
        del values
        np.subtract(cells, hits, out=cells)
        p_fa = cells / self.n_impostor
        del cells
        # (n - hits) / n rounds once, as far_frr_at does; 1 - hits/n rounds twice
        p_miss = np.subtract(self.n_genuine, hits, out=hits) / self.n_genuine
        for arr in (thresholds, p_fa, p_miss):
            arr.flags.writeable = False
        return thresholds, p_fa, p_miss


@dataclass(frozen=True)
class DetPoint:
    threshold: float
    p_fa: float
    p_miss: float


class DetCurve(Sequence[DetPoint]):
    """DET staircase ordered by threshold descending, held as three
    read-only arrays; indexing and iteration build :class:`DetPoint` values
    on demand, and slicing returns a :class:`DetCurve`."""

    __slots__ = ("thresholds", "p_fa", "p_miss")

    def __init__(self, thresholds: np.ndarray, p_fa: np.ndarray, p_miss: np.ndarray) -> None:
        self.thresholds = thresholds
        self.p_fa = p_fa
        self.p_miss = p_miss

    def __len__(self) -> int:
        return int(self.thresholds.size)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DetCurve(self.thresholds[index], self.p_fa[index], self.p_miss[index])
        return DetPoint(
            float(self.thresholds[index]), float(self.p_fa[index]), float(self.p_miss[index])
        )

    def __iter__(self) -> Iterator[DetPoint]:
        return map(DetPoint, self.thresholds.tolist(), self.p_fa.tolist(), self.p_miss.tolist())

    def __reversed__(self) -> Iterator[DetPoint]:
        return iter(self[::-1])

    def vertices(self) -> DetCurve:
        """The turning points of the curve, as a :class:`DetCurve` over new
        read-only arrays.

        Interior point i is dropped when the steps i-1 -> i and i -> i+1 both
        change p_fa alone, or both change p_miss alone: it then lies on the
        axis-parallel segment between its neighbours, in linear and probit
        axes alike.  Both endpoints and the two ends of every diagonal (tie)
        step are kept, so the polyline through the vertices is the curve.
        """
        fa_moves = np.diff(self.p_fa) != 0
        miss_moves = np.diff(self.p_miss) != 0
        fa_only = fa_moves & ~miss_moves
        miss_only = miss_moves & ~fa_moves
        keep = np.ones(len(self), dtype=bool)
        keep[1:-1] = ~((fa_only[:-1] & fa_only[1:]) | (miss_only[:-1] & miss_only[1:]))
        arrays = (self.thresholds[keep], self.p_fa[keep], self.p_miss[keep])
        for arr in arrays:
            arr.flags.writeable = False
        return DetCurve(*arrays)


@dataclass(frozen=True)
class DcfParams:
    """Eq-style cost model: cost of a miss, cost of a false alarm, target prior."""

    c_miss: float = 1.0
    c_fa: float = 1.0
    p_true: float = 0.5

    def __post_init__(self) -> None:
        if not (0 <= self.c_miss < math.inf and 0 <= self.c_fa < math.inf):
            raise ValueError(f"costs {self.c_miss!r}, {self.c_fa!r} must be finite and >= 0")
        if not 0.0 < self.p_true < 1.0:
            raise ValueError("p_true must lie in (0, 1)")

    @property
    def p_false(self) -> float:
        return 1.0 - self.p_true


def split_intra_inter(tensor: ScoreTensor) -> TrialScores:
    """Genuine and impostor scores: :meth:`ScoreTensor.partition`, flattened."""
    genuine, impostor = tensor.partition()
    if impostor.size == 0:
        raise DegenerateScoresError("tensor has no impostor trials (single subject)")
    return TrialScores(genuine, impostor)


def far_frr_at(trials: TrialScores, threshold: float) -> tuple[float, float]:
    """(p_fa, p_miss) at one threshold; accept iff score <= threshold."""
    p_fa = float(np.count_nonzero(trials.impostor <= threshold)) / trials.n_impostor
    p_miss = float(np.count_nonzero(trials.genuine > threshold)) / trials.n_genuine
    return p_fa, p_miss


def det_curve(trials: TrialScores) -> DetCurve:
    """Full DET staircase, ordered by threshold descending: (1,0) -> (0,1)."""
    thresholds, p_fa, p_miss = trials._staircase
    return DetCurve(thresholds[::-1], p_fa[::-1], p_miss[::-1])


def eer(trials: TrialScores) -> float:
    """Error rate where the FAR and FRR staircases cross.

    Without an exact crossing, interpolates linearly between the two
    adjacent sweep points straddling p_fa = p_miss.
    """
    _, p_fa, p_miss = trials._staircase
    # descending threshold order: diff runs monotonically from +1 to -1
    fa = p_fa[::-1]
    miss = p_miss[::-1]
    diff = fa - miss
    idx = int(np.argmax(diff <= 0.0))
    if diff[idx] == 0.0:
        return float(fa[idx])
    d1, d2 = diff[idx - 1], diff[idx]
    t = d1 / (d1 - d2)
    return float(fa[idx - 1] + t * (fa[idx] - fa[idx - 1]))


def dcf(trials: TrialScores, threshold: float, params: DcfParams = DcfParams()) -> float:
    """Cost at a threshold: c_miss*p_miss*p_true + c_fa*p_fa*p_false."""
    p_fa, p_miss = far_frr_at(trials, threshold)
    return params.c_miss * p_miss * params.p_true + params.c_fa * p_fa * params.p_false


def min_dcf(trials: TrialScores, params: DcfParams = DcfParams()) -> tuple[float, float]:
    """Exact minimum of the cost over all thresholds, with its argmin.

    The step function attains its global minimum on the candidate set;
    ties resolve to the smallest threshold.
    """
    thresholds, p_fa, p_miss = trials._staircase
    costs = params.c_miss * p_miss * params.p_true + params.c_fa * p_fa * params.p_false
    idx = int(np.argmin(costs))  # first occurrence = smallest threshold
    return float(costs[idx]), float(thresholds[idx])


_STANDARD_NORMAL = statistics.NormalDist()


def normal_deviate(p: float) -> float:
    """Inverse standard normal CDF (probit), for p strictly inside (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probit requires 0 < p < 1, got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


@dataclass(frozen=True)
class TrialCounts:
    genuine: int
    impostor: int

    @property
    def total(self) -> int:
        return self.genuine + self.impostor


def trial_counts(n_clients: int, n_gallery_subjects: int, trials_per_client: int) -> TrialCounts:
    """Verification trial accounting: every probe claims every enrolled
    identity once, so each client trial yields one genuine and
    (gallery - 1) impostor comparisons."""
    if n_clients < 1 or n_gallery_subjects < 1 or trials_per_client < 1:
        raise ValueError("counts must be >= 1")
    if n_clients > n_gallery_subjects:
        raise ValueError("clients must be enrolled (n_clients <= gallery size)")
    genuine = n_clients * trials_per_client
    impostor = n_clients * (n_gallery_subjects - 1) * trials_per_client
    return TrialCounts(genuine, impostor)


#: probabilities are clamped into [eps, 1-eps] for the probit plot columns only
PROBIT_CLAMP = 1e-6


def _probit_clamped(p: float) -> float:
    return normal_deviate(min(max(p, PROBIT_CLAMP), 1.0 - PROBIT_CLAMP))


def det_to_csv(points: DetCurve) -> str:
    """DET export: threshold, p_fa, p_miss, plus probit axes for plotting."""
    # no field holds a comma, quote or newline, so csv.writer would quote none
    rows = ["threshold,p_fa,p_miss,probit_p_fa,probit_p_miss\n"]
    for pt in points:
        rows.append(
            f"{pt.threshold:.17g},{pt.p_fa:.17g},{pt.p_miss:.17g},"
            f"{_probit_clamped(pt.p_fa):.9g},{_probit_clamped(pt.p_miss):.9g}\n"
        )
    return "".join(rows)


def save_det_csv(points: DetCurve, path: str | Path) -> None:
    write_atomic(path, det_to_csv(points).encode())


_DET_TICKS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4)


def render_det_svg(points: DetCurve, eer_value: float | None = None) -> str:
    """DET staircase on probit axes with the chance diagonal, as an SVG string."""
    lo, hi = 0.0005, 0.6
    zlo, zhi = normal_deviate(lo), normal_deviate(hi)
    size, margin = 480, 60
    span = size - 2 * margin

    def offset(p: float) -> float:
        return (normal_deviate(min(max(p, lo), hi)) - zlo) / (zhi - zlo) * span

    def sx(p: float) -> float:
        return margin + offset(p)

    def sy(p: float) -> float:
        return size - margin - offset(p)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}" font-family="sans-serif" font-size="10">',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="white" stroke="black"/>',
    ]
    for t in _DET_TICKS:
        x, y = sx(t), sy(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{size - margin}" x2="{x:.1f}" y2="{size - margin + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{size - margin + 16}" text-anchor="middle">{t * 100:g}</text>'
        )
        parts.append(
            f'<line x1="{margin - 4}" y1="{y:.1f}" x2="{margin}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{y + 3:.1f}" text-anchor="end">{t * 100:g}</text>'
        )
    parts.append(
        f'<text x="{size / 2}" y="{size - 14}" text-anchor="middle">false alarm probability (%)</text>'
    )
    parts.append(
        f'<text x="14" y="{size / 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {size / 2})">miss probability (%)</text>'
    )
    # chance diagonal p_fa = p_miss
    parts.append(
        f'<line x1="{sx(lo):.1f}" y1="{sy(lo):.1f}" x2="{sx(hi):.1f}" y2="{sy(hi):.1f}" '
        'stroke="gray" stroke-dasharray="4 3"/>'
    )

    polyline = " ".join(f"{sx(pt.p_fa):.2f},{sy(pt.p_miss):.2f}" for pt in points)
    parts.append(f'<polyline points="{polyline}" fill="none" stroke="crimson" stroke-width="1.5"/>')
    if eer_value is not None and lo < eer_value < hi:
        parts.append(
            f'<circle cx="{sx(eer_value):.1f}" cy="{sy(eer_value):.1f}" r="3" fill="black"/>'
        )
        parts.append(
            f'<text x="{sx(eer_value) + 6:.1f}" y="{sy(eer_value) - 6:.1f}">EER {eer_value * 100:.2f}%</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
