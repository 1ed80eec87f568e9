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

Every :class:`TrialScores` holds one pool of its cells.  A hand-made one
copies its two populations once into one read-only array, genuine first,
and its two fields are the halves of that array.  :func:`split_intra_inter`
takes a tensor's genuine cells, :attr:`ScoreTensor.genuine`, which the
tensor gathered once when it was made, flattened, and its pool is the
tensor's scores; the impostor cells, the second array of
:meth:`ScoreTensor.partition`, are copied out only when
:attr:`TrialScores.impostor` is read, and no command reads it.  The counts,
the sort of the head, the full staircase and :func:`far_frr_at` each read
the pool one way, whichever made it: :func:`far_frr_at` counts the accepted
impostors as the accepted cells less the accepted genuine cells.  The
rank-1 count is ``matching.identification_rate`` of the tensor.

A point of the staircase is a count c of the sorted pooled cells, accepted,
and the count h of genuine cells among them: p_fa = (c - h) / #impostor,
p_miss = (#genuine - h) / #genuine, and its threshold lies between the c-th
and the (c+1)-th sorted cell.  A point exists where a run of equal scores
ends.  Only a genuine score moves p_miss, so each result reads
O(#distinct genuine) points, and none past the end of the largest genuine
score's run but the count of all cells, whose threshold is +inf, and the
run of the least impostor score above it.  So each :class:`TrialScores`
sorts only the head of the pool, once, when a result first asks: every cell
at or below the largest genuine score and every copy of the least impostor
score above it, a prefix of the sorted pool (on a FERET-sized set about 2%
of the impostor cells).  It finds the range of each distinct genuine score's
cells in that sort, and the count of all cells is #genuine + #impostor.  The
results have the float expressions of the full staircase and its bits:

- :func:`min_dcf`: between two genuine steps p_miss holds while p_fa rises,
  and the cost never falls, so the least threshold of the least cost is where
  no cell or a genuine score's run ends;
- :func:`eer`: the crossing lies after the last such point with p_fa <=
  p_miss, in its stretch of impostor steps; a bisection over the stretch's
  cell counts finds the last point at or below the crossing, and the next
  point is where that point's run of equal scores ends;
- :func:`det_vertices`: a turning point begins or ends a genuine score's run,
  or is an end of the curve.  The curve through those points alone lacks
  only points inside runs of steps that move p_fa alone, so
  :meth:`DetCurve.vertices` keeps the same points of it as of the full one.

:func:`det_curve` returns the full staircase, one point per candidate
threshold, as a :class:`DetCurve`, a sequence of :class:`DetPoint` over three
read-only arrays.  It sorts every pooled cell when it is called; no command
calls it, and the tests use it as the oracle of the other results.  The
``det.csv`` and ``det.svg`` files hold only its vertices, the points
:meth:`DetCurve.vertices` keeps: a run of purely horizontal or purely
vertical steps is one straight segment, so its interior points are
dropped.  Each kept row has the bytes the full export gives it.
The thresholds of the dropped points are not exported; ``scores.csv`` and
:func:`far_frr_at` still give the error rates at any threshold.  A summary
of ``pipeline.summarize_tensor`` carries the vertices of its split, so
``evaluate`` writes both files from the sort that gave its EER and min-DCF.

Each kept interior point ends or begins a step that moves p_miss, and one
that moves p_fa, so there are at most 2 * min(#distinct genuine, #distinct
impostor) + 2 vertices: about 2,000 for a thousand genuine trials.  The
exports write them point by point, through the one probit,
:func:`normal_deviate`, the standard library's
:meth:`statistics.NormalDist.inv_cdf` (Wichura's AS241 algorithm).
"""

from __future__ import annotations

import bisect
import math
import statistics
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, write_atomic
from .imageio import ArrayRecord
from .matching import ScoreTensor


class DegenerateScoresError(DataError):
    """Trial set lacks one of the two score populations."""


@dataclass(eq=False)
class TrialScores(ArrayRecord):
    """Genuine (intra) and impostor (inter) distance populations over one
    pool of their cells.

    A hand-made one copies its two populations once into one read-only
    pool, genuine first, and its two fields are the halves of that pool.
    :func:`split_intra_inter` makes one whose pool is its tensor's scores:
    it holds the genuine cells, and copies the impostor cells out of the
    tensor only when :attr:`impostor` is first read.
    """

    genuine: np.ndarray = field(repr=False)
    impostor: np.ndarray = field(repr=False)

    # not fields: every cell, genuine and impostor, in any order and shape,
    # and the tensor of a split
    _cells = None
    _tensor = None

    def __post_init__(self) -> None:
        arrays = []
        for name in ("genuine", "impostor"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            if arr.size == 0:
                raise DegenerateScoresError(f"no {name} trials")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} scores must be finite")
            arrays.append(arr)
        self._freeze("_cells", np.concatenate(arrays))
        self.genuine, self.impostor = np.split(self._cells, [arrays[0].size])

    def __getattr__(self, name: str):
        # only reached while a split's impostor cells are still in its tensor
        if name != "impostor" or self._tensor is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._freeze("impostor", self._tensor.partition()[1].reshape(-1))
        return self.impostor

    @property
    def n_genuine(self) -> int:
        return int(self.genuine.size)

    @property
    def n_impostor(self) -> int:
        return self.n_cells - self.n_genuine

    @property
    def n_cells(self) -> int:
        return int(self._cells.size)

    @cached_property
    def _steps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(pooled, lo, ends, hits): the head of the pooled cells sorted
        once, and where each distinct genuine score's cells lie in it.

        The head is every cell at or below the largest genuine score and
        every copy of the least impostor score above it (:func:`_head`): the
        first cells of the sorted pool, all of them a result reads.
        ``pooled[lo[i]:ends[i + 1]]`` holds the cells equal to the i-th
        distinct genuine score, ascending, and ``hits[i + 1]`` counts the
        genuine cells at most that score; ``ends[0]`` and ``hits[0]`` are 0.
        The head is the one array of more than one entry per distinct
        genuine score.
        """
        pooled = _head(self._cells, self.genuine.max())
        pooled.sort()
        steps = (pooled, *_runs(pooled, self.genuine))
        for arr in steps:
            arr.flags.writeable = False
        return steps

    def _rates(self, cells: np.ndarray, hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(p_fa, p_miss) where ``cells`` pooled cells are accepted, of
        which ``hits`` are genuine; (n - hits) / n rounds once, as
        :func:`far_frr_at` does, where 1 - hits/n would round twice."""
        return (cells - hits) / self.n_impostor, (self.n_genuine - hits) / self.n_genuine

    def _thresholds(self, cells: np.ndarray) -> np.ndarray:
        """The candidate threshold that accepts the first ``cells`` of the
        sorted pool, for counts that each end a run of equal scores and read
        no cell past the head."""
        pooled = self._steps[0]
        thresholds = np.where(cells == 0, -np.inf, np.inf)
        inner = (cells > 0) & (cells < self.n_cells)
        thresholds[inner] = _midpoints(pooled[cells[inner] - 1], pooled[cells[inner]])
        return thresholds

    @cached_property
    def _staircase(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(thresholds asc, p_fa, p_miss): the full staircase, one point per
        candidate threshold, for :func:`det_curve`; no other result reads
        it.  It sorts every pooled cell, not only the head of :attr:`_steps`.

        A run of equal scores ends at index j - 1 of the sorted pool, so j
        cells score at most its value, and each genuine score's run adds
        its genuine cells to the points from its end on.  The threshold
        after a value lies in [that value, the next one), so it accepts
        those cells and no others, and the rates divide the same counts as
        :func:`far_frr_at`.

        Its peak is about four arrays of the pooled cells.
        """
        pooled = np.sort(self._cells, axis=None)
        _, ends, hits = _runs(pooled, self.genuine)
        # edge[j]: a run of equal scores ends before index j and one starts at it
        edge = np.empty(pooled.size + 1, dtype=bool)
        edge[0] = edge[-1] = True
        np.not_equal(pooled[1:], pooled[:-1], out=edge[1:-1])
        values = pooled[edge[:-1]]
        del pooled
        # cells[k + 1] is the count of cells <= values[k]; cells[0] is 0
        cells = np.flatnonzero(edge)
        del edge
        thresholds = np.empty(cells.size)
        thresholds[0], thresholds[-1] = -np.inf, np.inf
        _midpoints(values[:-1], values[1:], out=thresholds[1:-1])
        del values
        # the points from the end of one genuine score's run to the next's
        # share its genuine count and p_miss
        spans = np.diff(np.append(np.searchsorted(cells, ends), cells.size))
        point_hits = np.repeat(hits, spans)
        np.subtract(cells, point_hits, out=cells)
        del point_hits
        p_fa = cells / self.n_impostor
        del cells
        p_miss = np.repeat(self._rates(ends, hits)[1], spans)
        for arr in (thresholds, p_fa, p_miss):
            arr.flags.writeable = False
        return thresholds, p_fa, p_miss


def _head(cells: np.ndarray, top: float) -> np.ndarray:
    """A copy of the ``cells`` at or below ``top`` and of every one equal to
    the least cell above it, in any order: the first cells of the sorted
    pool up to the end of that cell's run, when ``top`` is the largest
    genuine score."""
    above = np.min(cells, where=cells > top, initial=np.inf)
    return cells[cells <= above]


def _runs(pooled: np.ndarray, genuine: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, ends, hits) of :attr:`TrialScores._steps`, in ``pooled``, sorted
    cells that hold every cell at or below the largest genuine score."""
    values, counts = np.unique(genuine, return_counts=True)
    lo = np.searchsorted(pooled, values, side="left")
    ends = np.concatenate([[0], np.searchsorted(pooled, values, side="right")])
    hits = np.concatenate([[0], np.cumsum(counts)])
    return lo, ends, hits


def _midpoints(lower: np.ndarray, upper: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The threshold between each two adjacent distinct scores: their
    midpoint, or the lower score where the midpoint falls outside
    [lower, upper)."""
    with np.errstate(over="ignore"):
        out = np.add(lower, upper, out=out)
    out /= 2.0
    # the midpoint of two adjacent doubles can round onto the upper one, a
    # threshold that accepts both, and a sum past the largest double is
    # +-inf; in both cases the lower score accepts only itself
    np.copyto(out, lower, where=(out >= upper) | (out < lower))
    return out


@dataclass(frozen=True)
class DetPoint:
    threshold: float
    p_fa: float
    p_miss: float


@dataclass(eq=False)
class DetCurve(ArrayRecord, Sequence[DetPoint]):
    """DET staircase ordered by threshold descending, held as three
    read-only arrays; indexing and iteration build :class:`DetPoint` values
    on demand, and slicing returns a :class:`DetCurve`."""

    thresholds: np.ndarray
    p_fa: np.ndarray
    p_miss: np.ndarray

    def __post_init__(self) -> None:
        for name in ("thresholds", "p_fa", "p_miss"):
            self._freeze(name, getattr(self, name))

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
        arrays.

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
        return DetCurve(self.thresholds[keep], self.p_fa[keep], self.p_miss[keep])


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

    def cost(self, p_fa, p_miss):
        """c_miss*p_miss*p_true + c_fa*p_fa*p_false, of floats or arrays."""
        return self.c_miss * p_miss * self.p_true + self.c_fa * p_fa * self.p_false


def split_intra_inter(tensor: ScoreTensor) -> TrialScores:
    """The genuine and impostor trials of a tensor: the one maker of a
    :class:`TrialScores` over a tensor's cells.

    The trials hold the tensor's :attr:`~ScoreTensor.genuine` cells,
    flattened, with no copy, and their pool is the tensor's scores.  The
    impostor cells, those of :meth:`ScoreTensor.partition`, stay in the
    tensor until :attr:`TrialScores.impostor` is read, and the results of
    the staircase read only the head of the pool.
    """
    if len(tensor.gallery_subjects) == 1:
        raise DegenerateScoresError("tensor has no impostor trials (single subject)")
    trials = TrialScores.__new__(TrialScores)
    trials._freeze("genuine", tensor.genuine.reshape(-1))
    trials._cells, trials._tensor = tensor.scores, tensor
    return trials


def far_frr_at(trials: TrialScores, threshold: float) -> tuple[float, float]:
    """(p_fa, p_miss) at one threshold; accept iff score <= threshold.

    A NaN threshold accepts no impostor and rejects no genuine trial, a
    point on no DET curve, so it is a ValueError; +-inf are valid.
    """
    if math.isnan(threshold):
        raise ValueError(f"threshold {threshold} must be a number, not NaN")
    hits = np.count_nonzero(trials.genuine <= threshold)
    return trials._rates(np.count_nonzero(trials._cells <= threshold), hits)


def det_curve(trials: TrialScores) -> DetCurve:
    """Full DET staircase, ordered by threshold descending: (1,0) -> (0,1)."""
    thresholds, p_fa, p_miss = trials._staircase
    return DetCurve(thresholds[::-1], p_fa[::-1], p_miss[::-1])


def det_vertices(trials: TrialScores) -> DetCurve:
    """:meth:`DetCurve.vertices` of :func:`det_curve`, bit for bit, found
    from the genuine scores' runs in the sorted pool.

    A vertex ends or begins a step that moves p_miss, so it is an end of the
    curve or an end of a genuine score's run.  The curve through those
    points alone leaves out only points inside a run of steps that move p_fa
    alone, which :meth:`DetCurve.vertices` drops, and it keeps the rest.
    """
    _, lo, ends, hits = trials._steps
    # no cell and each run's end (ends, hits), each run's start with the
    # genuine count before the run, and every cell; a count listed twice
    # is one point
    cells, first = np.unique(np.concatenate([ends, lo, [trials.n_cells]]), return_index=True)
    point_hits = np.concatenate([hits, hits[:-1], [trials.n_genuine]])[first]
    # in descending threshold order, from the point that accepts every cell
    cells, point_hits = cells[::-1], point_hits[::-1]
    return DetCurve(trials._thresholds(cells), *trials._rates(cells, point_hits)).vertices()


def eer(trials: TrialScores) -> float:
    """Error rate where the FAR and FRR staircases cross.

    Without an exact crossing, interpolates linearly between the two
    adjacent sweep points straddling p_fa = p_miss.
    """
    pooled, lo, ends, hits = trials._steps
    fa, miss = trials._rates(ends, hits)
    # p_fa - p_miss rises along the ascending staircase; p_miss holds from
    # each genuine step to the next, so the last point at or below the
    # crossing lies in the stretch of the last step still at or below it
    s = int(np.count_nonzero(fa - miss <= 0.0)) - 1
    first, h, m = int(ends[s]), int(hits[s]), float(miss[s])
    # past the last genuine run no impostor is at or below the crossing, so
    # the stretch's first count is the last one read and the head holds it
    last = int(lo[s]) if s < lo.size else trials.n_cells
    stretch = range(first, last + 1)
    # int / int is the correctly rounded quotient, as numpy's division of
    # the same counts as doubles is, so this p_fa is _rates' bit for bit
    below = bisect.bisect_right(stretch, m, key=lambda c: (c - h) / trials.n_impostor)
    # the last cell count at or below it, snapped back to its run's start
    at = int(np.searchsorted(pooled, pooled[stretch[below - 1]], side="left"))
    after = int(np.searchsorted(pooled, pooled[at], side="right"))
    cells = np.array([after, at])
    fa, miss = trials._rates(cells, np.array([hits[s + 1] if after > last else h, h]))
    # the interpolation of the descending staircase, whose points idx - 1
    # and idx are [after, at]
    diff = fa - miss
    if diff[1] == 0.0:
        return float(fa[1])
    d1, d2 = diff[0], diff[1]
    t = d1 / (d1 - d2)
    return float(fa[0] + t * (fa[1] - fa[0]))


def dcf(trials: TrialScores, threshold: float, params: DcfParams = DcfParams()) -> float:
    """Cost at a threshold: :meth:`DcfParams.cost` of :func:`far_frr_at`."""
    return params.cost(*far_frr_at(trials, threshold))


def min_dcf(trials: TrialScores, params: DcfParams = DcfParams()) -> tuple[float, float]:
    """Exact minimum of the cost over all thresholds, with its argmin.

    The step function attains its global minimum on the candidate set;
    ties resolve to the smallest threshold.  Between two genuine steps the
    cost cannot fall, so the smallest threshold of the minimum is at no
    cell or at the end of a genuine score's run.
    """
    _, _, ends, hits = trials._steps
    costs = params.cost(*trials._rates(ends, hits))
    idx = int(np.argmin(costs))  # first occurrence = smallest threshold
    return float(costs[idx]), float(trials._thresholds(ends[idx : idx + 1])[0])


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
