"""Verification analytics: genuine/impostor score split, FAR/FRR threshold
sweep, DET staircase, EER, and the detection cost function.

Convention: scores are distances and a trial is ACCEPTED iff score <=
threshold, so FAR falls and FRR rises as the threshold decreases.  The
score = threshold boundary counts as acceptance.  All threshold sweeps use
the exact candidate set (midpoints of the pooled sorted distinct scores
plus -inf/+inf sentinels), on which the error staircase attains every value
it takes anywhere on the real line.

The genuine and impostor populations are the two arrays of
:meth:`ScoreTensor.partition`, flattened.  The staircase is built once per
:class:`TrialScores`, when :func:`det_curve`, :func:`eer` or :func:`min_dcf`
first asks, and sorts both populations inside that build only.  DET data is
array-backed: :func:`det_curve` returns a :class:`DetCurve`, a sequence of
:class:`DetPoint` over three read-only arrays, and the CSV and SVG exports
read those arrays without building points.

There is one probit implementation, :func:`_probit`, on arrays;
:func:`normal_deviate` is its scalar form.  Its results must stay bit-identical
to the scalar formula the tests keep as a reference, because ``det.csv`` and
``det.svg`` print them: numpy does the correctly rounded ``+ - * /`` and
``sqrt`` in the formula's order, and ``log``, ``exp`` and ``erfc`` come from
:mod:`math`, since numpy's versions need not match libm bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
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
        """(thresholds asc, p_fa, p_miss) over the exact candidate set."""
        pooled = np.unique(np.concatenate([self.genuine, self.impostor]))
        mids = (pooled[:-1] + pooled[1:]) / 2.0
        thresholds = np.concatenate(([-np.inf], mids, [np.inf]))
        p_fa = np.searchsorted(np.sort(self.impostor), thresholds, side="right") / self.n_impostor
        # (n - hits) / n rounds once, as far_frr_at does; 1 - hits/n rounds twice
        hits = np.searchsorted(np.sort(self.genuine), thresholds, side="right")
        p_miss = (self.n_genuine - hits) / self.n_genuine
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


@dataclass(frozen=True)
class DcfParams:
    """Eq-style cost model: cost of a miss, cost of a false alarm, target prior."""

    c_miss: float = 1.0
    c_fa: float = 1.0
    p_true: float = 0.5

    def __post_init__(self) -> None:
        if self.c_miss < 0 or self.c_fa < 0:
            raise ValueError("costs must be >= 0")
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


# Inverse normal CDF: rational approximation (central/tail split) good to
# well under 1e-8 absolute, then a single Newton correction against the
# erfc-based CDF.
_PROBIT_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_PROBIT_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_PROBIT_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_PROBIT_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_PROBIT_SPLIT = 0.02425


def _libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)


def _horner(coeffs: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """((c0*t + c1)*t + c2)... in that order of operations."""
    acc = coeffs[0] * t
    for c in coeffs[1:-1]:
        acc = (acc + c) * t
    return acc + coeffs[-1]


def _probit(p: np.ndarray) -> np.ndarray:
    """Probit of each element of a 1-D float64 array inside (0, 1).

    Rational approximation in three regions, then one Newton step; every
    element goes through the same IEEE operations, in the same order, as the
    scalar formula, so results do not depend on the array they came in.
    """
    x = np.empty_like(p)
    low = p < _PROBIT_SPLIT
    high = p > 1.0 - _PROBIT_SPLIT
    mid = ~(low | high)
    den_c = _PROBIT_D + (1.0,)
    q = np.sqrt(-2.0 * _libm(math.log, p[low]))
    x[low] = _horner(_PROBIT_C, q) / _horner(den_c, q)
    q = p[mid] - 0.5
    r = q * q
    x[mid] = _horner(_PROBIT_A, r) * q / _horner(_PROBIT_B + (1.0,), r)
    q = np.sqrt(-2.0 * _libm(math.log, 1.0 - p[high]))
    x[high] = -_horner(_PROBIT_C, q) / _horner(den_c, q)
    pdf = _libm(math.exp, -0.5 * x * x) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * _libm(math.erfc, -x / math.sqrt(2.0))
    return x - (cdf - p) / pdf


def normal_deviate(p: float) -> float:
    """Inverse standard normal CDF (probit), for p strictly inside (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probit requires 0 < p < 1, got {p}")
    return float(_probit(np.array([p], dtype=np.float64))[0])


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


def _formatted(values: np.ndarray, spec: str) -> list[str]:
    return list(map(spec.format, values.tolist()))


def _formatted_distinct(
    values: np.ndarray, spec: str, fn: Callable[[np.ndarray], np.ndarray]
) -> list[str]:
    """``spec``-formatted ``fn(values)``, computing and formatting each distinct
    value once; ``fn`` must act element by element."""
    distinct, inverse = np.unique(values, return_inverse=True)
    strings = np.array(_formatted(fn(distinct), spec), dtype=object)
    return strings[inverse].tolist()


def _probit_clamped(p: np.ndarray) -> np.ndarray:
    return _probit(np.clip(p, PROBIT_CLAMP, 1.0 - PROBIT_CLAMP))


#: DET points formatted per block, which bounds the strings alive at once
_POINTS_PER_BLOCK = 1 << 16


def _blocks(points: DetCurve) -> Iterator[DetCurve]:
    for start in range(0, len(points), _POINTS_PER_BLOCK):
        yield points[start : start + _POINTS_PER_BLOCK]


def det_to_csv(points: DetCurve) -> str:
    """DET export: threshold, p_fa, p_miss, plus probit axes for plotting."""
    blocks = ["threshold,p_fa,p_miss,probit_p_fa,probit_p_miss\n"]
    for part in _blocks(points):
        # p_miss takes at most n_genuine + 1 distinct values
        columns = (
            _formatted(part.thresholds, "{:.17g}"),
            _formatted(part.p_fa, "{:.17g}"),
            _formatted_distinct(part.p_miss, "{:.17g}", lambda p: p),
            _formatted(_probit_clamped(part.p_fa), "{:.9g}"),
            _formatted_distinct(part.p_miss, "{:.9g}", _probit_clamped),
        )
        # no field holds a comma, quote or newline, so csv.writer would quote none
        blocks.append("\n".join(map(",".join, zip(*columns))) + "\n")
    return "".join(blocks)


def save_det_csv(points: DetCurve, path: str | Path) -> None:
    write_atomic(path, det_to_csv(points).encode())


_DET_TICKS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4)


def render_det_svg(points: DetCurve, eer_value: float | None = None) -> str:
    """DET staircase on probit axes with the chance diagonal, as an SVG string."""
    lo, hi = 0.0005, 0.6
    zlo, zhi = normal_deviate(lo), normal_deviate(hi)
    size, margin = 480, 60
    span = size - 2 * margin

    def offset(p: np.ndarray) -> np.ndarray:
        z = _probit(np.clip(p, lo, hi))
        return (z - zlo) / (zhi - zlo) * span

    def xs(p: np.ndarray) -> np.ndarray:
        return margin + offset(p)

    def ys(p: np.ndarray) -> np.ndarray:
        return size - margin - offset(p)

    def sx(p: float) -> float:
        return float(xs(np.array([p]))[0])

    def sy(p: float) -> float:
        return float(ys(np.array([p]))[0])

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

    def coords(part: DetCurve) -> str:
        # clamping first leaves fewer distinct values to map and format
        x_strings = _formatted_distinct(np.clip(part.p_fa, lo, hi), "{:.2f}", xs)
        y_strings = _formatted_distinct(np.clip(part.p_miss, lo, hi), "{:.2f}", ys)
        return " ".join(map("{},{}".format, x_strings, y_strings))

    polyline = " ".join(map(coords, _blocks(points)))
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
