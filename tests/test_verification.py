"""Genuine/impostor split, FAR/FRR sweep, DET, EER, DCF, probit."""

import csv
import hashlib
import io
import json
import math
import statistics
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facedct.matching import ScoreTensor, scores_from_csv, scores_to_csv
from facedct.verification import (
    PROBIT_CLAMP,
    DcfParams,
    DegenerateScoresError,
    TrialScores,
    dcf,
    det_curve,
    det_to_csv,
    det_vertices,
    eer,
    far_frr_at,
    min_dcf,
    normal_deviate,
    render_det_svg,
    split_intra_inter,
    trial_counts,
)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc (accurate deep into both tails)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def brute_force_sweep(genuine, impostor):
    """Every attainable (v, p_fa, p_miss), ascending: accept the scores <= v,
    for v = -inf and each distinct pooled score.  No midpoint is formed, so
    the oracle does not share the staircase's threshold rule."""
    values = [-math.inf] + sorted(set(genuine) | set(impostor))
    points = []
    for v in values:
        p_fa = sum(1 for s in impostor if s <= v) / len(impostor)
        p_miss = sum(1 for s in genuine if s > v) / len(genuine)
        points.append((v, p_fa, p_miss))
    return points


def brute_force_min_dcf(genuine, impostor, params):
    """The least cost over the sweep, and the least v that attains it."""
    best_value, best_threshold = math.inf, None
    for t, p_fa, p_miss in brute_force_sweep(genuine, impostor):
        value = params.c_miss * p_miss * params.p_true + params.c_fa * p_fa * params.p_false
        if value < best_value:
            best_value, best_threshold = value, t
    return best_value, best_threshold


def assert_staircase_matches_oracle(trials):
    """The ascending staircase visits the oracle's operating points in
    order, each at a threshold that attains it."""
    points = list(reversed(det_curve(trials)))
    sweep = brute_force_sweep(trials.genuine.tolist(), trials.impostor.tolist())
    assert [(p.p_fa, p.p_miss) for p in points] == [(p_fa, p_miss) for _, p_fa, p_miss in sweep]
    for p in points:
        assert far_frr_at(trials, p.threshold) == (p.p_fa, p.p_miss)


def ulps_above(base, steps):
    """``base`` moved away from zero by each of ``steps`` units in the last
    place (up for a double >= 0): scores that are adjacent doubles or tied."""
    return (np.array([base]).view(np.int64) + np.array(steps, dtype=np.int64)).view(np.float64)


def searchsorted_staircase(genuine, impostor):
    """Reference build of the staircase: its thresholds from the first of
    each run of equal pooled scores, and each rate from a searchsorted of
    every threshold into that population, sorted on its own."""
    pooled = np.concatenate([genuine, impostor])
    pooled.sort()
    distinct = np.empty(pooled.size, dtype=bool)
    distinct[0] = True
    np.not_equal(pooled[1:], pooled[:-1], out=distinct[1:])
    pooled = pooled[distinct]
    thresholds = np.empty(pooled.size + 1)
    thresholds[0], thresholds[-1] = -np.inf, np.inf
    mids = thresholds[1:-1]
    with np.errstate(over="ignore"):
        np.add(pooled[:-1], pooled[1:], out=mids)
    mids /= 2.0
    np.copyto(mids, pooled[:-1], where=(mids >= pooled[1:]) | (mids < pooled[:-1]))
    p_fa = np.searchsorted(np.sort(impostor), thresholds, side="right") / impostor.size
    hits = np.searchsorted(np.sort(genuine), thresholds, side="right")
    p_miss = np.subtract(genuine.size, hits, out=hits) / genuine.size
    return thresholds, p_fa, p_miss


def assert_same_staircase(trials):
    """The staircase is bit for bit the reference build's."""
    reference = searchsorted_staircase(trials.genuine, trials.impostor)
    for got, want in zip(trials._staircase, reference, strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # the sign of a zero too


@st.composite
def staircase_populations(draw):
    """Genuine and impostor scores in runs a few ulps from up to three
    anchors: ties, adjacent doubles, signed zeros, subnormals and magnitudes
    near the largest double, down to a single cell per population."""
    anchor = st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, 1.7e308, -1.7e308]
    ) | st.floats(-1.7e308, 1.7e308)
    anchors = draw(st.lists(anchor, min_size=1, max_size=3))
    steps = st.lists(st.integers(0, 4), min_size=1, max_size=4)
    run = st.builds(ulps_above, st.sampled_from(anchors), steps)
    genuine = draw(st.lists(run, min_size=1, max_size=3))
    impostor = draw(st.lists(run, min_size=1, max_size=10))
    return np.concatenate(genuine), np.concatenate(impostor)


def square_tensor(scores, metric="mse"):
    scores = np.asarray(scores, dtype=float)
    subjects = tuple(f"s{i}" for i in range(scores.shape[0]))
    return ScoreTensor(subjects, subjects, scores, metric)


class TestSplitIntraInter:
    def test_orl_shape_counts(self):
        rng = np.random.default_rng(0)
        trials = split_intra_inter(square_tensor(rng.random((40, 40, 5))))
        assert trials.n_genuine == 200
        assert trials.n_impostor == 7800

    def test_feret_shape_counts(self):
        rng = np.random.default_rng(1)
        gallery = tuple(f"g{i:04d}" for i in range(994))
        tensor = ScoreTensor(gallery[:992], gallery, rng.random((992, 994, 1)), "mad")
        trials = split_intra_inter(tensor)
        assert trials.n_genuine == 992
        assert trials.n_impostor == 985056
        assert trials.n_genuine + trials.n_impostor == 986048

    def test_single_subject_rejected(self):
        with pytest.raises(DegenerateScoresError):
            split_intra_inter(square_tensor(np.ones((1, 1, 3))))

    def test_cells_land_in_right_population(self):
        scores = np.zeros((2, 2, 2))
        scores[0, 0, :] = [1, 2]
        scores[1, 1, :] = [3, 4]
        scores[0, 1, :] = [5, 6]
        scores[1, 0, :] = [7, 8]
        trials = split_intra_inter(square_tensor(scores))
        assert sorted(trials.genuine.tolist()) == [1, 2, 3, 4]
        assert sorted(trials.impostor.tolist()) == [5, 6, 7, 8]


class TestFarFrrAt:
    def test_accept_all(self):
        t = TrialScores([1.0, 2.0], [3.0, 4.0])
        assert far_frr_at(t, math.inf) == (1.0, 0.0)

    def test_reject_all(self):
        t = TrialScores([1.0, 2.0], [3.0, 4.0])
        assert far_frr_at(t, 0.5) == (0.0, 1.0)

    def test_separating_threshold(self):
        t = TrialScores([1.0, 2.0], [3.0, 4.0])
        assert far_frr_at(t, 2.5) == (0.0, 0.0)

    def test_boundary_counts_as_acceptance(self):
        t = TrialScores([2.0], [2.0])
        assert far_frr_at(t, 2.0) == (1.0, 0.0)


class TestDetCurve:
    def test_separated_sets_reach_origin(self):
        points = det_curve(TrialScores([1.0, 2.0], [3.0, 4.0]))
        assert any(p.p_fa == 0.0 and p.p_miss == 0.0 for p in points)

    def test_identical_distributions_sum_to_one(self):
        scores = [1.0, 2.0, 5.0]
        points = det_curve(TrialScores(scores, scores))
        assert all(p.p_fa + p.p_miss == pytest.approx(1.0, abs=0) for p in points)

    def test_hand_case_matches_exhaustive_oracle(self):
        assert_staircase_matches_oracle(TrialScores([1.0, 3.0], [2.0, 4.0]))

    def test_adjacent_doubles_reach_the_separating_point(self):
        # their midpoint rounds onto b, which accepts both scores
        a = float(np.nextafter(1.0, 2.0))
        b = float(np.nextafter(a, 2.0))
        trials = TrialScores([a], [b])
        assert far_frr_at(trials, a) == (0.0, 0.0)
        assert (0.0, 0.0) in [(p.p_fa, p.p_miss) for p in det_curve(trials)]
        assert eer(trials) == 0.0
        assert min_dcf(trials) == (0.0, a)

    @pytest.mark.parametrize("a, b", [(1e308, 1.5e308), (-1.5e308, -1e308)])
    def test_a_midpoint_that_overflows_gives_way_to_the_lower_score(self, a, b):
        # a + b is +-inf: +inf accepts both scores and -inf neither
        trials = TrialScores([a], [b])
        assert_staircase_matches_oracle(trials)
        assert list(det_curve(trials).thresholds) == [math.inf, a, -math.inf]
        assert eer(trials) == 0.0
        assert min_dcf(trials) == (0.0, a)

    @given(
        st.floats(0.0, 1e300),
        st.lists(st.integers(0, 8), min_size=1, max_size=20),
        st.lists(st.integers(0, 8), min_size=1, max_size=20),
    )
    @example(1.0, [1], [2])  # the adjacent pair of the hand case above
    @example(0.0, [0, 2], [1, 3])  # subnormals
    @settings(max_examples=150, deadline=None)
    def test_runs_of_adjacent_doubles_match_the_oracle(self, base, genuine_steps, impostor_steps):
        genuine, impostor = ulps_above(base, genuine_steps), ulps_above(base, impostor_steps)
        trials = TrialScores(genuine, impostor)
        assert_staircase_matches_oracle(trials)
        params = DcfParams(1.0, 2.0, 0.4)
        value, threshold = min_dcf(trials, params)
        b_value, b_threshold = brute_force_min_dcf(genuine.tolist(), impostor.tolist(), params)
        assert value == b_value
        assert b_threshold <= threshold
        assert far_frr_at(trials, threshold) == far_frr_at(trials, b_threshold)

    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=25),
        st.lists(st.integers(0, 30), min_size=1, max_size=25),
    )
    @settings(max_examples=60)
    def test_staircase_is_monotone(self, g, i):
        points = det_curve(TrialScores([float(x) for x in g], [float(x) for x in i]))
        # descending threshold: p_fa falls, p_miss rises
        for a, b in zip(points, points[1:]):
            assert a.threshold > b.threshold
            assert a.p_fa >= b.p_fa
            assert a.p_miss <= b.p_miss
        assert (points[0].p_fa, points[0].p_miss) == (1.0, 0.0)
        assert (points[-1].p_fa, points[-1].p_miss) == (0.0, 1.0)


    def test_build_holds_less_than_five_arrays_of_the_pooled_cells(self):
        rng = np.random.default_rng(8)
        trials = TrialScores(rng.random(300), rng.random(89_700) + 0.2)
        tracemalloc.start()
        try:
            trials._staircase
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * (trials.n_genuine + trials.n_impostor)


class TestStaircaseMatchesTheSearchsortedBuild:
    @given(staircase_populations())
    @example(([1.0], [1.0]))  # one tied cell in each population
    @example(([-0.0], [0.0]))  # signed zeros are one score
    @example(([0.0, -0.0, 5e-324], [-0.0, -5e-324, 0.0]))
    @example(([1e308], [1.5e308, -1.7e308]))  # midpoints that overflow
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_on_ties_adjacent_doubles_and_extremes(self, populations):
        assert_same_staircase(TrialScores(*populations))

    @pytest.mark.parametrize("decimals", [None, 3], ids=["distinct", "tied"])
    def test_bit_identical_at_the_feret_shape(self, decimals):
        rng = np.random.default_rng(18)
        genuine, impostor = rng.normal(2.0, 1.0, 1000), rng.normal(5.0, 1.0, 999_000)
        if decimals is not None:
            genuine, impostor = genuine.round(decimals), impostor.round(decimals)
        assert_same_staircase(TrialScores(genuine, impostor))


class TestEer:
    def test_perfect_separation(self):
        assert eer(TrialScores([1.0, 2.0], [3.0, 4.0])) == 0.0

    def test_identical_distributions(self):
        scores = [1.0, 2.0]
        assert eer(TrialScores(scores, scores)) == 0.5

    def test_single_point_identical(self):
        assert eer(TrialScores([1.0], [1.0])) == 0.5

    def test_gaussian_overlap_smoke(self):
        rng = np.random.default_rng(99)
        t = TrialScores(rng.normal(0, 1, 20000), rng.normal(2, 1, 20000))
        assert eer(t) == pytest.approx(normal_cdf(-1.0), abs=0.02)

    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=30),
        st.lists(st.integers(5, 40), min_size=1, max_size=30),
    )
    @settings(max_examples=60)
    def test_bounds_and_min_dcf_relation(self, g, i):
        trials = TrialScores([float(x) for x in g], [float(x) for x in i])
        value = eer(trials)
        assert 0.0 <= value <= 1.0
        # at equal costs/priors, 2*minDCF = min(p_fa + p_miss) <= 2*EER
        mdcf, _ = min_dcf(trials, DcfParams(1.0, 1.0, 0.5))
        assert mdcf <= value + 1e-12


class TestDcf:
    def test_perfectly_separated_optimum_is_zero(self):
        trials = TrialScores([1.0], [2.0])
        assert dcf(trials, 1.5, DcfParams(1.0, 1.0, 0.5)) == 0.0

    def test_accept_all_cost(self):
        trials = TrialScores([1.0, 2.0], [3.0])
        assert dcf(trials, math.inf, DcfParams(1.0, 1.0, 0.5)) == 0.5

    def test_literal_formula(self):
        trials = TrialScores([1.0, 5.0], [2.0, 6.0])
        p_fa, p_miss = far_frr_at(trials, 3.0)
        params = DcfParams(2.0, 3.0, 0.25)
        expected = 2.0 * p_miss * 0.25 + 3.0 * p_fa * 0.75
        assert dcf(trials, 3.0, params) == expected

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DcfParams(p_true=0.0)
        with pytest.raises(ValueError):
            DcfParams(c_miss=-1.0)

    @pytest.mark.parametrize("costs", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
    def test_costs_must_be_finite(self, costs):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            DcfParams(*costs)


class TestMinDcf:
    def test_perfect_separation(self):
        value, _ = min_dcf(TrialScores([1.0, 2.0], [3.0, 4.0]))
        assert value == 0.0

    def test_identical_single_point(self):
        value, _ = min_dcf(TrialScores([1.0], [1.0]), DcfParams(1.0, 1.0, 0.5))
        assert value == 0.5

    @given(st.integers(0, 2**31))
    @example(seed=103)  # p_miss = 1 - hits/n was one ulp off the oracle here
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        genuine = rng.random(int(rng.integers(1, 50)))
        impostor = rng.random(int(rng.integers(1, 50))) + rng.uniform(0, 0.5)
        params = DcfParams(
            float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3)), float(rng.uniform(0.05, 0.95))
        )
        trials = TrialScores(genuine, impostor)
        value, threshold = min_dcf(trials, params)
        b_value, b_threshold = brute_force_min_dcf(genuine.tolist(), impostor.tolist(), params)
        assert value == b_value
        # the staircase's threshold accepts what the least attaining score does
        assert b_threshold <= threshold
        assert far_frr_at(trials, threshold) == far_frr_at(trials, b_threshold)

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_never_exceeds_pointwise_dcf(self, seed):
        rng = np.random.default_rng(seed)
        trials = TrialScores(rng.random(30), rng.random(30) + 0.2)
        params = DcfParams(1.0, 1.0, 0.3)
        value, _ = min_dcf(trials, params)
        for t in rng.uniform(-0.5, 2.0, 200):
            assert value <= dcf(trials, float(t), params) + 1e-15

    def test_equal_cost_identity_with_half_min_sum(self):
        rng = np.random.default_rng(17)
        trials = TrialScores(rng.random(40), rng.random(40) + 0.1)
        value, _ = min_dcf(trials, DcfParams(1.0, 1.0, 0.5))
        sweep = brute_force_sweep(trials.genuine.tolist(), trials.impostor.tolist())
        assert value == 0.5 * min(p_fa + p_miss for _, p_fa, p_miss in sweep)

    def test_tie_resolves_to_smallest_threshold(self):
        # all thresholds cost 0.5: identical populations at one point
        value, threshold = min_dcf(TrialScores([2.0], [2.0]), DcfParams(1.0, 1.0, 0.5))
        assert value == 0.5
        assert threshold == -math.inf


class TestMonotoneTransformInvariance:
    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_det_eer_min_dcf_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        genuine = rng.random(25)
        impostor = rng.random(25) + 0.1
        trials = TrialScores(genuine, impostor)
        warped = TrialScores(genuine**3 + genuine, impostor**3 + impostor)
        point_set = {(p.p_fa, p.p_miss) for p in det_curve(trials)}
        warped_set = {(p.p_fa, p.p_miss) for p in det_curve(warped)}
        assert point_set == warped_set
        assert eer(trials) == eer(warped)
        params = DcfParams(1.0, 2.0, 0.4)
        assert min_dcf(trials, params)[0] == min_dcf(warped, params)[0]


class TestNormalDeviate:
    def phi_inverse_bisect(self, p):
        lo, hi = -10.0, 10.0
        while hi - lo > 1e-12:
            mid = (lo + hi) / 2
            if normal_cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    def test_median_is_zero(self):
        assert normal_deviate(0.5) == 0.0

    def test_value_at_0975(self):
        expected = self.phi_inverse_bisect(0.975)
        assert normal_deviate(0.975) == pytest.approx(expected, abs=1e-9)
        assert normal_deviate(0.975) == pytest.approx(1.95996398, abs=1e-8)

    def test_inverse_identity_across_range(self):
        for p in np.concatenate(
            [np.array([1e-4, 1 - 1e-4]), np.linspace(1e-3, 1 - 1e-3, 999)]
        ):
            assert abs(normal_cdf(normal_deviate(float(p))) - p) < 1e-8

    def test_antisymmetry(self):
        for p in [0.01, 0.2, 0.4]:
            assert normal_deviate(p) == pytest.approx(-normal_deviate(1 - p), abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_boundary(self, p):
        with pytest.raises(ValueError):
            normal_deviate(p)


class TestTrialCounts:
    def test_orl_accounting(self):
        counts = trial_counts(40, 40, 5)
        assert (counts.genuine, counts.impostor, counts.total) == (200, 7800, 8000)

    def test_feret_accounting(self):
        counts = trial_counts(992, 994, 1)
        assert (counts.genuine, counts.impostor, counts.total) == (992, 985056, 986048)

    def test_validation(self):
        with pytest.raises(ValueError):
            trial_counts(0, 1, 1)
        with pytest.raises(ValueError):
            trial_counts(5, 4, 1)


class TestExports:
    def test_det_csv_shape_and_parsability(self):
        trials = TrialScores([1.0, 2.0], [2.5, 3.0])
        points = det_curve(trials)
        text = det_to_csv(points)
        lines = text.strip().splitlines()
        assert lines[0] == "threshold,p_fa,p_miss,probit_p_fa,probit_p_miss"
        assert len(lines) == len(points) + 1
        for line in lines[1:]:
            threshold, p_fa, p_miss, z_fa, z_miss = map(float, line.split(","))
            assert 0.0 <= p_fa <= 1.0 and 0.0 <= p_miss <= 1.0
            assert math.isfinite(z_fa) and math.isfinite(z_miss)

    def test_svg_renders_staircase(self):
        rng = np.random.default_rng(2)
        trials = TrialScores(rng.random(50), rng.random(50) + 0.3)
        svg = render_det_svg(det_curve(trials), eer(trials))
        assert svg.startswith("<svg")
        assert "<polyline" in svg and svg.rstrip().endswith("</svg>")


def overlapping_trials(seed, n_subjects, n_trials):
    """Genuine scores about 1.5 below the impostors, sigma 0.8 each."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(3.0, 0.8, (n_subjects, n_subjects, n_trials))
    scores[np.arange(n_subjects), np.arange(n_subjects), :] -= 1.5
    return split_intra_inter(square_tensor(np.abs(scores)))


# sha256 of det.csv and det.svg at the ORL and FERET tensor shapes, recorded
# with the rational-approximation probit that preceded the standard library's:
# the export bytes did not move with the probit
@pytest.mark.parametrize(
    "seed, n_subjects, n_trials, csv_sha256, svg_sha256",
    [
        (1, 40, 5, "b9b335f305a1c44258a8e39e03333cbeb8b77be3178fba5f246f9c5fdc15fce1",
         "dad4c38f8328e9c4b1ab043c8ff8409e7a326ab9485622ca73516340210d63e4"),
        (2, 1000, 1, "1bc2ba2c1e2483dffa184bdbe6455010d4db6a7ce776035ac98029d66e12ec04",
         "5df70837873502ebb7c1a859d735593ffbbd72523a6b2f4ceb696a72a242b16c"),
    ],
)
def test_det_exports_keep_their_recorded_bytes(seed, n_subjects, n_trials, csv_sha256, svg_sha256):
    trials = overlapping_trials(seed, n_subjects, n_trials)
    kept = det_curve(trials).vertices()
    assert hashlib.sha256(det_to_csv(kept).encode()).hexdigest() == csv_sha256
    assert hashlib.sha256(render_det_svg(kept, eer(trials)).encode()).hexdigest() == svg_sha256


class TestTrialScoresInvariants:
    def test_empty_population_rejected(self):
        with pytest.raises(DegenerateScoresError):
            TrialScores([], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            TrialScores([math.nan], [1.0])

    def test_negative_scores_allowed(self):
        # raw Gaussian scores are legitimate input for the sweep machinery
        trials = TrialScores([-1.0, 0.5], [0.0, 2.0])
        assert trials.n_genuine == 2


# Reference oracles: the standard library's probit behind the same range
# check, and row-by-row csv.writer code for det.csv, det.svg and scores.csv.
# The exports must reproduce their output exactly.


def scalar_normal_deviate(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"probit requires 0 < p < 1, got {p}")
    return statistics.NormalDist().inv_cdf(p)


def scalar_probit_clamped(p: float) -> float:
    return scalar_normal_deviate(min(max(p, PROBIT_CLAMP), 1.0 - PROBIT_CLAMP))


def rowwise_det_to_csv(points) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["threshold", "p_fa", "p_miss", "probit_p_fa", "probit_p_miss"])
    for pt in points:
        writer.writerow(
            [
                f"{pt.threshold:.17g}",
                f"{pt.p_fa:.17g}",
                f"{pt.p_miss:.17g}",
                f"{scalar_probit_clamped(pt.p_fa):.9g}",
                f"{scalar_probit_clamped(pt.p_miss):.9g}",
            ]
        )
    return buf.getvalue()


def rowwise_svg_polyline(points) -> str:
    lo, hi = 0.0005, 0.6
    zlo, zhi = scalar_normal_deviate(lo), scalar_normal_deviate(hi)
    size, margin = 480, 60
    span = size - 2 * margin

    def sx(p):
        z = scalar_normal_deviate(min(max(p, lo), hi))
        return margin + (z - zlo) / (zhi - zlo) * span

    def sy(p):
        z = scalar_normal_deviate(min(max(p, lo), hi))
        return size - margin - (z - zlo) / (zhi - zlo) * span

    coords = " ".join(f"{sx(pt.p_fa):.2f},{sy(pt.p_miss):.2f}" for pt in points)
    return f'<polyline points="{coords}" fill="none" stroke="crimson" stroke-width="1.5"/>'


def rowwise_scores_to_csv(tensor) -> str:
    buf = io.StringIO()
    buf.write("# format=facedct-scores-v1\n")
    buf.write(f"# metric={tensor.metric}\n")
    buf.write(f"# probe_subjects={json.dumps(list(tensor.probe_subjects))}\n")
    buf.write(f"# gallery_subjects={json.dumps(list(tensor.gallery_subjects))}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "j", "k", "score"])
    scores = tensor.scores
    for i in range(scores.shape[0]):
        for j in range(scores.shape[1]):
            for k in range(scores.shape[2]):
                writer.writerow([i, j, k, f"{scores[i, j, k]:.17g}"])
    return buf.getvalue()


def tie_heavy_tensor(seed, n_subjects=12, n_trials=3):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.random((n_subjects, n_subjects, n_trials)) * 4, 1)
    scores[np.arange(n_subjects), np.arange(n_subjects), :] *= 0.5
    scores[0, 1, 0] = 1e-300
    scores[1, 0, 0] = 0.0
    return square_tensor(scores)


# Scores whose .17g text is easy to get wrong: signed zero, subnormals, the
# largest exponents, 0.1, integers past 2**53 and neighbours of powers of ten.
EDGE_SCORES = [
    0.0, -0.0, 5e-324, 2.5e-320, np.finfo(np.float64).tiny,
    float(np.nextafter(np.finfo(np.float64).tiny, 0.0)), 1e300, 0.1, 7.0, 1e16,
    *(float(np.nextafter(10.0**e, side)) for e in range(-5, 21) for side in (-np.inf, np.inf)),
]
score_cells = st.one_of(
    st.sampled_from(EDGE_SCORES),
    st.integers(0, 10**20).map(float),
    st.builds(
        lambda e, side: float(np.nextafter(10.0**e, side)),
        st.integers(-5, 20), st.sampled_from([-np.inf, np.inf]),
    ),
)
# (P, G, T): every probe subject is enrolled, so P <= G
score_shapes = st.integers(1, 12).flatmap(
    lambda g: st.tuples(st.integers(1, g), st.just(g), st.integers(1, 11))
)


class TestArrayExportsMatchRowwiseReference:
    def test_probit_is_bit_identical_to_scalar_formula(self):
        tiny = np.finfo(np.float64).tiny
        p = np.concatenate(
            [
                [PROBIT_CLAMP, 1.0 - PROBIT_CLAMP],
                [5e-324, 1e-320, tiny, np.nextafter(tiny, 0.0), np.nextafter(tiny, 1.0)],
                [1e-15, 0.5, np.nextafter(1.0, 0.0), 1.0 - 1e-15],
                np.geomspace(1e-300, 0.5, 2000),
                1.0 - np.geomspace(1e-16, 0.5, 2000),
                np.random.default_rng(5).random(5000),
            ]
        )
        expected = [scalar_normal_deviate(x) for x in p.tolist()]
        assert [normal_deviate(x) for x in p.tolist()] == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_det_csv_and_svg_match_on_tie_heavy_trials(self, seed):
        trials = split_intra_inter(tie_heavy_tensor(seed))
        points = det_curve(trials)
        assert det_to_csv(points) == rowwise_det_to_csv(list(points))
        assert rowwise_svg_polyline(list(points)) in render_det_svg(points, eer(trials))

    def test_det_csv_and_svg_match_with_one_genuine_score(self):
        trials = TrialScores([0.25], np.random.default_rng(3).random(300))
        points = det_curve(trials)
        assert det_to_csv(points) == rowwise_det_to_csv(list(points))
        assert rowwise_svg_polyline(list(points)) in render_det_svg(points, eer(trials))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_scores_csv_matches_on_tie_heavy_tensor(self, seed):
        tensor = tie_heavy_tensor(seed)
        assert scores_to_csv(tensor) == rowwise_scores_to_csv(tensor)

    def test_scores_csv_matches_on_single_cell_tensor(self):
        tensor = ScoreTensor(("a",), ("a",), np.full((1, 1, 1), 0.1), "mad")
        assert scores_to_csv(tensor) == rowwise_scores_to_csv(tensor)

    @given(score_shapes, st.integers(0, 2**32 - 1), st.lists(score_cells, max_size=24))
    @example((1, 1, 1), 0, [-0.0])
    @example((12, 12, 11), 0, EDGE_SCORES)  # i, j and k reach two digits
    @example((3, 10, 10), 1, [5e-324, 1e300, 0.1, 1e17, 2.0**53 + 2])
    @settings(max_examples=40, deadline=None)
    def test_scores_csv_matches_the_oracle(self, shape, seed, cells):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(0.0, 100.0, shape)
        flat = scores.reshape(-1)
        n = min(len(cells), flat.size)
        flat[rng.choice(flat.size, n, replace=False)] = cells[:n]
        subjects = tuple(f"s{j}" for j in range(shape[1]))
        tensor = ScoreTensor(subjects[: shape[0]], subjects, scores, "mse")
        assert scores_to_csv(tensor) == rowwise_scores_to_csv(tensor)

    def test_scores_csv_keeps_subject_text_out_of_the_row_template(self):
        # ids that a % or str.format template would read as directives
        subjects = ("%", "%s", "{}", "%.17g", "a,b", 'q"t')
        scores = np.random.default_rng(4).uniform(0.0, 9.0, (6, 6, 2))
        tensor = ScoreTensor(subjects[:4], subjects, scores[:4], "mad")
        text = scores_to_csv(tensor)
        oracle = rowwise_scores_to_csv(tensor)
        assert text.split("\n")[:5] == oracle.split("\n")[:5]
        back = scores_from_csv(text)
        assert back.probe_subjects == tensor.probe_subjects
        assert back.gallery_subjects == tensor.gallery_subjects
        assert back.scores.tobytes() == tensor.scores.tobytes()

    @pytest.mark.parametrize("n_gallery", [0, 2])
    def test_scores_csv_of_a_tensor_without_probes_is_an_error(self, n_gallery):
        gallery = tuple(f"s{j}" for j in range(n_gallery))
        tensor = ScoreTensor((), gallery, np.zeros((0, n_gallery, 1)), "mse")
        with pytest.raises(ValueError):
            scores_to_csv(tensor)


# The exports write DetCurve.vertices(); these check that the thinning drops
# only points that lie inside a straight run of the full staircase.

tie_heavy_scores = st.lists(st.integers(0, 12).map(float), min_size=1, max_size=40)


class TestDetVertices:
    def test_hand_case_keeps_the_corner(self):
        kept = det_curve(TrialScores([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])).vertices()
        assert [(p.threshold, p.p_fa, p.p_miss) for p in kept] == [
            (math.inf, 1.0, 0.0), (3.5, 0.0, 0.0), (-math.inf, 0.0, 1.0)
        ]

    @pytest.mark.parametrize("genuine, impostor", [([1.0], [1.0]), ([0.0], [5.0])])
    def test_short_curve_is_kept_whole(self, genuine, impostor):
        full = det_curve(TrialScores(genuine, impostor))
        kept = full.vertices()
        assert len(full) <= 3
        assert list(kept) == list(full)

    def test_arrays_are_read_only(self):
        kept = det_curve(TrialScores([1.0, 2.0, 3.0], [2.0, 5.0, 6.0])).vertices()
        for arr in (kept.thresholds, kept.p_fa, kept.p_miss):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5

    @given(tie_heavy_scores, tie_heavy_scores)
    @example([4.0], [0.0, 4.0, 4.0, 7.0, 7.0, 9.0])  # one genuine score, tied
    @example([1.0, 1.0, 2.0], [1.0, 2.0, 2.0, 3.0])  # every step a tie
    @settings(max_examples=150, deadline=None)
    def test_thinning_is_lossless(self, genuine, impostor):
        trials = TrialScores(genuine, impostor)
        full = det_curve(trials)
        kept = full.vertices()
        # the bound that lets the exports write the vertices point by point
        assert len(kept) <= 2 * min(np.unique(genuine).size, np.unique(impostor).size) + 2
        idx = np.flatnonzero(np.isin(full.thresholds, kept.thresholds))
        assert np.array_equal(full.thresholds[idx], kept.thresholds)
        assert np.array_equal(full.p_fa[idx], kept.p_fa)
        assert np.array_equal(full.p_miss[idx], kept.p_miss)

        # both endpoints and both ends of every diagonal step are kept
        assert idx[0] == 0 and idx[-1] == len(full) - 1
        diagonal = np.flatnonzero((np.diff(full.p_fa) != 0) & (np.diff(full.p_miss) != 0))
        assert np.isin(diagonal, idx).all() and np.isin(diagonal + 1, idx).all()

        # a dropped point lies on the axis-parallel segment between its kept neighbours
        fa, miss = full.p_fa, full.p_miss
        for i in np.setdiff1d(np.arange(len(full)), idx):
            a, b = idx[np.searchsorted(idx, i) - 1], idx[np.searchsorted(idx, i)]
            on_fa_run = miss[a] == miss[i] == miss[b] and fa[a] >= fa[i] >= fa[b]
            on_miss_run = fa[a] == fa[i] == fa[b] and miss[a] <= miss[i] <= miss[b]
            assert on_fa_run or on_miss_run

        # no two consecutive kept steps move along the same single axis
        fa_moves, miss_moves = np.diff(kept.p_fa) != 0, np.diff(kept.p_miss) != 0
        for only in (fa_moves & ~miss_moves, miss_moves & ~fa_moves):
            assert not (only[:-1] & only[1:]).any()

        # the exports of the vertices match the row-by-row oracles
        text = det_to_csv(kept)
        assert text == rowwise_det_to_csv(list(kept))
        assert rowwise_svg_polyline(list(kept)) in render_det_svg(kept, eer(trials))
        assert set(text.splitlines()) <= set(det_to_csv(full).splitlines())


# eer, min_dcf and det_vertices read only the genuine steps of the staircase;
# these oracles read all of it, as every result did before.

def staircase_eer(trials):
    """The EER over the full staircase: interpolate between the two points
    of the descending curve that straddle p_fa = p_miss."""
    curve = det_curve(trials)
    fa, miss = curve.p_fa, curve.p_miss
    diff = fa - miss
    idx = int(np.argmax(diff <= 0.0))
    if diff[idx] == 0.0:
        return float(fa[idx])
    d1, d2 = diff[idx - 1], diff[idx]
    t = d1 / (d1 - d2)
    return float(fa[idx - 1] + t * (fa[idx] - fa[idx - 1]))


def staircase_min_dcf(trials, params):
    """The first argmin of the cost over the full ascending staircase."""
    thresholds, p_fa, p_miss = trials._staircase
    costs = params.c_miss * p_miss * params.p_true + params.c_fa * p_fa * params.p_false
    idx = int(np.argmin(costs))
    return float(costs[idx]), float(thresholds[idx])


def bits(value):
    return np.float64(value).tobytes()  # tells -0.0 from 0.0


ORACLE_PARAMS = [
    DcfParams(),
    DcfParams(0.0, 1.0, 0.5),
    DcfParams(1.0, 0.0, 0.5),
    DcfParams(0.0, 0.0, 0.5),
    DcfParams(1.0, 1.0, 1e-3),
    DcfParams(10.0, 1.0, 0.01),
    DcfParams(1.0, 10.0, 1.0 - 1e-3),
]

MAX = sys.float_info.max


@st.composite
def tie_heavy_populations(draw):
    """Both populations drawn from a few scores and their neighbouring
    doubles: ties within and across them, adjacent doubles, signed zeros,
    subnormals and +-max double."""
    anchor = st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.0, 0.1, MAX, -MAX]) | st.floats(
        -MAX, MAX, allow_nan=False, allow_infinity=False
    )
    pool = set()
    for a in draw(st.lists(anchor, min_size=1, max_size=3)):
        pool.update(math.nextafter(a, to) for to in (-math.inf, math.inf))
        pool.add(a)
    pool = sorted(v for v in pool if math.isfinite(v))
    scores = st.sampled_from(pool)
    return draw(st.lists(scores, min_size=1, max_size=12)), draw(
        st.lists(scores, min_size=1, max_size=40)
    )


def assert_genuine_steps_match_the_full_staircase(trials):
    assert bits(eer(trials)) == bits(staircase_eer(trials))
    for params in ORACLE_PARAMS:
        got, want = min_dcf(trials, params), staircase_min_dcf(trials, params)
        assert [bits(v) for v in got] == [bits(v) for v in want], params
    kept, want = det_vertices(trials), det_curve(trials).vertices()
    for got_arr, want_arr in zip(
        (kept.thresholds, kept.p_fa, kept.p_miss), (want.thresholds, want.p_fa, want.p_miss)
    ):
        assert got_arr.dtype == want_arr.dtype
        assert got_arr.tobytes() == want_arr.tobytes()
        assert not got_arr.flags.writeable


class TestGenuineStepsMatchTheFullStaircase:
    @given(tie_heavy_populations())
    @example(([1.0], [0.0, 1.0, 1.0, 2.0]))  # a single genuine cell, tied
    @example(([0.0, 1.0, 2.0, 2.0], [1.0]))  # a single impostor cell, tied
    @example(([3.0, 3.0], [3.0, 3.0, 3.0]))  # all cells equal
    @example(([1.0, 2.0], [3.0]))  # separated: the EER is exact at 0
    @example(([1.0, 2.0, 4.0], [3.0, 5.0]))  # genuine runs that meet without an impostor
    @example(([-0.0, 0.0, 5e-324], [0.0, -5e-324]))
    @example(([MAX, -MAX], [MAX, math.nextafter(MAX, 0.0)]))  # midpoints that overflow
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_on_ties_adjacent_doubles_and_extremes(self, populations):
        assert_genuine_steps_match_the_full_staircase(TrialScores(*populations))

    @pytest.mark.parametrize("decimals", [None, 2], ids=["distinct", "tied"])
    def test_bit_identical_at_the_feret_shape(self, decimals):
        rng = np.random.default_rng(25)
        genuine, impostor = rng.normal(2.0, 1.0, 1000), rng.normal(5.0, 1.0, 999_000)
        if decimals is not None:
            genuine, impostor = genuine.round(decimals), impostor.round(decimals)
        assert_genuine_steps_match_the_full_staircase(TrialScores(genuine, impostor))

    def test_results_expand_no_full_staircase(self, monkeypatch):
        rng = np.random.default_rng(3)
        trials = TrialScores(rng.random(200), rng.random(7800) + 0.1)

        def expanded(self):
            raise AssertionError("expanded the full staircase")

        monkeypatch.setattr(TrialScores, "_staircase", property(expanded))
        eer(trials), min_dcf(trials), det_vertices(trials)
        # the one array of the pooled cells' size is the sorted pool
        pooled, *per_genuine_value = trials._steps
        assert pooled.size == trials.n_genuine + trials.n_impostor
        assert all(arr.size <= trials.n_genuine + 1 for arr in per_genuine_value)
