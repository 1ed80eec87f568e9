"""Score-level fusion and the per-channel experiment driver."""

import tracemalloc

import numpy as np
import pytest

from facedct.errors import ValidationError
from facedct.features import FeatureVector
from facedct.gallery import Gallery, SplitSpec, apply_split
from facedct.imageio import CHANNELS
from facedct.matching import (
    ScoreTensor,
    build_score_tensor,
    identification_rate,
    subject_distances,
)
from facedct.fusion import (
    FusionSpec,
    apply_fusion,
    fuse_scores_sum,
    fuse_scores_weighted,
    parse_fusion_spec,
    run_channel_pipeline,
)
from facedct.pipeline import extract_subject_features, featurize_image, summarize_tensor
from facedct.synth import SynthSpec, generate_dataset

from manifest_reference import load_manifest

SPLIT = SplitSpec.from_iterables([1, 2, 3], [4, 5, 6])


def tensor_from(scores, metric="mad"):
    scores = np.asarray(scores, dtype=float)
    subjects = tuple(f"s{i}" for i in range(scores.shape[0]))
    return ScoreTensor(subjects, subjects, scores, metric)


def random_tensor(seed, n=4, k=2):
    return tensor_from(np.random.default_rng(seed).random((n, n, k)))


@pytest.fixture(scope="module")
def color_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("color")
    manifest = generate_dataset(
        SynthSpec(6, 6, 0.4, seed=77, width=32, height=32, placement="rgb"), root
    )
    return load_manifest(manifest)


class TestFuseScoresSum:
    def test_two_identical_tensors_double_cells(self):
        t = random_tensor(0)
        fused = fuse_scores_sum([t, t])
        assert np.array_equal(fused.scores, 2.0 * t.scores)
        assert identification_rate(fused) == identification_rate(t)

    def test_singleton_is_identity(self):
        t = random_tensor(1)
        fused = fuse_scores_sum([t])
        assert np.array_equal(fused.scores, t.scores)

    def test_hand_cellwise_sums(self):
        a = tensor_from([[[1.0], [2.0]], [[3.0], [4.0]]])
        b = tensor_from([[[10.0], [20.0]], [[30.0], [40.0]]])
        fused = fuse_scores_sum([a, b])
        assert fused.scores.reshape(-1).tolist() == [11.0, 22.0, 33.0, 44.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fuse_scores_sum([random_tensor(0, n=3), random_tensor(0, n=4)])

    def test_metric_mismatch_rejected(self):
        a = tensor_from(np.ones((2, 2, 1)), "mse")
        b = tensor_from(np.ones((2, 2, 1)), "mad")
        with pytest.raises(ValueError):
            fuse_scores_sum([a, b])


class TestFuseScoresWeighted:
    def test_projection_weights_reproduce_first_tensor(self):
        r, g, b = random_tensor(2), random_tensor(3), random_tensor(4)
        fused = fuse_scores_weighted([r, g, b], [1.0, 0.0, 0.0])
        assert np.array_equal(fused.scores, r.scores)

    def test_unit_weights_equal_plain_sum(self):
        tensors = [random_tensor(s) for s in (5, 6, 7)]
        assert np.array_equal(
            fuse_scores_weighted(tensors, [1.0, 1.0, 1.0]).scores,
            fuse_scores_sum(tensors).scores,
        )

    def test_luminance_weights_hand_check(self):
        a = tensor_from([[[1.0], [0.0]], [[0.0], [1.0]]])
        b = tensor_from([[[0.0], [1.0]], [[1.0], [0.0]]])
        c = tensor_from([[[1.0], [1.0]], [[1.0], [1.0]]])
        fused = fuse_scores_weighted([a, b, c], [0.3, 0.59, 0.11])
        expected = 0.3 * a.scores + 0.59 * b.scores + 0.11 * c.scores
        assert np.array_equal(fused.scores, expected)

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            fuse_scores_weighted([random_tensor(0)], [1.0, 2.0])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            fuse_scores_weighted([random_tensor(0)], [0.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            fuse_scores_weighted([random_tensor(0)], [-1.0])

    def test_positive_rescaling_leaves_metrics_unchanged(self):
        tensors = [random_tensor(s) for s in (8, 9, 10)]
        base = fuse_scores_weighted(tensors, [0.3, 0.59, 0.11])
        scaled = fuse_scores_weighted(tensors, [3.0, 5.9, 1.1])
        s1, s2 = summarize_tensor(base), summarize_tensor(scaled)
        assert s1.identification == s2.identification
        assert s1.eer == s2.eer
        assert s1.min_dcf == s2.min_dcf


def feret_shaped_tensor(seed):
    """1000 x 1000 x 1 distances, the genuine ones lower, as on a FERET-sized
    set: a few per cent of the impostor cells lie at or below the largest
    genuine score."""
    rng = np.random.default_rng(seed)
    scores = np.abs(rng.normal(5.0, 1.0, (1000, 1000, 1)))
    scores[np.arange(1000), np.arange(1000), 0] = np.abs(rng.normal(2.0, 0.5, 1000))
    return tensor_from(scores, "mse")


def traced_peak(call):
    """The most bytes traced at once during ``call()``, beyond those held
    when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestNoTensorSizedTemporaries:
    def test_a_summary_allocates_less_than_one_tensor(self):
        tensor = feret_shaped_tensor(35)
        assert traced_peak(lambda: summarize_tensor(tensor)) < tensor.scores.nbytes

    def test_fusing_two_tensors_allocates_less_than_one_beyond_the_output(self):
        tensors = [feret_shaped_tensor(36), feret_shaped_tensor(37)]
        peak = traced_peak(lambda: fuse_scores_weighted(tensors, [0.5, 2.0]))
        assert peak < 2 * tensors[0].scores.nbytes

    @pytest.mark.parametrize("shape", [(50, 700, 3), (2, 300, 300), (3, 3, 1)],
                             ids=["blocks-of-rows", "a-row-past-a-block", "one-block"])
    def test_fusion_in_blocks_is_the_whole_sum_bit_for_bit(self, shape):
        rng = np.random.default_rng(38)
        scores = [rng.random(shape) * 10.0 ** rng.integers(-320, 300, shape) for _ in range(3)]
        scores[0].flat[::7] = -0.0  # +0.0 + -0.0 is +0.0
        weights = [0.3, 0.59, 0.11]
        subjects = tuple(f"s{j}" for j in range(shape[1]))
        tensors = [ScoreTensor(subjects[: shape[0]], subjects, x, "mad") for x in scores]
        fused = fuse_scores_weighted(tensors, weights)
        whole = np.zeros(shape)
        for weight, x in zip(weights, scores):
            whole = whole + weight * x
        assert fused.scores.tobytes() == whole.tobytes()


class TestSummarizeTensor:
    @pytest.mark.parametrize("shape", [(5, 5, 1), (3, 6, 4)])
    def test_one_partition_serves_the_whole_summary(self, monkeypatch, shape):
        n_probes, n_gallery, n_trials = shape
        gallery = tuple(f"s{j}" for j in range(n_gallery))
        # probes out of gallery order; one decimal makes genuine/impostor ties
        scores = np.round(np.random.default_rng(3).random(shape), 1)
        tensor = ScoreTensor(gallery[::-1][:n_probes], gallery, scores, "mad")
        expected = identification_rate(tensor)
        calls = []
        split = ScoreTensor.genuine_and_best
        monkeypatch.setattr(ScoreTensor, "genuine_and_best", lambda t: calls.append(t) or split(t))
        # the summary copies no impostor cell out of the tensor
        monkeypatch.setattr(ScoreTensor, "partition", None)
        summary = summarize_tensor(tensor)
        assert calls == [tensor]
        assert summary.identification == expected


class TestParseFusionSpec:
    def test_sum_form(self):
        spec = parse_fusion_spec("sum:R,G,B")
        assert spec == FusionSpec("sum", ("r", "g", "b"))
        assert spec.label() == "R+G+B"

    def test_weighted_form(self):
        spec = parse_fusion_spec("w:0.3R+0.59G+0.11B")
        assert spec.kind == "weighted"
        assert spec.channels == ("r", "g", "b")
        assert spec.weights == (0.3, 0.59, 0.11)

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_both_forms_take_every_channel(self, channel):
        assert parse_fusion_spec(f"sum:{channel.upper()}").channels == (channel,)
        spec = parse_fusion_spec(f"w:2.5e-1{channel.upper()}")
        assert (spec.channels, spec.weights) == ((channel,), (0.25,))

    @pytest.mark.parametrize(
        "bad", ["", "avg:R,G", "sum:", "w:R+G", "w:0.5Q+0.5R", "w:0R+0G", "sum:q", "sum:R,gr"]
    )
    def test_malformed_specs(self, bad):
        with pytest.raises(ValidationError):
            parse_fusion_spec(bad)

    @pytest.mark.parametrize("spec", ["sum:r,g,R", "w:0.3R+0.59G+0.11r"])
    def test_repeated_channel_rejected_naming_it(self, spec):
        with pytest.raises(ValidationError, match="names channel 'r' twice"):
            parse_fusion_spec(spec)

    def test_apply_fusion_requires_channels(self):
        spec = parse_fusion_spec("sum:R,G")
        with pytest.raises(ValidationError):
            apply_fusion(spec, {"r": random_tensor(0)})


class TestRunChannelPipeline:
    def test_equal_channels_make_y_equal_single_channel(self, tmp_path):
        manifest_path = generate_dataset(
            SynthSpec(5, 6, 0.3, seed=21, width=32, height=32, placement="rgb-equal"),
            tmp_path,
        )
        manifest = load_manifest(manifest_path)
        run_y = run_channel_pipeline(manifest, SPLIT, ("y",), "mse", 64, 32)["y"]
        run_g = run_channel_pipeline(manifest, SPLIT, ("g",), "mse", 64, 32)["g"]
        assert np.array_equal(run_y.tensor.scores, run_g.tensor.scores)
        assert run_y.summary.identification == run_g.summary.identification
        assert run_y.summary.min_dcf == run_g.summary.min_dcf

    def test_signal_channel_beats_noise_channels(self, tmp_path):
        manifest_path = generate_dataset(
            SynthSpec(8, 6, 0.4, seed=31, width=32, height=32, placement="r-only"),
            tmp_path,
        )
        manifest = load_manifest(manifest_path)
        rate = {
            ch: run_channel_pipeline(manifest, SPLIT, (ch,), "mad", 64, 32)[ch].summary.identification.rate
            for ch in ("r", "g", "b")
        }
        assert rate["r"] > rate["g"]
        assert rate["r"] > rate["b"]

    def test_single_tensor_weight_one_is_identity_end_to_end(self, color_dataset):
        run = run_channel_pipeline(color_dataset, SPLIT, ("r",), "mad", 64, 32)["r"]
        fused = fuse_scores_weighted([run.tensor], [1.0])
        s = summarize_tensor(fused)
        assert s.identification == run.summary.identification
        assert s.min_dcf == run.summary.min_dcf

    def test_reported_summary_matches_tensor(self, color_dataset):
        run = run_channel_pipeline(color_dataset, SPLIT, ("b",), "mse", 64, 32)["b"]
        again = summarize_tensor(run.tensor)
        assert again.identification == run.summary.identification
        assert again.eer == run.summary.eer

    def test_feature_and_score_level_routes_coexist(self, color_dataset):
        # the luminance row and the weighted score fusion row are different
        # pipelines over the same data and both must run
        run_y = run_channel_pipeline(color_dataset, SPLIT, ("y",), "mad", 64, 32)["y"]
        runs = {
            ch: run_channel_pipeline(color_dataset, SPLIT, (ch,), "mad", 64, 32)[ch]
            for ch in ("r", "g", "b")
        }
        fused = apply_fusion(
            parse_fusion_spec("w:0.3R+0.59G+0.11B"),
            {c: r.tensor for c, r in runs.items()},
        )
        assert fused.scores.shape == run_y.tensor.scores.shape
        assert not np.array_equal(fused.scores, run_y.tensor.scores)


class TestExtractSubjectFeatures:
    @pytest.mark.parametrize(
        "placement, channels", [("gray", ("gray",)), ("rgb", ("r", "g", "b", "y"))]
    )
    def test_one_call_for_all_channels_equals_one_call_each(self, tmp_path, placement, channels):
        manifest = load_manifest(
            generate_dataset(
                SynthSpec(3, 2, 0.4, seed=5, width=20, height=24, placement=placement), tmp_path
            )
        )
        together = extract_subject_features(manifest, channels, 30, 16)
        assert list(together) == list(channels)
        offsets = np.cumsum([0] + [len(manifest[s]) for s in sorted(manifest)]).tolist()
        for channel in channels:
            (alone,) = extract_subject_features(manifest, (channel,), 30, 16).values()
            got = together[channel]
            assert got.subject_ids == alone.subject_ids == sorted(manifest)
            assert got.offsets.tolist() == alone.offsets.tolist() == offsets
            assert got.matrix.tobytes() == alone.matrix.tobytes()
            assert (got.channel, got.feature_dim) == (alone.channel, 30)
            assert alone.channel == channel


# The per-vector route that extract_subject_features and the grouped form of
# build_score_tensor replaced: the reference they are tested against.


def reference_features(subjects, channels, dim, window):
    """channel -> subject -> vectors, one featurize_image call per image."""
    features = {channel: {} for channel in channels}
    for subject in sorted(subjects):
        vectors = [featurize_image(p, channels, dim, window, subject) for p in subjects[subject]]
        for i, channel in enumerate(channels):
            features[channel][subject] = [FeatureVector(v[i], channel, subject) for v in vectors]
    return features


def reference_gallery(features):
    gallery = Gallery()
    for subject in sorted(features):
        for vec in features[subject]:
            gallery.enroll(subject, vec)
    return gallery


def reference_tensor(probes, gallery, metric):
    """One subject_distances call per probe vector, trial k of subject i."""
    subjects = tuple(sorted(probes))
    scores = np.empty((len(subjects), gallery.n_subjects, len(probes[subjects[0]])))
    for i, subject in enumerate(subjects):
        for k, vec in enumerate(probes[subject]):
            assert (vec.dim, vec.source_channel) == (gallery.feature_dim, gallery.channel)
            scores[i, :, k] = subject_distances(vec.coeffs, gallery, metric)
    return ScoreTensor(subjects, tuple(gallery.subject_ids), scores, metric)


class TestGroupedFeaturesOracle:
    @pytest.mark.parametrize(
        "placement, channels", [("gray", ("gray",)), ("rgb", ("r", "g", "b", "y"))]
    )
    def test_grouped_path_equals_the_per_vector_route(self, tmp_path, placement, channels):
        spec = SynthSpec(4, 5, 0.4, seed=7, width=20, height=24, placement=placement)
        generated = load_manifest(generate_dataset(spec, tmp_path))
        # lexicographic order (s1, s10, s2, s30) is not numeric order
        manifest = dict(zip(["s2", "s10", "s1", "s30"], (generated[s] for s in sorted(generated))))
        train, test = apply_split(manifest, SplitSpec.from_iterables([1, 2, 3], [4, 5]))
        enrolled = extract_subject_features(train, channels, 30, 16)
        probes = extract_subject_features(test, channels, 30, 16)
        reference_enrolled = reference_features(train, channels, 30, 16)
        reference_probes = reference_features(test, channels, 30, 16)
        for channel in channels:
            gallery, expected = enrolled[channel], reference_gallery(reference_enrolled[channel])
            assert gallery.subject_ids == expected.subject_ids == ["s1", "s10", "s2", "s30"]
            assert gallery.offsets.tolist() == expected.offsets.tolist() == [0, 3, 6, 9, 12]
            assert gallery.matrix.tobytes() == expected.matrix.tobytes()
            assert (gallery.channel, gallery.feature_dim) == (expected.channel, 30)
            for metric in ("mse", "mad"):
                tensor = build_score_tensor(probes[channel], gallery, metric)
                reference = reference_tensor(reference_probes[channel], expected, metric)
                assert tensor.probe_subjects == reference.probe_subjects
                assert tensor.gallery_subjects == reference.gallery_subjects
                assert tensor.scores.tobytes() == reference.scores.tobytes()
                # the dict form, enrolled through Gallery.enroll, gives the same bits
                dict_form = build_score_tensor(reference_probes[channel], expected, metric)
                assert dict_form.scores.tobytes() == reference.scores.tobytes()
