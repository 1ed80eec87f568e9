"""Distance kernels, score tensor construction, identification rate."""

import contextlib
import errno
import hashlib
import io
import json
import os
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from facedct import errors, matching

from facedct.errors import DataError, MismatchError
from facedct.features import FeatureVector
from facedct.gallery import Gallery, GalleryError
from facedct.matching import (
    MatchingError,
    ScoreTensor,
    build_score_tensor,
    identification_rate,
    mad,
    mse,
    load_scores_csv,
    person_score,
    save_scores_csv,
    scores_from_csv,
    scores_to_csv,
)
from facedct.pipeline import extract_subject_features
from facedct.shares import n_shares
from facedct.synth import SynthSpec, generate_dataset
from facedct.verification import split_intra_inter

from byte_edit_strategy import apply_byte_edits, byte_edits
from forked import forked_shares


def _npy_sha256(array):
    out = io.BytesIO()
    np.save(out, array, allow_pickle=False)
    return hashlib.sha256(out.getvalue()).hexdigest()


#: a scores.json that pins the valid scores.npy of the 2x3x2 tensor
#: np.arange(12.0), as save_scores_csv writes it, but not scores.csv
PINS_ONLY_THE_NPY = json.dumps(
    {"format": "facedct-scores-v1",
     "sha256": {"scores.npy": _npy_sha256(np.arange(12.0).reshape(2, 3, 2))}}
).encode()


def vec(values, channel="gray", subject=None):
    return FeatureVector(np.asarray(values, dtype=float), channel, subject)


def brute_force_identification(tensor):
    """Independent re-derivation of the decision rule with plain loops."""
    scores = tensor.scores
    gcols = {s: j for j, s in enumerate(tensor.gallery_subjects)}
    successes = errors = 0
    for i, subject in enumerate(tensor.probe_subjects):
        own_col = gcols[subject]
        for k in range(scores.shape[2]):
            own = scores[i, own_col, k]
            if all(
                own < scores[i, j, k]
                for j in range(scores.shape[1])
                if j != own_col
            ):
                successes += 1
            else:
                errors += 1
    return successes, errors


finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


class TestMetrics:
    def test_mse_identity(self):
        x = vec([1.5, -2.0])
        assert mse(x, x) == 0.0

    def test_mse_hand_value(self):
        assert mse(vec([1, 2]), vec([0, 0])) == 5.0

    def test_mad_identity(self):
        x = vec([3.0])
        assert mad(x, x) == 0.0

    def test_mad_hand_value(self):
        assert mad(vec([1, 2]), vec([0, 0])) == 3.0

    @given(st.lists(finite_floats, min_size=1, max_size=10), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_symmetry(self, values, seed):
        rng = np.random.default_rng(seed)
        x = vec(values)
        y = vec(rng.standard_normal(len(values)))
        assert mse(x, y) == mse(y, x)
        assert mad(x, y) == mad(y, x)

    @given(st.integers(1, 8), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_mad_triangle_inequality(self, dim, seed):
        rng = np.random.default_rng(seed)
        x, y, z = (vec(rng.standard_normal(dim)) for _ in range(3))
        assert mad(x, y) <= mad(x, z) + mad(z, y) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(MismatchError):
            mse(vec([1.0]), vec([1.0, 2.0]))
        with pytest.raises(MismatchError):
            mad(vec([1.0]), vec([1.0, 2.0]))

    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, y = vec(rng.standard_normal(5)), vec(rng.standard_normal(5))
            assert mse(x, y) > 0.0
            assert mad(x, y) > 0.0


class TestPersonScore:
    def test_exact_template_gives_zero(self):
        probe = vec([1.0, 2.0])
        assert person_score(probe, [vec([0.0, 0.0]), vec([1.0, 2.0])], "mse") == 0.0

    def test_nearest_template_wins(self):
        templates = [vec([0.0, 0.0]), vec([10.0, 10.0])]
        assert person_score(vec([1.0, 0.0]), templates, "mad") == 1.0

    def test_singleton_reduces_to_metric(self):
        probe, t = vec([1.0, 1.0]), vec([0.0, 3.0])
        assert person_score(probe, [t], "mse") == mse(probe, t)
        assert person_score(probe, [t], "mad") == mad(probe, t)

    def test_empty_templates_rejected(self):
        with pytest.raises(ValueError):
            person_score(vec([1.0]), [], "mse")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            person_score(vec([1.0]), [vec([1.0])], "cosine")


def build_orl_like(n_subjects=40, n_train=5, n_test=5, dim=100, seed=0):
    rng = np.random.default_rng(seed)
    gallery = Gallery()
    probes = {}
    for i in range(n_subjects):
        s = f"s{i:02d}"
        base = rng.standard_normal(dim)
        for _ in range(n_train):
            gallery.enroll(s, vec(base + 0.1 * rng.standard_normal(dim)))
        probes[s] = [vec(base + 0.1 * rng.standard_normal(dim)) for _ in range(n_test)]
    return probes, gallery


class TestBuildScoreTensor:
    def test_orl_shape(self):
        probes, gallery = build_orl_like()
        tensor = build_score_tensor(probes, gallery, "mse")
        assert tensor.scores.shape == (40, 40, 5)
        assert tensor.scores.size == 8000

    def test_probes_equal_templates_zero_diagonal(self):
        gallery = Gallery()
        probes = {}
        rng = np.random.default_rng(3)
        for s in ["a", "b", "c"]:
            v = vec(rng.standard_normal(10))
            gallery.enroll(s, v)
            probes[s] = [vec(v.coeffs)]
        tensor = build_score_tensor(probes, gallery, "mad")
        for i in range(3):
            assert tensor.scores[i, i, 0] == 0.0

    def test_two_subject_cells_match_direct_metric_calls(self):
        gallery = Gallery()
        a1, a2 = vec([0.0, 0.0]), vec([4.0, 0.0])
        b1 = vec([10.0, 10.0])
        gallery.enroll("a", a1)
        gallery.enroll("a", a2)
        gallery.enroll("b", b1)
        pa, pb = vec([1.0, 0.0]), vec([9.0, 9.0])
        tensor = build_score_tensor({"a": [pa], "b": [pb]}, gallery, "mad")
        assert tensor.scores[0, 0, 0] == min(mad(pa, a1), mad(pa, a2))
        assert tensor.scores[0, 1, 0] == mad(pa, b1)
        assert tensor.scores[1, 0, 0] == min(mad(pb, a1), mad(pb, a2))
        assert tensor.scores[1, 1, 0] == mad(pb, b1)

    def test_matches_brute_force_random_instance(self):
        probes, gallery = build_orl_like(n_subjects=5, n_train=3, n_test=2, dim=7, seed=11)
        for metric in ("mse", "mad"):
            tensor = build_score_tensor(probes, gallery, metric)
            for i, s in enumerate(tensor.probe_subjects):
                for k, probe in enumerate(probes[s]):
                    for j, g in enumerate(tensor.gallery_subjects):
                        expected = person_score(probe, gallery.templates_of(g), metric)
                        assert tensor.scores[i, j, k] == expected

    def test_ragged_trials_rejected_naming_subject(self):
        probes, gallery = build_orl_like(n_subjects=3, n_test=2, dim=5, seed=2)
        probes["s01"] = probes["s01"][:1]
        with pytest.raises(MatchingError, match="s01"):
            build_score_tensor(probes, gallery, "mse")

    def test_unknown_probe_subject_rejected(self):
        probes, gallery = build_orl_like(n_subjects=2, dim=5)
        probes["stranger"] = probes["s00"]
        with pytest.raises(MatchingError, match="stranger"):
            build_score_tensor(probes, gallery, "mse")

    def test_dim_mismatch_rejected(self):
        probes, gallery = build_orl_like(n_subjects=2, dim=5)
        probes["s00"] = [vec(np.zeros(4))] * 5
        with pytest.raises(MismatchError):
            build_score_tensor(probes, gallery, "mse")

    def test_channel_mismatch_rejected(self):
        probes, gallery = build_orl_like(n_subjects=2, dim=5)
        probes["s00"] = [vec(np.zeros(5), channel="r")] * 5
        with pytest.raises(MismatchError):
            build_score_tensor(probes, gallery, "mse")


def grouped(probes):
    """The grouped form of a dict-form probe set."""
    matrix = Gallery()
    for subject, vectors in probes.items():
        for v in vectors:
            matrix.enroll(subject, v)
    return matrix


class TestBuildScoreTensorGroupedForm:
    def test_unknown_probe_subject_rejected(self):
        probes, gallery = build_orl_like(n_subjects=2, dim=5)
        probes["stranger"] = probes["s00"]
        with pytest.raises(MatchingError, match="probe subject 'stranger' is not enrolled"):
            build_score_tensor(grouped(probes), gallery, "mse")

    def test_ragged_trials_rejected_naming_subject(self):
        probes, gallery = build_orl_like(n_subjects=3, n_test=2, dim=5, seed=2)
        probes["s01"] = probes["s01"][:1]
        with pytest.raises(MatchingError, match="subject 's01' has 1 test samples, expected 2"):
            build_score_tensor(grouped(probes), gallery, "mse")

    @pytest.mark.parametrize(
        "probe, message",
        [(vec(np.zeros(4)), "dim 4, channel 'gray'"), (vec(np.zeros(5), "r"), "dim 5, channel 'r'")],
    )
    def test_dim_or_channel_mismatch_rejected_naming_subject(self, probe, message):
        probes, gallery = build_orl_like(n_subjects=2, dim=5)
        probes = {subject: [probe] * 5 for subject in probes}
        with pytest.raises(MismatchError, match=f"probe 's00' has {message}; gallery has dim 5"):
            build_score_tensor(grouped(probes), gallery, "mse")

    def test_dict_form_rejects_a_vector_labelled_with_another_subject(self):
        # the dict form is enrolled through Gallery.enroll, which checks labels
        probes, gallery = build_orl_like(n_subjects=2, dim=5)
        probes["s00"] = [vec(np.zeros(5), subject="s01")] * 5
        with pytest.raises(GalleryError, match="subject 's00': vector labelled 's01' enrolled under"):
            build_score_tensor(probes, gallery, "mse")


class TestScoreTensorInvariants:
    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            ScoreTensor(("a",), ("a", "b"), -np.ones((1, 2, 1)), "mse")

    def test_non_finite_rejected(self):
        scores = np.ones((1, 2, 1))
        scores[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            ScoreTensor(("a",), ("a", "b"), scores, "mse")

    def test_probe_must_be_enrolled(self):
        with pytest.raises(ValueError):
            ScoreTensor(("x",), ("a", "b"), np.ones((1, 2, 1)), "mse")

    def test_shape_must_match_subjects(self):
        with pytest.raises(ValueError):
            ScoreTensor(("a",), ("a",), np.ones((2, 1, 1)), "mse")


class TestIdentificationRate:
    def make_tensor(self, scores, subjects=None):
        scores = np.asarray(scores, dtype=float)
        subjects = subjects or tuple(f"s{i}" for i in range(scores.shape[0]))
        return ScoreTensor(subjects, subjects, scores, "mse")

    def test_diagonal_strictly_smallest(self):
        rng = np.random.default_rng(0)
        scores = rng.random((4, 4, 3)) + 1.0
        for i in range(4):
            scores[i, i, :] = 0.5
        result = identification_rate(self.make_tensor(scores))
        assert result.rate == 1.0
        assert result.trials == 12

    def test_single_error_counting(self):
        scores = np.full((2, 2, 2), 2.0)
        for i in range(2):
            scores[i, i, :] = 1.0
        scores[0, 1, 0] = 0.5  # one probe confuses subject 0 with 1
        result = identification_rate(self.make_tensor(scores))
        assert result.successes == 3
        assert result.errors == 1
        assert result.rate == 0.75

    def test_exact_tie_counts_as_error(self):
        # probe 0 ties its own cell with subject 1's cell
        scores = np.array([[[1.0], [1.0]], [[5.0], [1.0]]])
        result = identification_rate(self.make_tensor(scores))
        assert result.successes == 1
        assert result.errors == 1

    def test_single_subject_tensor_always_succeeds(self):
        result = identification_rate(self.make_tensor(np.ones((1, 1, 4))))
        assert result.rate == 1.0

    @given(st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        tensor = self.make_tensor(rng.random((n, n, k)))
        result = identification_rate(tensor)
        assert (result.successes, result.errors) == brute_force_identification(tensor)

    @given(st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_partition_matches_brute_force_and_scores_stay(self, seed):
        # probe subjects: a permuted subset of the gallery's, so the tensor
        # need not be square and a probe's own column need not be its row
        rng = np.random.default_rng(seed)
        n_gallery, n_trials = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        gallery = tuple(f"s{j}" for j in rng.permutation(n_gallery))
        probes = tuple(rng.permutation(gallery)[: int(rng.integers(1, n_gallery + 1))])
        tensor = ScoreTensor(probes, gallery, rng.random((len(probes), n_gallery, n_trials)))
        before = tensor.scores.tobytes()
        genuine, impostor = tensor.partition()
        own = [gallery.index(s) for s in probes]
        brute = np.array([tensor.scores[i, own[i]] for i in range(len(probes))])
        assert genuine.tobytes() == brute.tobytes()
        # the genuine cells are gathered once, read-only, and shared
        assert tensor.genuine.tobytes() == brute.tobytes()
        assert tensor.genuine.shape == (len(probes), n_trials)
        assert not tensor.genuine.flags.writeable
        with pytest.raises(ValueError):
            tensor.genuine[0, 0] = 1.0
        assert genuine is tensor.genuine and tensor.genuine_and_best()[0] is tensor.genuine
        if n_gallery >= 2:
            assert split_intra_inter(tensor).genuine.tobytes() == brute.tobytes()
        others = [
            [tensor.scores[i, j] for j in range(n_gallery) if j != own[i]]
            for i in range(len(probes))
        ]
        assert impostor.shape == (len(probes), n_gallery - 1, n_trials)
        assert impostor.tobytes() == np.array(others).tobytes()
        result = identification_rate(tensor)
        assert (result.successes, result.errors) == brute_force_identification(tensor)
        assert tensor.scores.tobytes() == before

    @given(st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_strictly_increasing_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        tensor = self.make_tensor(rng.random((5, 5, 2)))
        transformed = tensor.with_scores(tensor.scores**3 + tensor.scores)
        assert identification_rate(tensor) == identification_rate(transformed)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.random((4, 4, 2))
        subjects = ("a", "b", "c", "d")
        base = identification_rate(ScoreTensor(subjects, subjects, scores, "mse"))
        perm = [2, 0, 3, 1]
        permuted_subjects = tuple(subjects[p] for p in perm)
        permuted = scores[perm][:, perm, :]
        renamed = identification_rate(
            ScoreTensor(permuted_subjects, permuted_subjects, permuted, "mse")
        )
        assert base == renamed

    def test_probes_as_own_templates_rate_one(self):
        gallery = Gallery()
        probes = {}
        rng = np.random.default_rng(13)
        for s in ["a", "b", "c", "d"]:
            v = vec(rng.standard_normal(6))
            gallery.enroll(s, v)
            probes[s] = [vec(v.coeffs)]
        tensor = build_score_tensor(probes, gallery, "mse")
        assert identification_rate(tensor).rate == 1.0


class TestScoresCsv:
    def test_round_trip(self):
        rng = np.random.default_rng(21)
        tensor = ScoreTensor(("a", "b"), ("a", "b", "c"), rng.random((2, 3, 2)), "mad")
        back = scores_from_csv(scores_to_csv(tensor))
        assert back.probe_subjects == tensor.probe_subjects
        assert back.gallery_subjects == tensor.gallery_subjects
        assert back.metric == tensor.metric
        assert np.array_equal(back.scores, tensor.scores)

    def test_missing_header_rejected(self):
        with pytest.raises(DataError):
            scores_from_csv("i,j,k,score\n0,0,0,1.0\n")

    def test_missing_cells_rejected(self):
        tensor = ScoreTensor(("a",), ("a", "b"), np.ones((1, 2, 1)), "mse")
        text = scores_to_csv(tensor)
        truncated = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(DataError):
            scores_from_csv(truncated)

    @pytest.mark.parametrize(
        "rows, error",
        [
            (["1,0,0"], "malformed"),  # too few fields
            (["1,0,0,1,1"], "malformed"),  # too many fields
            (["1,0.0,0,1"], "malformed"),  # non-integer index
            (["1,0,0,x"], "malformed"),  # unparsable score
            (["", "1,0,0,1"], "malformed"),  # blank line within the rows
            (["1,2,0,1"], "out of bounds"),  # index beyond the gallery
            (["1,0,0,nan"], "invalid score tensor"),  # non-finite score
            (["1,0,0,-1"], "invalid score tensor"),  # negative distance
            (["1,0,0,\uff11"], "malformed"),  # non-ASCII (a fullwidth digit one)
            (["  ", "1,0,0,1"], "malformed"),  # whitespace-only line within the rows
            (["1,0,0,1\r\r"], "malformed"),  # a row ending in two carriage returns
            (["1,0,1000000000000000,1"], "4 cells, expected"),  # k sizing a 4e15-cell tensor
        ],
    )
    def test_bad_row_rejected(self, rows, error):
        tensor = ScoreTensor(("a", "b"), ("a", "b"), np.ones((2, 2, 1)), "mse")
        lines = scores_to_csv(tensor).splitlines()
        lines[-2:-1] = rows  # in place of the row of cell (1,0,0)
        with pytest.raises(DataError, match=error) as info, warnings.catch_warnings():
            warnings.simplefilter("error")  # a blank line must not reach loadtxt's warning
            scores_from_csv("\n".join(lines) + "\n")
        if error == "malformed":
            # four comment lines and the column header come first, so the
            # first replacement row is line 8
            assert "at line 8:" in str(info.value)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r\r\n", "\r\r", "\n\r\n\n"])
    def test_line_breaks_after_the_last_row_are_ignored(self, ending):
        tensor = ScoreTensor(("a", "b"), ("a", "b"), np.random.default_rng(23).random((2, 2, 1)))
        text = scores_to_csv(tensor).removesuffix("\n") + ending
        assert scores_from_csv(text).scores.tobytes() == tensor.scores.tobytes()

    @pytest.mark.parametrize("tail", ["\x0c", "\x0b"])
    def test_a_row_loadtxt_reads_is_not_blamed_for_a_later_one(self, tail):
        tensor = ScoreTensor(("a", "b"), ("a", "b"), np.ones((2, 2, 1)), "mse")
        lines = scores_to_csv(tensor).splitlines()
        lines[5] += tail  # line 6, which loadtxt reads as a row
        lines[7] = "1,0,0"  # line 8
        with pytest.raises(DataError, match="malformed score row at line 8:"):
            scores_from_csv("\n".join(lines) + "\n")

    @given(byte_edits)
    @settings(max_examples=400, deadline=None)
    def test_byte_edits_load_or_raise_data_error(self, edits):
        tensor = ScoreTensor(("a", "b"), ("a", "b", "c"), np.arange(12.0).reshape(2, 3, 2) / 7)
        data = apply_byte_edits(scores_to_csv(tensor).encode(), edits)
        try:
            scores_from_csv(data)
        except DataError:
            pass

    def test_round_trip_across_many_blocks(self):
        rng = np.random.default_rng(22)
        tensor = ScoreTensor(("a", "b", "c"), ("a", "b", "c"), rng.random((3, 3, 7)), "mse")
        text = scores_to_csv(tensor)
        assert np.array_equal(scores_from_csv(text).scores, tensor.scores)
        lines = text.splitlines()
        lines[40] = "0,0,0"
        with pytest.raises(DataError, match="line 41"):
            scores_from_csv("\n".join(lines) + "\n")

    def test_negative_index_rejected(self):
        tensor = ScoreTensor(("a", "b"), ("a", "b"), np.ones((2, 2, 1)), "mse")
        lines = scores_to_csv(tensor).splitlines()
        # the last row (1,1,0) rewritten as (-1,1,0) would wrap to it
        lines[-1] = "-1,1,0,1"
        with pytest.raises(DataError, match="out of bounds"):
            scores_from_csv("\n".join(lines) + "\n")

    @pytest.mark.parametrize("key", ["probe_subjects", "gallery_subjects"])
    @pytest.mark.parametrize("value", ["5", '"ab"', "[1, 2]"])
    def test_subject_header_must_be_a_json_list_of_strings(self, key, value):
        tensor = ScoreTensor(("a", "b"), ("a", "b"), np.ones((2, 2, 1)), "mse")
        text = scores_to_csv(tensor)
        assert f'# {key}=["a", "b"]\n' in text
        with pytest.raises(DataError, match=key):
            scores_from_csv(text.replace(f'# {key}=["a", "b"]', f"# {key}={value}"))

    def test_duplicate_cell_rejected(self):
        tensor = ScoreTensor(("a", "b"), ("a", "b"), np.ones((2, 2, 1)), "mse")
        lines = scores_to_csv(tensor).splitlines()
        # right cell count, but (0,0,0) twice and (1,1,0) missing
        lines[-1] = "0,0,0,2"
        with pytest.raises(DataError, match="more than once"):
            scores_from_csv("\n".join(lines) + "\n")


def _decades(e):
    """10^e and its two float neighbours."""
    x = 10.0**e
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


#: distances, with the ones a 17-digit text form could get wrong weighted in
score_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                     1e300, 1.7976931348623157e308]),
    st.integers(-320, 300).flatmap(lambda e: st.sampled_from(_decades(e))),
    st.floats(0.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def score_tensors(draw):
    n_gallery = draw(st.integers(1, 12))
    n_probe = draw(st.integers(1, n_gallery))
    n_trials = draw(st.integers(1, 11))
    gallery = [f"s{j}" for j in range(n_gallery)]
    probes = sorted(draw(st.permutations(gallery))[:n_probe])
    scores = draw(hnp.arrays(np.float64, (n_probe, n_gallery, n_trials), elements=score_values))
    return ScoreTensor(probes, gallery, scores, draw(st.sampled_from(["mse", "mad"])))


@contextlib.contextmanager
def row_parses():
    """Count the calls of the one CSV row parser."""
    with mock.patch.object(matching, "_load_score_rows", wraps=matching._load_score_rows) as spy:
        yield spy


def same_tensor(a, b):
    return (a.probe_subjects, a.gallery_subjects, a.metric, a.scores.tobytes()) == (
        b.probe_subjects, b.gallery_subjects, b.metric, b.scores.tobytes()
    )


class TestScoreSidecar:
    @given(score_tensors())
    @settings(max_examples=100, deadline=None)
    def test_sidecar_equals_the_csv_parse_bit_for_bit(self, tensor):
        for shares in (contextlib.nullcontext, forked_shares):
            with tempfile.TemporaryDirectory() as tmp, shares():
                path = Path(tmp) / "scores.csv"
                save_scores_csv(tensor, path)
                assert path.read_bytes() == scores_to_csv(tensor).encode()
                with row_parses() as spy:
                    from_npy = load_scores_csv(path)
                assert spy.call_count == 0
                path.with_suffix(".npy").unlink()
                from_csv = load_scores_csv(path)
            bits = tensor.scores.view(np.uint64)
            assert np.array_equal(from_npy.scores.view(np.uint64), bits)
            assert np.array_equal(from_csv.scores.view(np.uint64), bits)
            for back in (from_npy, from_csv):
                assert back.probe_subjects == tensor.probe_subjects
                assert back.gallery_subjects == tensor.gallery_subjects
                assert back.metric == tensor.metric

    @given(score_tensors())
    @settings(max_examples=30, deadline=None)
    def test_sidecar_has_the_bytes_of_np_save(self, tensor):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.csv"
            save_scores_csv(tensor, path)
            expected = io.BytesIO()
            np.save(expected, tensor.scores, allow_pickle=False)
            assert path.with_suffix(".npy").read_bytes() == expected.getvalue()

    def test_save_holds_less_than_the_score_file_it_writes(self, tmp_path):
        # the CSV is streamed a block of cells at a time, the .npy from the
        # tensor's own buffer
        subjects = [f"s{j:03d}" for j in range(300)]
        scores = np.random.default_rng(3).random((300, 300, 1))
        tensor = ScoreTensor(subjects, subjects, scores, "mse")
        path = tmp_path / "scores.csv"
        tracemalloc.start()
        try:
            save_scores_csv(tensor, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * path.stat().st_size

    def test_save_of_many_trials_holds_less_than_the_score_file_it_writes(self, tmp_path):
        # 10 trials a subject: a block holds 4 probe rows of 1000 cells
        subjects = [f"s{j:03d}" for j in range(100)]
        scores = np.random.default_rng(5).random((100, 100, 10))
        tensor = ScoreTensor(subjects, subjects, scores, "mse")
        path = tmp_path / "scores.csv"
        tracemalloc.start()
        try:
            save_scores_csv(tensor, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * path.stat().st_size

    def test_pinned_load_holds_less_than_the_score_file_it_reads(self, tmp_path):
        # the CSV is hashed in chunks, keeping its header; the cells come
        # from scores.npy
        subjects = [f"s{j:03d}" for j in range(300)]
        scores = np.random.default_rng(4).random((300, 300, 1))
        path = tmp_path / "scores.csv"
        save_scores_csv(ScoreTensor(subjects, subjects, scores, "mse"), path)
        with row_parses() as spy:
            tracemalloc.start()
            try:
                loaded = load_scores_csv(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert spy.call_count == 0 and np.array_equal(loaded.scores, scores)
        assert peak < path.stat().st_size

    @pytest.mark.parametrize("size", [1, 7, 1 << 16])
    def test_the_header_is_read_across_chunks(self, tmp_path, monkeypatch, size):
        path = tmp_path / "scores.csv"
        tensor = ScoreTensor(("a", "b"), ("a", "b", "c"), np.arange(12.0).reshape(2, 3, 2), "mad")
        save_scores_csv(tensor, path)
        monkeypatch.setattr(errors, "CHUNK_SIZE", size)
        with row_parses() as spy:
            assert same_tensor(load_scores_csv(path), tensor)
        assert spy.call_count == 0
        path.with_suffix(".npy").unlink()
        assert same_tensor(load_scores_csv(path), tensor)

    def test_the_header_parser_takes_the_header_lines_alone(self, tmp_path, monkeypatch):
        # the one header parser reads the lines of the open file, each once,
        # and leaves the rows to be hashed in chunks
        subjects = [f"subject{j:05d}" for j in range(2000)]
        tensor = ScoreTensor(subjects[:1], subjects, np.ones((1, 2000, 1)), "mse")
        path = tmp_path / "scores.csv"
        save_scores_csv(tensor, path)
        parse, taken = matching._score_header, []

        def score_header(lines):
            return parse(taken.append(line) or line for line in lines)

        monkeypatch.setattr(errors, "CHUNK_SIZE", 64)
        monkeypatch.setattr(matching, "_score_header", score_header)
        with row_parses() as spy:
            assert same_tensor(load_scores_csv(path), tensor)
        assert spy.call_count == 0
        text = scores_to_csv(tensor).encode()
        header = text[: text.index(b"i,j,k,score\n") + len(b"i,j,k,score\n")]
        assert len(header) > 30_000 and taken == header.splitlines(keepends=True)

    def test_the_manifest_pins_both_files_by_name(self, tmp_path):
        tensor = ScoreTensor(("a",), ("a", "b"), np.ones((1, 2, 1)), "mse")
        save_scores_csv(tensor, tmp_path / "scores_mse.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "scores_mse.csv", "scores_mse.json", "scores_mse.npy"
        ]
        manifest = json.loads((tmp_path / "scores_mse.json").read_text())
        assert manifest == {
            "format": "facedct-scores-v1",
            "sha256": {
                name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("scores_mse.npy", "scores_mse.csv")
            },
        }
        npy = np.load(tmp_path / "scores_mse.npy", allow_pickle=False)
        assert npy.dtype.str == "<f8" and npy.flags.c_contiguous

    @pytest.mark.parametrize("name", ["s.npy", "s.json"])
    def test_a_score_file_named_as_its_sidecar_is_refused_before_any_write(
        self, tmp_path, name
    ):
        tensor = ScoreTensor(("a",), ("a", "b"), np.ones((1, 2, 1)), "mse")
        with pytest.raises(ValueError, match=f"score file .*{name} has the name of its own"):
            save_scores_csv(tensor, tmp_path / name)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failing, loads", [(2, "old"), (3, "new")], ids=["csv", "manifest"])
    def test_save_cut_before_the_manifest_falls_back_to_the_csv(
        self, tmp_path, monkeypatch, failing, loads
    ):
        for shares in (contextlib.nullcontext, forked_shares):
            path = tmp_path / shares.__name__ / "scores.csv"
            old = ScoreTensor(("a", "b"), ("a", "b"), np.ones((2, 2, 1)), "mse")
            new = old.with_scores(old.scores * 2)
            with shares():
                save_scores_csv(old, path)
            real_write_chunks = errors._write_chunks
            calls = []

            def write_chunks(target, chunks):  # the n-th write fails half-way
                calls.append(target)
                if len(calls) == failing:
                    data = b"".join(chunks)
                    real_write_chunks(target, [data[: len(data) // 2]])
                    raise OSError("no space left on device")
                return real_write_chunks(target, chunks)

            monkeypatch.setattr(errors, "_write_chunks", write_chunks)
            with pytest.raises(OSError, match="no space"), shares():
                save_scores_csv(new, path)
            monkeypatch.undo()
            # the new scores.npy is in place, beside the old manifest
            assert np.array_equal(np.load(path.with_suffix(".npy")), new.scores)
            with row_parses() as spy:
                loaded = load_scores_csv(path)
            assert spy.call_count == 1
            assert same_tensor(loaded, {"old": old, "new": new}[loads])

    @pytest.mark.parametrize(
        "name, make",
        [
            ("scores.json", None),
            ("scores.json", "directory"),
            ("scores.json", b'{"format": "facedct-scores-v1", "sha256": '),
            ("scores.json", b"\xff"),
            ("scores.json", b"[1, 2]"),
            ("scores.json", b"[" * 100_000),
            ("scores.json", b'{"format": "other", "sha256": {}}'),
            ("scores.json", b'{"format": "facedct-scores-v1", "sha256": ["scores.csv"]}'),
            ("scores.json", b'{"format": "facedct-scores-v1"}'),
            ("scores.json", PINS_ONLY_THE_NPY),
            ("scores.npy", None),
            ("scores.npy", "directory"),
            ("scores.npy", b"not an array"),
        ],
        ids=[
            "no-manifest", "manifest-directory", "manifest-not-json", "manifest-not-utf8",
            "manifest-list", "manifest-nested", "manifest-format", "digests-list", "no-digests",
            "digests-without-csv", "no-npy", "npy-directory", "npy-stale",
        ],
    )
    def test_sidecar_that_cannot_be_trusted_falls_back_to_the_csv(self, tmp_path, name, make):
        path = tmp_path / "scores.csv"
        tensor = ScoreTensor(("a", "b"), ("a", "b", "c"), np.arange(12.0).reshape(2, 3, 2), "mad")
        save_scores_csv(tensor, path)
        (tmp_path / name).unlink()
        if make == "directory":
            (tmp_path / name).mkdir()
        elif make is not None:
            (tmp_path / name).write_bytes(make)
        with row_parses() as spy:
            assert same_tensor(load_scores_csv(path), tensor)
        assert spy.call_count == 1


def _tensor(n_probe, n_gallery, n_trials, seed=0):
    subjects = [f"s{j}" for j in range(n_gallery)]
    scores = np.random.default_rng(seed).random((n_probe, n_gallery, n_trials))
    return ScoreTensor(subjects[:n_probe], subjects, scores, "mse")


class TestRowShares:
    """save_scores_csv splits a large tensor's probe rows between forked
    processes, and writes the same bytes as inline."""

    @pytest.mark.parametrize(
        "shape, cpus, shares",
        [
            ((1000, 1000, 1), 2, 2),
            ((1000, 1000, 1), 64, 10),
            ((8, 1000, 25), 64, 2),
            ((1, 1000, 200), 64, 1),
            ((300, 300, 1), 64, 1),
            ((1000, 1000, 1), 1, 1),
        ],
    )
    def test_one_share_per_usable_cpu_with_a_floor_of_cells(self, shape, cpus, shares):
        tensor = ScoreTensor(
            [f"s{j}" for j in range(shape[0])], [f"s{j}" for j in range(shape[1])], np.zeros(shape)
        )
        with mock.patch("facedct.shares.usable_cpus", lambda: cpus):
            k = n_shares(tensor.scores.shape[0], tensor.scores.size, matching._SHARE_FLOOR)
            assert k == shares

    @pytest.mark.parametrize("n_probe, forks", [(1, 0), (2, 1), (3, 2), (7, 2)])
    def test_each_share_but_the_first_is_forked(self, tmp_path, n_probe, forks):
        tensor = _tensor(n_probe, 7, 2, seed=n_probe)
        with forked_shares(), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            save_scores_csv(tensor, tmp_path / "scores.csv")
        assert fork.call_count == forks
        assert (tmp_path / "scores.csv").read_bytes() == scores_to_csv(tensor).encode()

    def test_a_forked_save_of_rows_wider_than_a_block(self, tmp_path):
        tensor = _tensor(3, 1000, 5, seed=3)  # 5,000 cells a row
        with forked_shares(), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            save_scores_csv(tensor, tmp_path / "scores.csv")
        assert fork.call_count == 2
        assert (tmp_path / "scores.csv").read_bytes() == scores_to_csv(tensor).encode()

    @pytest.mark.parametrize("shape", [(3, 1000, 5), (40, 40, 5), (1, 1, 1)])
    def test_each_block_holds_whole_probe_rows(self, shape):
        # at most _BLOCK_CELLS cells, unless one row holds more
        n_probe, n_gallery, n_trials = shape
        row_cells = n_gallery * n_trials
        rows = 0
        for block in matching._row_blocks(_tensor(*shape), range(n_probe)):
            lines = block.decode().splitlines()
            assert len(lines) % row_cells == 0
            assert len(lines) <= max(matching._BLOCK_CELLS, row_cells)
            assert lines[0].startswith(f"{rows},0,0,")
            rows += len(lines) // row_cells
        assert rows == n_probe

    def test_a_tensor_below_the_floor_never_forks(self, tmp_path):
        tensor = _tensor(300, 300, 1)  # 90,000 cells
        with mock.patch("facedct.shares.usable_cpus", lambda: 64), \
                mock.patch.object(os, "fork") as fork:
            save_scores_csv(tensor, tmp_path / "scores.csv")
        fork.assert_not_called()
        assert (tmp_path / "scores.csv").read_bytes() == scores_to_csv(tensor).encode()

    @pytest.mark.parametrize("call", ["fork", "pipe"])
    @pytest.mark.parametrize("fails", [1, 2])
    def test_a_worker_that_cannot_start_leaves_its_rows_to_the_caller(self, tmp_path, call, fails):
        # call ``fails`` of os.fork or os.pipe fails, as with no process or
        # file descriptor to be had; the caller formats the rows of that
        # share and of the next
        tensor = _tensor(7, 7, 2, seed=5)
        real, calls = getattr(os, call), []

        def failing():
            calls.append(call)
            if len(calls) == fails:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real()

        with forked_shares(), mock.patch.object(os, call, failing):
            save_scores_csv(tensor, tmp_path / "scores.csv")
        assert len(calls) == fails
        assert (tmp_path / "scores.csv").read_bytes() == scores_to_csv(tensor).encode()
        assert same_tensor(load_scores_csv(tmp_path / "scores.csv"), tensor)

    def test_a_threaded_caller_forks_with_warnings_as_errors(self, tmp_path):
        # from Python 3.12, os.fork in a process with more than one thread
        # issues a DeprecationWarning; as an error it is dropped inside
        # os.fork, which still returns the worker's pid for it to be reaped.
        # The featurize workers also multiply matrices (dct2) after the fork.
        tensor, done = _tensor(3, 3, 1), threading.Event()
        generate_dataset(SynthSpec(3, 1, 0.5, seed=1, width=8, height=8), tmp_path / "data")
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        subjects = {s: [tmp_path / "data" / manifest[s][0]] for s in manifest}
        probes = Gallery._of_subjects(["s0", "s1", "s2"], [1] * 3, "gray", np.eye(3))
        gallery = Gallery._of_subjects(["s0", "s1", "s2"], [1] * 3, "gray", np.ones((3, 3)))
        features = extract_subject_features(subjects, ("gray",), 10, 8)["gray"].matrix
        scores = build_score_tensor(probes, gallery, "mse").scores
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            with forked_shares(), warnings.catch_warnings(), \
                    mock.patch.object(os, "fork", wraps=os.fork) as fork:
                warnings.simplefilter("error")
                save_scores_csv(tensor, tmp_path / "scores.csv")
                shared_features = extract_subject_features(subjects, ("gray",), 10, 8)["gray"]
                shared_scores = build_score_tensor(probes, gallery, "mse").scores
        finally:
            done.set()
            thread.join()
        assert fork.call_count == 6
        assert (tmp_path / "scores.csv").read_bytes() == scores_to_csv(tensor).encode()
        assert shared_features.matrix.tobytes() == features.tobytes()
        assert shared_scores.tobytes() == scores.tobytes()

    def test_a_worker_that_fails_fails_the_save(self, tmp_path):
        tensor = _tensor(3, 3, 1)
        parent, real_row_blocks = os.getpid(), matching._row_blocks

        def row_blocks(tensor, rows):  # fails in a worker only
            if os.getpid() != parent:
                raise MemoryError("no memory in the worker")
            return real_row_blocks(tensor, rows)

        with forked_shares(), mock.patch.object(matching, "_row_blocks", row_blocks):
            with pytest.raises(OSError, match=r"rows 1-1 exited with code 1$"):
                save_scores_csv(tensor, tmp_path / "scores.csv")
        # no scores.csv, no temporary file, and no worker left
        assert [p.name for p in tmp_path.iterdir()] == ["scores.npy"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_write_that_fails_midway_reaps_the_workers_first(self, tmp_path, monkeypatch):
        tensor = _tensor(3, 3, 1)
        real_fork, real_write_chunks = os.fork, errors._write_chunks
        workers = []

        def fork():
            pid = real_fork()
            workers.extend([pid] if pid else [])
            return pid

        def write_chunks(target, chunks):  # the CSV's write fails after its first chunk
            if not target.name.startswith(".scores.csv"):
                return real_write_chunks(target, chunks)
            real_write_chunks(target, [next(iter(chunks))])
            raise OSError("no space left on device")

        monkeypatch.setattr(errors, "_write_chunks", write_chunks)
        with forked_shares(), mock.patch.object(os, "fork", fork):
            with pytest.raises(OSError, match="no space"):
                save_scores_csv(tensor, tmp_path / "scores.csv")
        assert len(workers) == 2
        for pid in workers:  # already reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert [p.name for p in tmp_path.iterdir()] == ["scores.npy"]
