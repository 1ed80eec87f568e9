"""DCT transform, zigzag traversal, feature extraction, CSV round trip, and
the one-pass featurize of an image file against the per-image chain."""

import csv
import io
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facedct import features
from facedct.errors import DataError
from facedct.features import (
    FeatureVector,
    _zigzag_flat,
    dct2,
    extract_features,
    feature_matrix_from_csv,
    feature_matrix_to_csv,
    idct2,
    zigzag_order,
)
from facedct.imageio import (
    normalize,
    read_pnm,
    select_channel,
    to_luminance,
)
from facedct.pipeline import extract_subject_features, featurize_image
from facedct.synth import SynthSpec, generate_dataset

from byte_edit_strategy import apply_byte_edits, byte_edits
from manifest_reference import load_manifest
from resize_reference import reference_resize

# The per-vector CSV writer and reader: the reference that
# feature_matrix_to_csv and feature_matrix_from_csv are tested against.


def feature_to_row(vec: FeatureVector) -> list[str]:
    """CSV row: subjectId, sourceChannel, dim, then coefficients at 17 sig digits."""
    return [
        vec.subject_id if vec.subject_id is not None else "",
        vec.source_channel,
        str(vec.dim),
        *(f"{c:.17g}" for c in vec.coeffs),
    ]


def feature_from_row(row: list[str]) -> FeatureVector:
    """Inverse of :func:`feature_to_row`; round-trip exact for 64-bit floats."""
    if len(row) < 4:
        raise DataError(f"feature row too short ({len(row)} fields)")
    subject = row[0] or None
    channel = row[1]
    try:
        dim = int(row[2])
        coeffs = np.array([float(v) for v in row[3:]], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"malformed feature row: {exc}") from exc
    if coeffs.size != dim:
        raise DataError(f"feature row declares dim={dim} but carries {coeffs.size} coefficients")
    try:
        return FeatureVector(coeffs, channel, subject)
    except ValueError as exc:
        raise DataError(f"malformed feature row: {exc}") from exc


def features_to_csv(vectors: list[FeatureVector]) -> str:
    """Rows of :func:`feature_to_row` through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for vec in vectors:
        writer.writerow(feature_to_row(vec))
    return buf.getvalue()


def features_from_csv(text: str) -> list[FeatureVector]:
    """Row-by-row reader of :func:`features_to_csv`."""
    reader = csv.reader(io.StringIO(text))
    return [feature_from_row(row) for row in reader if row]


def dct2_direct(plane):
    """O(N^4) evaluation of the orthonormal DCT-II definition (test oracle)."""
    h, w = plane.shape
    out = np.zeros((h, w))
    for u in range(h):
        for v in range(w):
            su = math.sqrt(1.0 / h) if u == 0 else math.sqrt(2.0 / h)
            sv = math.sqrt(1.0 / w) if v == 0 else math.sqrt(2.0 / w)
            acc = 0.0
            for y in range(h):
                for x in range(w):
                    acc += (
                        plane[y, x]
                        * math.cos(math.pi * (2 * y + 1) * u / (2 * h))
                        * math.cos(math.pi * (2 * x + 1) * v / (2 * w))
                    )
            out[u, v] = su * sv * acc
    return out


class TestDct2:
    def test_2x2_impulse(self):
        spectrum = dct2(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert np.allclose(spectrum, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_constant_plane_is_dc_only(self):
        c = 0.73
        spectrum = dct2(np.full((6, 6), c))
        assert spectrum[0, 0] == pytest.approx(c * 6, abs=1e-12)
        rest = spectrum.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() < 1e-12

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (4, 4), (8, 8)])
    def test_matches_direct_definition(self, shape):
        plane = np.random.default_rng(hash(shape) % 2**32).random(shape)
        assert np.abs(dct2(plane) - dct2_direct(plane)).max() < 1e-12

    def test_round_trip_random_8x8(self):
        plane = np.random.default_rng(8).random((8, 8))
        assert np.abs(idct2(dct2(plane)) - plane).max() < 1e-9

    def test_idct2_of_zero_is_zero(self):
        assert np.abs(idct2(np.zeros((5, 5)))).max() == 0.0

    def test_idct2_of_dc_is_constant(self):
        spectrum = np.zeros((4, 4))
        spectrum[0, 0] = 2.0
        plane = idct2(spectrum)
        assert np.allclose(plane, 2.0 / 4.0, atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_parseval(self, seed):
        plane = np.random.default_rng(seed).random((7, 5)) - 0.5
        energy_in = float((plane**2).sum())
        energy_out = float((dct2(plane) ** 2).sum())
        assert energy_out == pytest.approx(energy_in, rel=1e-9)

    @given(st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        p, q = rng.random((6, 6)), rng.random((6, 6))
        lhs = dct2(a * p + b * q)
        rhs = a * dct2(p) + b * dct2(q)
        assert np.abs(lhs - rhs).max() < 1e-9


class TestZigzag:
    def test_size_one(self):
        assert zigzag_order(1) == ((0, 0),)

    def test_size_two(self):
        assert zigzag_order(2) == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_size_three(self):
        assert zigzag_order(3) == (
            (0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2), (1, 2), (2, 1), (2, 2),
        )

    @given(st.integers(1, 64))
    @settings(max_examples=64, deadline=None)
    def test_bijection(self, n):
        order = zigzag_order(n)
        assert len(order) == n * n
        assert len(set(order)) == n * n
        assert all(0 <= r < n and 0 <= c < n for r, c in order)

    def test_index_arrays_are_a_cached_read_only_prefix(self):
        flat = _zigzag_flat(8, 10)
        assert _zigzag_flat(8, 10) is flat
        assert [divmod(i, 8) for i in flat.tolist()] == list(zigzag_order(8)[:10])
        assert not flat.flags.writeable

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            zigzag_order(0)

    def test_every_prefix_is_the_flattened_order(self):
        for n in range(1, 41):
            rows, cols = np.array(zigzag_order(n)).T
            flat = (rows * n + cols).astype(np.intp)
            for dim in range(1, n * n + 1):
                got = _zigzag_flat.__wrapped__(n, dim)
                assert got.dtype == np.intp
                assert got.tobytes() == flat[:dim].tobytes(), (n, dim)

    def test_a_prefix_builds_no_whole_order(self, monkeypatch):
        # zigzag_order(4096) would build and keep 16.7M cells
        before = zigzag_order.cache_info()
        monkeypatch.setattr(features, "zigzag_order", None)
        got = _zigzag_flat.__wrapped__(4096, 100)
        assert zigzag_order.cache_info() == before
        # the first 100 cells lie on the first 14 anti-diagonals, as at n = 40
        rows, cols = np.array(zigzag_order(40)[:100]).T
        assert got.tolist() == (rows * 4096 + cols).tolist()


class TestExtractFeatures:
    def test_constant_plane_dc_only(self):
        vec = extract_features(np.full((16, 16), 0.4), dim=100)
        assert vec.dim == 100
        assert vec.coeffs[0] != 0.0
        assert np.abs(vec.coeffs[1:]).max() < 1e-12

    def test_full_dim_is_energy_preserving_permutation(self):
        plane = np.random.default_rng(3).random((6, 6))
        vec = extract_features(plane, dim=36)
        assert float((vec.coeffs**2).sum()) == pytest.approx(float((plane**2).sum()), rel=1e-9)
        spectrum = np.sort(dct2(plane).reshape(-1))
        assert np.allclose(np.sort(vec.coeffs), spectrum, atol=0)

    def test_pure_cosine_mode_lands_at_its_zigzag_slot(self):
        n = 8
        cols = np.arange(n)
        mode = np.cos(np.pi * (2 * cols + 1) * 3 / (2 * n))
        plane = np.tile(mode, (n, 1))
        vec = extract_features(plane, dim=n * n)
        slot = zigzag_order(n).index((0, 3))
        dominant = int(np.argmax(np.abs(vec.coeffs)))
        assert dominant == slot
        others = np.delete(np.abs(vec.coeffs), slot)
        assert others.max() < 1e-9 * abs(vec.coeffs[slot])

    def test_deterministic_bit_for_bit(self):
        plane = np.random.default_rng(9).random((32, 32))
        a = extract_features(plane.copy(), dim=100)
        b = extract_features(plane.copy(), dim=100)
        assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("dim", [0, -1, 65])
    def test_dim_out_of_range(self, dim):
        with pytest.raises(ValueError):
            extract_features(np.ones((8, 8)), dim=dim)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            extract_features(np.ones((4, 8)), dim=4)


class TestFeatureCsv:
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=100)
    def test_row_round_trip_is_bit_exact(self, coeffs):
        vec = FeatureVector(np.array(coeffs), "g", "subj,with,commas")
        back = feature_from_row(feature_to_row(vec))
        assert back == vec

    def test_csv_multi_vector_round_trip(self):
        rng = np.random.default_rng(5)
        vecs = [
            FeatureVector(rng.standard_normal(7), "y", f"s{i}") for i in range(4)
        ]
        assert features_from_csv(features_to_csv(vecs)) == vecs

    def test_dim_mismatch_detected(self):
        with pytest.raises(DataError):
            feature_from_row(["s", "gray", "3", "1.0", "2.0"])

    def test_bad_channel_detected(self):
        with pytest.raises(DataError):
            feature_from_row(["s", "purple", "1", "1.0"])

    def test_non_numeric_detected(self):
        with pytest.raises(DataError):
            feature_from_row(["s", "gray", "1", "abc"])


class TestFeatureMatrixCsv:
    """``feature_matrix_from_csv`` against the row-by-row reader as oracle."""

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet=',"\n ab', max_size=5),
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=3,
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100)
    def test_matches_row_oracle_bit_for_bit(self, rows):
        vecs = [FeatureVector(np.array(c), "b", s) for s, c in rows]
        text = features_to_csv(vecs)
        labels, channel, matrix = feature_matrix_from_csv(text)
        oracle = features_from_csv(text)
        assert labels == [v.subject_id or "" for v in oracle]
        assert channel == "b"
        assert matrix.shape == (len(oracle), 3)
        assert matrix.tobytes() == np.array([v.coeffs for v in oracle]).tobytes()

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet=',"\n ab', max_size=5),
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=3,
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100)
    def test_writer_matches_row_writer(self, rows):
        vecs = [FeatureVector(np.array(c), "r", s) for s, c in rows]
        labels = [s for s, _ in rows]
        matrix = np.array([c for _, c in rows])
        assert feature_matrix_to_csv(labels, "r", matrix) == features_to_csv(vecs)

    def test_empty_text(self):
        labels, channel, matrix = feature_matrix_from_csv("")
        assert labels == [] and channel is None and matrix.shape == (0, 0)

    @pytest.mark.parametrize(
        "text",
        [
            "s,gray,1\n",
            "s,gray,3,1.0,2.0\n",
            "s,gray,x,1.0\n",
            "s,purple,1,1.0\n",
            "s,gray,2,1.0,abc\n",
            "s,gray,2,1.0,\n",
            "s,gray,2,1.0,inf\n",
            '"s,gray,1,1.0\n',
        ],
    )
    def test_rejects_what_the_row_reader_rejects(self, text):
        with pytest.raises(DataError):
            features_from_csv(text)
        with pytest.raises(DataError):
            feature_matrix_from_csv(text)

    @pytest.mark.parametrize(
        "text", ["a,gray,1,1.0\nb,gray,2,1.0,2.0\n", "a,gray,1,1.0\nb,r,1,2.0\n"]
    )
    def test_rejects_mixed_dims_and_channels(self, text):
        with pytest.raises(DataError):
            feature_matrix_from_csv(text)

    @pytest.mark.parametrize(
        "text",
        [
            "a,gray,1,1.0\nb,gray,x,2.0\n",  # bad dim
            "a,gray,1,1.0\nb,gray,1,2.0,3.0\n",  # extra field
            '"a\nb",gray,1,1.0\nc,gray,1,2.0,3.0\n',  # row 2 starts on line 3
            "a,gray,1,1.0\n\nb,gray,1,2.0,3.0\n",  # a blank line is not a row
        ],
    )
    def test_bad_row_is_named_by_its_one_based_row(self, text):
        with pytest.raises(DataError, match=r"^malformed feature row 2: "):
            feature_matrix_from_csv(text)

    @given(byte_edits)
    @settings(max_examples=400, deadline=None)
    def test_byte_edits_load_or_raise_data_error(self, edits):
        labels = ["a", 'q"x', "c\rd", "e,f"]
        matrix = np.arange(12.0).reshape(4, 3) / 7
        data = apply_byte_edits(feature_matrix_to_csv(labels, "gray", matrix).encode(), edits)
        try:
            feature_matrix_from_csv(data)
        except DataError:
            pass


class TestFeatureVector:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureVector(np.array([1.0, np.nan]), "gray")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FeatureVector(np.array([]), "gray")

    def test_coeffs_read_only(self):
        vec = FeatureVector(np.array([1.0]), "gray")
        with pytest.raises(ValueError):
            vec.coeffs[0] = 2.0


# The per-image chain that featurize_image replaced, one throw-away object
# per step: the reference that the one-pass path is tested against.


def reference_featurize(path, channels, dim, window):
    """``(len(channels), dim)`` coefficients of one image file: read_pnm ->
    to_luminance or select_channel -> normalize -> the broadcast resize
    formula, interpolating at every size -> dct2[zigzag], with the int64
    samples of a RasterImage at every step."""
    image = read_pnm(Path(path).read_bytes())
    rows, cols = np.array(zigzag_order(window)[:dim]).T
    out = []
    for channel in channels:
        if channel == "gray":
            gray = image
        elif channel == "y":
            gray = to_luminance(image)
        else:
            gray = select_channel(image, channel)
        out.append(dct2(reference_resize(normalize(gray), window, window))[rows, cols])
    return np.array(out)


@st.composite
def pnm_image(draw, color, window):
    """A P6 (``color``) or P5 image's bytes: maxval 1, 7, 255, 256, 1000 or
    65535, a header comment or none, and a size equal to the window or not."""
    maxval = draw(st.sampled_from([1, 7, 255, 256, 1000, 65535]))
    if draw(st.booleans()):
        width = height = window
    else:
        width, height = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    depth = 3 if color else 1
    samples = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, maxval, width * height * depth, endpoint=True
    )
    samples[: draw(st.integers(0, 2))] = maxval  # the extreme sample, at times
    comment = draw(st.sampled_from([b"", b"# a comment\n"]))
    header = f"P{6 if color else 5}\n".encode() + comment + f"{width} {height}\n{maxval}\n".encode()
    return header + samples.astype(">u2" if maxval > 255 else np.uint8).tobytes()


@st.composite
def featurize_requests(draw):
    """One to four images of one kind, every channel of :data:`CHANNELS` it
    allows in a drawn order, a window and a dim in [1, window**2]."""
    color = draw(st.booleans())
    window = draw(st.integers(1, 12))
    images = draw(st.lists(pnm_image(color, window), min_size=1, max_size=4))
    channels = draw(st.permutations(["r", "g", "b", "y"] if color else ["gray"]))
    return images, tuple(channels), draw(st.integers(1, window * window)), window


class TestFeaturizeImage:
    @given(featurize_requests())
    @settings(max_examples=150, deadline=None)
    def test_one_pass_matches_the_per_image_chain_bit_for_bit(self, request):
        images, channels, dim, window = request
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / f"{n}.pnm" for n in range(len(images))]
            for path, data in zip(paths, images):
                path.write_bytes(data)
            expected = [reference_featurize(p, channels, dim, window) for p in paths]
            for path, want in zip(paths, expected):
                got = featurize_image(path, channels, dim, window)
                assert (got.shape, got.dtype) == ((len(channels), dim), np.float64)
                assert got.tobytes() == want.tobytes()
            # the images split between two subjects, "b" listed first
            subjects = {"b": paths[1:], "a": paths[:1]} if len(paths) > 1 else {"a": paths}
            galleries = extract_subject_features(subjects, channels, dim, window)
            order = [paths.index(p) for s in sorted(subjects) for p in subjects[s]]
            for i, channel in enumerate(channels):
                want = np.array([expected[n][i] for n in order])
                assert galleries[channel].matrix.tobytes() == want.tobytes()

    def test_featurizing_a_split_holds_its_matrices_and_a_few_planes(self, tmp_path):
        # 20 x 24 RGB images, so every channel plane is also resized
        spec = SynthSpec(12, 5, 0.4, seed=3, width=20, height=24, placement="rgb")
        manifest = load_manifest(generate_dataset(spec, tmp_path))
        channels, dim, window = ("r", "g", "b", "y"), 100, 16
        extract_subject_features(manifest, channels, dim, window)  # fill the caches
        tracemalloc.start()
        try:
            extract_subject_features(manifest, channels, dim, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_images = sum(len(paths) for paths in manifest.values())
        matrices = len(channels) * n_images * dim * 8
        image_plane = 20 * 24 * 8
        # holding every image of the split in any form, even its 60 files of
        # 1,453 bytes, would exceed this
        assert peak <= matrices + 12 * image_plane
