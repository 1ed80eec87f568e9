"""PNM parsing/writing, channel handling, resize, normalization."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facedct import imageio
from facedct.errors import MismatchError
from facedct.imageio import (
    ManifestError,
    PnmError,
    PnmHeaderError,
    PnmMaxvalError,
    PnmTruncatedError,
    PnmUnsupportedMagicError,
    RasterImage,
    normalize,
    read_pnm,
    resize_bilinear,
    select_channel,
    to_luminance,
    write_pnm,
)
from facedct.synth import SynthSpec, generate_dataset

from manifest_reference import load_manifest


def _natural_key(name: str) -> tuple:
    return tuple(int(p) if p.isdigit() else p for p in re.split(r"(\d+)", name))


def build_manifest_from_tree(root: Path) -> dict[str, list[Path]]:
    """Scan ``root``, treating each subdirectory as a subject.

    Image files (*.pgm, *.ppm, *.pnm) are ordered by natural numeric sort,
    so "2.pgm" precedes "10.pgm".
    """
    manifest: dict[str, list[Path]] = {}
    for sub in sorted((d for d in root.iterdir() if d.is_dir()), key=lambda d: _natural_key(d.name)):
        files = [f for f in sub.iterdir() if f.suffix.lower() in (".pgm", ".ppm", ".pnm")]
        if files:
            manifest[sub.name] = sorted(files, key=lambda f: _natural_key(f.name))
    if not manifest:
        raise ManifestError(f"no subject directories with PNM images under {root}")
    return manifest


def gray(w, h, samples, maxval=255):
    return RasterImage(w, h, 1, maxval, samples)


def rgb(w, h, samples, maxval=255):
    return RasterImage(w, h, 3, maxval, samples)


class TestReadPnm:
    def test_p5_hand_encoded(self):
        img = read_pnm(b"P5\n2 2\n255\n" + bytes([0, 255, 17, 34]))
        assert (img.width, img.height, img.channels, img.maxval) == (2, 2, 1, 255)
        assert img.samples.reshape(-1).tolist() == [0, 255, 17, 34]

    def test_p6_hand_encoded(self):
        img = read_pnm(b"P6\n1 1\n255\n" + bytes([255, 255, 255]))
        assert (img.width, img.height, img.channels, img.maxval) == (1, 1, 3, 255)
        assert img.samples.reshape(-1).tolist() == [255, 255, 255]

    def test_zero_dimension_rejected(self):
        with pytest.raises(PnmHeaderError):
            read_pnm(b"P5\n0 0\n255\n")

    def test_header_comments_skipped(self):
        data = b"P5\n# a comment\n2 1 # trailing\n# another\n255\n" + bytes([9, 8])
        img = read_pnm(data)
        assert img.samples.reshape(-1).tolist() == [9, 8]

    def test_two_byte_big_endian_samples(self):
        img = read_pnm(b"P5\n1 1\n65535\n" + bytes([0x80, 0x00]))
        assert img.maxval == 65535
        assert img.samples.reshape(-1).tolist() == [32768]

    @pytest.mark.parametrize("magic", [b"P1", b"P2", b"P3", b"P4", b"P7"])
    def test_unsupported_magic(self, magic):
        with pytest.raises(PnmUnsupportedMagicError):
            read_pnm(magic + b"\n1 1\n255\n\x00")

    def test_garbage_magic(self):
        with pytest.raises(PnmHeaderError):
            read_pnm(b"GIF89a....")

    def test_truncated_body(self):
        with pytest.raises(PnmTruncatedError):
            read_pnm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))

    def test_maxval_out_of_range(self):
        with pytest.raises(PnmMaxvalError):
            read_pnm(b"P5\n1 1\n70000\n\x00\x00")
        with pytest.raises(PnmMaxvalError):
            read_pnm(b"P5\n1 1\n0\n\x00")

    def test_non_numeric_header(self):
        with pytest.raises(PnmHeaderError):
            read_pnm(b"P5\nab 2\n255\n\x00\x00")

    def test_header_field_past_the_int_digit_limit(self):
        # int() refuses a string of more than 4,300 digits with a bare ValueError
        with pytest.raises(PnmHeaderError, match="^width field of 5000 digits is too large$"):
            read_pnm(b"P5\n" + b"9" * 5000 + b" 1\n255\n\x00")

    def test_sample_above_maxval(self):
        with pytest.raises(PnmError):
            read_pnm(b"P5\n1 1\n100\n" + bytes([200]))


@st.composite
def raster_images(draw):
    w = draw(st.integers(1, 8))
    h = draw(st.integers(1, 8))
    channels = draw(st.sampled_from([1, 3]))
    maxval = draw(st.sampled_from([1, 7, 255, 256, 65535]))
    n = w * h * channels
    samples = draw(st.lists(st.integers(0, maxval), min_size=n, max_size=n))
    return RasterImage(w, h, channels, maxval, samples)


@given(raster_images())
@settings(max_examples=100)
def test_pnm_round_trip(img):
    assert read_pnm(write_pnm(img)) == img


class TestLuminance:
    def test_white_stays_white(self):
        img = rgb(1, 1, [255, 255, 255])
        assert to_luminance(img).samples.reshape(-1).tolist() == [255]

    def test_pure_red_weight(self):
        img = rgb(1, 1, [100, 0, 0])
        assert to_luminance(img).samples.reshape(-1).tolist() == [30]

    def test_equal_channels_fixed_point(self):
        img = rgb(1, 1, [10, 10, 10])
        assert to_luminance(img).samples.reshape(-1).tolist() == [10]

    def test_all_gray_levels_are_fixed_points(self):
        # weights sum to 1, so (v,v,v) -> v for every 8-bit level
        vals = np.arange(256)
        img = rgb(256, 1, np.stack([vals] * 3, axis=-1))
        out = to_luminance(img)
        assert out.samples.reshape(-1).tolist() == vals.tolist()

    def test_gray_input_rejected(self):
        with pytest.raises(MismatchError):
            to_luminance(gray(1, 1, [5]))

    def test_pointwise_commutes_with_pixel_permutation(self):
        rng = np.random.default_rng(4)
        samples = rng.integers(0, 256, size=(6, 5, 3))
        img = rgb(5, 6, samples)
        perm = rng.permutation(30)
        flat = samples.reshape(30, 3)[perm]
        img_perm = rgb(5, 6, flat.reshape(6, 5, 3))
        lum = to_luminance(img).samples.reshape(30)
        lum_perm = to_luminance(img_perm).samples.reshape(30)
        assert np.array_equal(lum[perm], lum_perm)


class TestSelectChannel:
    def test_projection(self):
        img = rgb(1, 1, [7, 8, 9])
        assert select_channel(img, "g").samples.reshape(-1).tolist() == [8]

    def test_zero_case(self):
        img = rgb(1, 1, [0, 0, 0])
        assert select_channel(img, "r").samples.reshape(-1).tolist() == [0]

    def test_two_pixel_projection(self):
        img = rgb(2, 1, [1, 2, 3, 4, 5, 6])
        assert select_channel(img, "b").samples.reshape(-1).tolist() == [3, 6]

    def test_gray_input_rejected(self):
        with pytest.raises(MismatchError):
            select_channel(gray(1, 1, [1]), "r")

    def test_bad_channel_name(self):
        with pytest.raises(ValueError):
            select_channel(rgb(1, 1, [1, 2, 3]), "y")


class TestNormalize:
    def test_endpoints(self):
        img = gray(2, 1, [255, 0])
        assert normalize(img).reshape(-1).tolist() == [1.0, 0.0]

    def test_sixteen_bit(self):
        img = gray(1, 1, [32768], maxval=65535)
        assert normalize(img)[0, 0] == pytest.approx(0.5000076295109483, abs=0)

    def test_rgb_rejected(self):
        with pytest.raises(MismatchError):
            normalize(rgb(1, 1, [1, 2, 3]))


class TestResizeBilinear:
    def test_constant_plane_stays_constant(self):
        plane = np.full((3, 5), 0.37)
        out = resize_bilinear(plane, 7, 2)
        assert out.shape == (2, 7)
        assert np.allclose(out, 0.37, atol=1e-15)

    def test_2x2_to_4x4_hand_values(self):
        plane = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = resize_bilinear(plane, 4, 4)
        expected_row = [0.0, 0.25, 0.75, 1.0]
        for r in range(4):
            assert out[r].tolist() == pytest.approx(expected_row, abs=1e-12)

    def test_identity_resize(self):
        rng = np.random.default_rng(1)
        plane = rng.random((5, 9))
        out = resize_bilinear(plane, 9, 5)
        assert np.abs(out - plane).max() < 1e-12

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equal_size_gives_back_the_interpolated_bits(self, h, w, seed):
        plane = np.random.default_rng(seed).standard_normal((h, w))
        plane[0, 0] = 0.0
        out = resize_bilinear(plane, w, h)
        # the interpolation the equal-size shortcut skips
        ylo, yhi, wy = imageio._axis_interp(h, h)
        xlo, xhi, wx = imageio._axis_interp(w, w)
        rows = plane[ylo, :] * (1.0 - wy)[:, None] + plane[yhi, :] * wy[:, None]
        interpolated = rows[:, xlo] * (1.0 - wx) + rows[:, xhi] * wx
        assert out.tobytes() == interpolated.tobytes() == plane.tobytes()
        assert out is not plane

    @pytest.mark.parametrize("n_in, n_out", [(1, 1), (1, 5), (5, 1), (64, 64), (80, 64), (7, 96)])
    def test_cached_axis_interp_equals_an_uncached_call(self, n_in, n_out):
        cached = imageio._axis_interp(n_in, n_out)
        assert imageio._axis_interp(n_in, n_out) is cached
        fresh = imageio._axis_interp.__wrapped__(n_in, n_out)
        for a, b in zip(cached, fresh):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not a.flags.writeable

    @given(
        st.integers(1, 6), st.integers(1, 6), st.integers(1, 9), st.integers(1, 9),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_preserves_range(self, h, w, oh, ow, seed):
        plane = np.random.default_rng(seed).random((h, w))
        out = resize_bilinear(plane, ow, oh)
        assert out.min() >= plane.min() - 1e-12
        assert out.max() <= plane.max() + 1e-12

    def test_rejects_zero_output(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.ones((2, 2)), 0, 2)


class TestManifest:
    def test_round_trip(self, tmp_path):
        # a manifest generate_dataset wrote, into a directory and through a
        # symlink to another: the same bytes, each entry relative to it
        spec = SynthSpec(2, 2, 0.0, seed=1, width=4, height=4)
        plain = generate_dataset(spec, tmp_path / "a")
        (tmp_path / "b").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "b", target_is_directory=True)
        linked = generate_dataset(spec, tmp_path / "link")
        assert linked.read_bytes() == plain.read_bytes()
        for mpath in (plain, linked):
            loaded = load_manifest(mpath)
            assert {k: [p.name for p in v] for k, v in loaded.items()} == {
                "s000": ["01.pgm", "02.pgm"],
                "s001": ["01.pgm", "02.pgm"],
            }
            assert all(p.parent == mpath.parent / s for s, v in loaded.items() for p in v)

    def test_a_symlinked_subject_directory_is_listed_by_its_link(self, tmp_path):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (tmp_path / "set").mkdir()
        (tmp_path / "set" / "s000").symlink_to(elsewhere, target_is_directory=True)
        mpath = generate_dataset(SynthSpec(1, 2, 0.0, seed=1, width=4, height=4), tmp_path / "set")
        assert json.loads(mpath.read_text()) == {"s000": ["s000/01.pgm", "s000/02.pgm"]}
        assert sorted(p.name for p in elsewhere.iterdir()) == ["01.pgm", "02.pgm"]

    def test_tree_scan_uses_natural_order(self, tmp_path):
        sub = tmp_path / "s1"
        sub.mkdir()
        for name in ["10.pgm", "2.pgm", "1.pgm"]:
            (sub / name).write_bytes(b"")
        manifest = build_manifest_from_tree(tmp_path)
        assert [p.name for p in manifest["s1"]] == ["1.pgm", "2.pgm", "10.pgm"]

    def test_empty_tree_rejected(self, tmp_path):
        with pytest.raises(ManifestError):
            build_manifest_from_tree(tmp_path)

    def test_malformed_manifest(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(["not", "a", "dict"]))
        with pytest.raises(ManifestError):
            load_manifest(f)
        f.write_text(json.dumps({"s1": []}))
        with pytest.raises(ManifestError):
            load_manifest(f)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (["not", "a", "dict"], "manifest must be a non-empty JSON object"),
            ({}, "manifest must be a non-empty JSON object"),
            ({"s1": ["1.pgm"], "s2": "2.pgm"}, "subject 's2': expected a non-empty list of paths"),
            ({"s1": ["1.pgm", 2]}, "subject 's1': paths must be strings without NUL"),
            ({"s1": ["1\0.pgm"]}, "subject 's1': paths must be strings without NUL"),
            ({"\ud800": ["1.pgm"]}, "subject '\\ud800': an id cannot hold a lone surrogate"),
        ],
        ids=["list", "empty", "not-a-list", "not-a-string", "nul", "surrogate"],
    )
    def test_malformed_manifest_names_it(self, tmp_path, payload, message):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(payload))
        with pytest.raises(ManifestError) as info:
            load_manifest(f)
        assert (type(info.value), str(info.value)) == (ManifestError, f"{f}: {message}")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_write_json_refuses_what_json_cannot_hold(tmp_path, value):
    with pytest.raises(ValueError, match="JSON compliant"):
        imageio.write_json(tmp_path / "x.json", {"a": {"b": [value]}})
    assert not (tmp_path / "x.json").exists()


class TestRasterImageInvariants:
    def test_sample_count_checked(self):
        with pytest.raises(ValueError):
            RasterImage(2, 2, 1, 255, [1, 2, 3])

    def test_sample_range_checked(self):
        with pytest.raises(ValueError):
            RasterImage(1, 1, 1, 100, [101])

    def test_samples_are_read_only(self):
        img = gray(1, 1, [3])
        with pytest.raises(ValueError):
            img.samples[0, 0, 0] = 5
