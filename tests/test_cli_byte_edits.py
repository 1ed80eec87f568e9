"""Byte edits to the files a command reads (a config, a manifest, a saved
gallery's files, a PGM or PPM probe image): whatever the edit, the command
exits with a documented code and one line of stderr with that code's
prefix, and never with 3, the code of an internal error.  For a manifest,
the line names it, or an image it lists with that image's subject; for a
gallery, a file of the gallery's directory."""

import argparse
import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facedct.cli import load_config, main
from facedct.synth import SynthSpec, generate_dataset

from byte_edit_strategy import apply_byte_edits, byte_edits

PREFIXES = {1: "validation error: ", 2: "data error: "}
GALLERY_FILES = ("gallery.json", "vectors.csv", "templates.npy")
#: the files of a gallery enrolled without ``--text``
TEXTLESS_GALLERY_FILES = ("gallery.json", "templates.npy")
#: a gallery written before gallery.json held digests: it loads from
#: vectors.csv, and nothing pins the fields of gallery.json
UNPINNED_GALLERY = Path(__file__).parent / "formats" / "gallery-no-sha256"
UNPINNED_GALLERY_FILES = ("gallery.json", "vectors.csv")
SAMPLES = 2


def run(argv):
    """Exit code and stderr of one quiet call of ``main``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_one_documented_line(code, err, codes):
    assert code in codes
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(PREFIXES[code]) and err.count("\n") == 1 and err.endswith("\n")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """3 subjects x 2 gray 8x8 samples, a config that enrolls sample 1 at
    window 8, and the gallery it enrolls, with its text in ``gal`` and
    without it in ``textless``."""
    root = tmp_path_factory.mktemp("tiny")
    generate_dataset(SynthSpec(3, SAMPLES, 0.3, seed=2, width=8, height=8), root / "data")
    config = {"manifest": "data/manifest.json", "train_indices": [1], "test_indices": [2],
              "window": 8, "dim": 4, "output_dir": "out"}
    (root / "config.json").write_text(json.dumps(config))
    enroll = ["enroll", "--config", str(root / "config.json"), "--out"]
    assert run([*enroll, str(root / "gal"), "--text"]) == (0, "")
    assert run([*enroll, str(root / "textless")]) == (0, "")
    return root


def enroll(config: Path):
    with tempfile.TemporaryDirectory() as out:
        return run(["enroll", "--config", str(config), "--out", out])


@given(edits=byte_edits)
@example(edits=[("insert", 10**6, b"[" * 500, 2)])  # nested past the JSON parser's limit
@example(edits=[("insert", 89, b"[" * 500, 1)])  # a manifest name too long for any file
@example(edits=[("insert", 89, b"\\u0000", 1)])  # a NUL in the manifest path
@example(edits=[("insert", 5, b"\\u0000", 1)])  # a NUL in output_dir
@settings(max_examples=60, deadline=None)
def test_enroll_with_an_edited_config(tiny, edits):
    config = tiny / "edited-config.json"
    config.write_bytes(apply_byte_edits((tiny / "config.json").read_bytes(), edits))
    code, err = enroll(config)
    assert_one_documented_line(code, err, (0, 1, 2))
    if code == 2:
        # a valid config naming a file that is no manifest, or a sample the
        # dataset lacks
        cfg = load_config(config, argparse.Namespace())
        other = cfg.manifest.resolve() != (tiny / "data" / "manifest.json").resolve()
        assert other or max(cfg.train_indices) > SAMPLES


#: the prefix of exit 1 when an output cannot be written
OUTPUT_PREFIX = "output error: "


def run_edited_config(tiny, edits, command, *argv):
    """Exit code and config of ``command`` run with the tiny config edited
    by ``edits``, from an empty working directory, where a config without
    ``output_dir`` puts ``results``; its one line of stderr has a documented
    prefix.  No piece of ``byte_edits`` is a '/', so an edited output
    directory stays under the config's directory or its parent."""
    config = tiny / f"edited-{command}-config.json"
    config.write_bytes(apply_byte_edits((tiny / "config.json").read_bytes(), edits))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            code, err = run([command, "--config", str(config), *argv])
        finally:
            os.chdir(cwd)
    if code == 1 and err.startswith(OUTPUT_PREFIX):
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert_one_documented_line(code, err, (0, 1, 2))
    return code, config


#: edits of the tiny config's output_dir, "out", its last value
OUTPUT_DIR_EDITS = [
    [("insert", 5, b"\\u0000", 1)],  # a NUL
    [("insert", 5, b"\\ud800", 1)],  # a lone surrogate, which names no file
    [("delete", 5, b" ", 3)],  # "", the default
    [("replace", 5, b".", 3)],  # "...", a directory name
    [("delete", 5, b" ", 3), ("insert", 2, b"config.json", 1)],  # a file, not a directory
]


@given(edits=byte_edits)
@example(edits=[("insert", 10**6, b"[" * 500, 2)])
@example(edits=OUTPUT_DIR_EDITS[0])
@example(edits=OUTPUT_DIR_EDITS[1])
@example(edits=OUTPUT_DIR_EDITS[2])
@example(edits=OUTPUT_DIR_EDITS[3])
@example(edits=OUTPUT_DIR_EDITS[4])
@settings(max_examples=40, deadline=None)
def test_evaluate_with_an_edited_config(tiny, edits):
    code, config = run_edited_config(tiny, edits, "evaluate", "--gallery", str(tiny / "gal"))
    if code == 2:
        # a valid config naming a file that is no manifest, or a sample the
        # dataset lacks
        cfg = load_config(config, argparse.Namespace())
        other = cfg.manifest.resolve() != (tiny / "data" / "manifest.json").resolve()
        assert other or max(cfg.test_indices) > SAMPLES


@given(edits=byte_edits)
@example(edits=[("insert", 10**6, b"[" * 500, 2)])
@example(edits=OUTPUT_DIR_EDITS[0])
@example(edits=OUTPUT_DIR_EDITS[1])
@example(edits=OUTPUT_DIR_EDITS[2])
@example(edits=OUTPUT_DIR_EDITS[3])
@example(edits=OUTPUT_DIR_EDITS[4])
@settings(max_examples=40, deadline=None)
def test_fuse_eval_with_an_edited_config(tiny, edits):
    code, config = run_edited_config(tiny, edits, "fuse-eval", "--fusion", "sum:gray")
    if code == 2:
        cfg = load_config(config, argparse.Namespace())
        other = cfg.manifest.resolve() != (tiny / "data" / "manifest.json").resolve()
        assert other or max(cfg.train_indices + cfg.test_indices) > SAMPLES


@given(edits=byte_edits)
@example(edits=[("insert", 10**6, b"[" * 500, 2)])
@example(edits=[("insert", 24, b"\\u0000", 1)])  # a NUL in the path of an enrolled image
@example(edits=[("insert", 24, b"\\ud800", 1)])  # a lone surrogate, which names no file
@example(edits=[("insert", 4, b"\\ud800", 1)])  # one in a subject id, which no UTF-8 text holds
@settings(max_examples=60, deadline=None)
def test_enroll_with_an_edited_manifest(tiny, edits):
    # beside the original, so the image paths it lists resolve the same way
    manifest = tiny / "data" / "edited-manifest.json"
    manifest.write_bytes(apply_byte_edits((tiny / "data" / "manifest.json").read_bytes(), edits))
    config = tiny / "edited-manifest-config.json"
    config.write_text(json.dumps({"manifest": str(manifest), "train_indices": [1],
                                  "test_indices": [2], "window": 8, "dim": 4}))
    code, err = enroll(config)
    assert_one_documented_line(code, err, (0, 2))
    if code == 2 and str(manifest) not in err:
        # the manifest was read, so the fault is in an image it lists
        listed = json.loads(manifest.read_bytes())
        named = (f"data error: subject {s!r}, image {manifest.parent / p}: "
                 for s, paths in listed.items() for p in paths)
        assert any(err.startswith(prefix) for prefix in named)


def identify_with_an_edited_file(enrolled, files, name, edits, probe):
    """Exit code and stderr of ``identify`` of ``probe`` on a copy of the
    gallery directory ``enrolled`` whose file ``name`` has the byte edits
    ``edits``: one documented line, which on exit 2 names a gallery file of
    the copy, maybe one it lacks."""
    with tempfile.TemporaryDirectory() as tmp:
        gallery = Path(tmp)
        for file in files:
            shutil.copyfile(enrolled / file, gallery / file)
        (gallery / name).write_bytes(apply_byte_edits((gallery / name).read_bytes(), edits))
        code, err = run(["identify", "--gallery", str(gallery), "--image", str(probe)])
    assert_one_documented_line(code, err, (0, 2))
    if code == 2:
        assert any(str(gallery / file) in err for file in GALLERY_FILES)
    return code, err


#: the key "meta" of gallery.json renamed "meta ", a key no save writes
RENAMED_META_KEY = [("insert", 412, b" ", 1)]


@given(name=st.sampled_from(GALLERY_FILES), edits=byte_edits)
@example(name="gallery.json", edits=[("insert", 10**6, b"[" * 500, 2)])
@example(name="gallery.json", edits=RENAMED_META_KEY)
@settings(max_examples=90, deadline=None)
def test_identify_with_an_edited_gallery_file(tiny, name, edits):
    code, err = identify_with_an_edited_file(tiny / "gal", GALLERY_FILES, name, edits,
                                             tiny / "data" / "s001" / "02.pgm")
    if (name, edits) == ("gallery.json", RENAMED_META_KEY):
        assert code == 2 and "gallery.json: its key 'meta ' is written by no save" in err


#: the key "sha256" of a text-less gallery.json renamed "sha256 ", which
#: leaves it the digest keys of no save
RENAMED_DIGEST_KEY = [("insert", 182, b" ", 1)]


@given(name=st.sampled_from(TEXTLESS_GALLERY_FILES), edits=byte_edits)
@example(name="gallery.json", edits=[("insert", 10**6, b"[" * 500, 2)])
@example(name="templates.npy", edits=[("delete", 1, b" ", 1)])  # no text to fall back on
@example(name="gallery.json", edits=RENAMED_DIGEST_KEY)
@settings(max_examples=60, deadline=None)
def test_identify_with_an_edited_textless_gallery_file(tiny, name, edits):
    code, err = identify_with_an_edited_file(tiny / "textless", TEXTLESS_GALLERY_FILES, name,
                                             edits, tiny / "data" / "s001" / "02.pgm")
    if name == "templates.npy" and code == 2:
        assert "no text copy (vectors.csv) to fall back on" in err
    if (name, edits) == ("gallery.json", RENAMED_DIGEST_KEY):
        assert code == 2 and "gallery.json: its digest keys match no save's" in err


@given(name=st.sampled_from(UNPINNED_GALLERY_FILES), edits=byte_edits)
@example(name="gallery.json", edits=[("insert", 10**6, b"[" * 500, 2)])
@example(name="gallery.json", edits=[("insert", 217, b"0", 1)])  # subject s001 renamed s0010
# s002's second coefficient ~1e158: its squared distance is past the largest double
@example(name="vectors.csv", edits=[("insert", 58, b"1" * 25, 3), ("replace", 58, b"1" * 25, 3)])
@settings(max_examples=60, deadline=None)
def test_identify_with_an_edited_unpinned_gallery_file(name, edits):
    identify_with_an_edited_file(UNPINNED_GALLERY, UNPINNED_GALLERY_FILES, name, edits,
                                 UNPINNED_GALLERY / "probe.pgm")


@pytest.fixture(scope="module")
def rgb(tmp_path_factory):
    """3 subjects x 2 RGB 8x8 samples, and the gallery of their luminance
    that enroll makes from sample 1 at window 8."""
    root = tmp_path_factory.mktemp("rgb")
    generate_dataset(SynthSpec(3, SAMPLES, 0.3, seed=2, width=8, height=8, placement="rgb"),
                     root / "data")
    config = {"manifest": "data/manifest.json", "train_indices": [1], "test_indices": [2],
              "window": 8, "dim": 4, "channel": "y"}
    (root / "config.json").write_text(json.dumps(config))
    enrolled = run(["enroll", "--config", str(root / "config.json"), "--out", str(root / "gal")])
    assert enrolled == (0, "")
    return root


@given(kind=st.sampled_from(["pgm", "ppm"]), edits=byte_edits)
@example(kind="pgm", edits=[("insert", 72, b"1" * 25, 1)])  # a width past int64
@example(kind="pgm", edits=[("replace", 68, b"0", 3)])  # maxval 0
@example(kind="ppm", edits=[("delete", 1, b" ", 1)])  # one byte short
@settings(max_examples=120, deadline=None)
def test_identify_with_an_edited_probe_image(tiny, rgb, kind, edits):
    root = tiny if kind == "pgm" else rgb
    image = root / "data" / f"s001/02.{kind}"
    with tempfile.TemporaryDirectory() as tmp:
        probe = Path(tmp) / image.name
        probe.write_bytes(apply_byte_edits(image.read_bytes(), edits))
        code, err = run(["identify", "--gallery", str(root / "gal"), "--image", str(probe)])
    assert_one_documented_line(code, err, (0, 2))
