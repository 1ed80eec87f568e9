"""Every on-disk layout the readers accept, frozen in ``tests/formats/`` as
the commit that introduced it wrote it (see its README): today's readers
load each with the bits its writer recorded, and today's writers still
write the bytes of the current layouts."""

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from facedct.cli import main
from facedct.gallery import GalleryCorruptError, load_gallery, save_gallery
from facedct.matching import load_scores_csv, save_scores_csv
from facedct.synth import SynthSpec, generate_dataset

FORMATS = Path(__file__).parent / "formats"
GALLERIES = sorted(p.name for p in FORMATS.glob("gallery-*"))
SCORES = sorted(p.name for p in FORMATS.glob("scores-*"))
#: the fixture whose bytes each writer writes today
SAVED_GALLERY = {True: "gallery-fields-sha256", False: "gallery-textless"}
SAVED_SCORES = "scores-v1"


def expected(name):
    return json.loads((FORMATS / name / "expected.json").read_text())


def bits_sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


def fixture_copy(name, tmp_path):
    """A copy of the fixture ``name``, so that no run can write into it."""
    return Path(shutil.copytree(FORMATS / name, tmp_path / name))


def run(argv, stream="stdout"):
    """Exit code and stdout, or the other ``stream``, of one call of ``main``."""
    out = io.StringIO()
    with getattr(contextlib, f"redirect_{stream}")(out):
        code = main(argv)
    return code, out.getvalue()


def det_export(scores, out):
    """The bytes ``det-export`` writes to ``out`` for the score file ``scores``."""
    assert run(["det-export", "--scores", str(scores), "--out", str(out)])[0] == 0
    return out.read_bytes()


def same_files(a, b, names):
    return {n: (a / n).read_bytes() for n in names} == {n: (b / n).read_bytes() for n in names}


def test_every_layout_has_a_fixture():
    assert GALLERIES == ["gallery-fields-sha256", "gallery-no-sha256", "gallery-sha256",
                         "gallery-textless", "gallery-torn"]
    assert SCORES == ["scores-csv", "scores-v1"]


@pytest.mark.parametrize("name", GALLERIES)
def test_gallery_layout_loads_with_its_writers_bits(name, tmp_path):
    want = expected(name)
    directory = fixture_copy(name, tmp_path)
    gallery, meta = load_gallery(directory)
    assert gallery.subject_ids == want["ids"]
    assert np.diff(gallery.offsets).tolist() == want["counts"]
    assert (gallery.feature_dim, gallery.channel, meta) == (want["dim"], want["channel"], want["meta"])
    assert bits_sha256(gallery.matrix) == want["matrix_sha256"]
    probe = directory / "probe.pgm"
    assert run(["identify", "--gallery", str(directory), "--image", str(probe)]) == (
        0, want["identify_stdout"])


@pytest.mark.parametrize("name", SCORES)
def test_score_layout_loads_with_its_writers_bits(name, tmp_path):
    want = expected(name)
    directory = fixture_copy(name, tmp_path)
    tensor = load_scores_csv(directory / "scores.csv")
    assert list(tensor.probe_subjects) == want["probe_subjects"]
    assert list(tensor.gallery_subjects) == want["gallery_subjects"]
    assert (list(tensor.scores.shape), tensor.metric) == (want["shape"], want["metric"])
    assert bits_sha256(tensor.scores) == want["scores_sha256"]
    # det-export of the fixture and of the same tensor saved today agree
    save_scores_csv(tensor, tmp_path / "fresh.csv")
    assert det_export(directory / "scores.csv", tmp_path / "det.csv") == det_export(
        tmp_path / "fresh.csv", tmp_path / "fresh-det.csv")


@pytest.mark.parametrize("text", [True, False], ids=["text", "textless"])
@pytest.mark.parametrize("name", GALLERIES)
def test_gallery_writer_writes_the_current_layout(name, text, tmp_path):
    gallery, meta = load_gallery(FORMATS / name)
    save_gallery(gallery, tmp_path, meta, text=text)
    current = FORMATS / SAVED_GALLERY[text]
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in current.iterdir() if p.name not in
                             ("expected.json", "probe.pgm"))
    assert same_files(tmp_path, current, written)


@pytest.mark.parametrize("name", SCORES)
def test_score_writer_writes_the_current_layout(name, tmp_path):
    save_scores_csv(load_scores_csv(FORMATS / name / "scores.csv"), tmp_path / "scores.csv")
    current = FORMATS / SAVED_SCORES
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["scores.csv", "scores.json", "scores.npy"]
    assert same_files(tmp_path, current, written)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """The data and config the fixtures were written from (see the README)."""
    root = tmp_path_factory.mktemp("formats")
    generate_dataset(SynthSpec(3, 2, 0.1, seed=2, width=8, height=8), root / "data")
    config = {"manifest": "data/manifest.json", "train_indices": [1], "test_indices": [2],
              "window": 8, "dim": 4}
    (root / "config.json").write_text(json.dumps(config))
    return root


@pytest.mark.parametrize("name", GALLERIES)
def test_evaluate_scores_each_gallery_layout_as_its_writer_did(name, dataset, tmp_path):
    out = tmp_path / "out"
    argv = ["evaluate", "--config", str(dataset / "config.json"),
            "--gallery", str(fixture_copy(name, tmp_path)), "--out", str(out)]
    assert run(argv)[0] == 0
    assert bits_sha256(np.load(out / "scores.npy")) == expected(SAVED_SCORES)["scores_sha256"]
    assert same_files(out, FORMATS / SAVED_SCORES, ["scores.csv"])


def edit(path, old, new):
    """Replace the one ``old`` in the file ``path`` by ``new``."""
    data = path.read_bytes()
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, new))


#: a gallery fixture, edits that rename one of its digest keys, each
#: (file, old bytes, new bytes), and the complaint of the refusal.  Read as
#: the older layout its keys look like, the text-less gallery names a
#: vectors.csv it never had, the text is read without its digest, and a
#: renamed subject is trusted through templates.npy; the one renamed key
#: that leaves the digest keys of a save is refused as a key no save writes
RENAMED_KEYS = {
    "textless-sha256": ("gallery-textless", [("gallery.json", b'"sha256"', b'"sha256 "')],
                        "gallery.json"),
    "text-sha256": ("gallery-fields-sha256", [
        ("gallery.json", b'"sha256"', b'"sha256 "'),
        ("vectors.csv", b"s002,gray,4,3.7509803921568632", b"s002,gray,4,9.5"),
    ], "gallery.json"),
    "textless-fields-sha256": ("gallery-textless", [
        ("gallery.json", b'"fields_sha256"', b'"fields_sha256 "'),
        ("gallery.json", b'"s001"', b'"s001x"'),
    ], "gallery.json"),
    "text-fields-sha256": ("gallery-fields-sha256", [
        ("gallery.json", b'"fields_sha256"', b'"fields_sha256 "'),
        ("gallery.json", b'"s001"', b'"s001x"'),
    ], "key 'fields_sha256 '"),
}
COMPLAINTS = {
    "gallery.json": "{}: its digest keys match no save's (edited file)",
    **{f"key {key!r}": f"{{}}: its key {key!r} is written by no save (edited file)"
       for key in ("sha256 ", "fields_sha256 ", "meta ")},
}


def refusal(directory, edits, named):
    """Apply ``edits`` to the gallery ``directory``: ``load_gallery`` and
    ``identify`` refuse it with the complaint ``named`` of gallery.json."""
    for file, old, new in edits:
        edit(directory / file, old, new)
    complaint = COMPLAINTS[named].format(directory / "gallery.json")
    with pytest.raises(GalleryCorruptError) as info:
        load_gallery(directory)
    assert str(info.value) == complaint
    argv = ["identify", "--gallery", str(directory), "--image", str(directory / "probe.pgm")]
    assert run(argv, "stderr") == (2, f"data error: {complaint}\n")


@pytest.mark.parametrize("name, edits, named", RENAMED_KEYS.values(), ids=RENAMED_KEYS)
def test_a_renamed_digest_key_is_refused(name, edits, named, tmp_path):
    refusal(fixture_copy(name, tmp_path), edits, named)


#: a gallery fixture, edits that give its gallery.json a key no save writes,
#: and the complaint of the refusal.  Read with that key ignored, the
#: text-less gallery names a vectors.csv it never had, an edited text is
#: read without its digest (identify answers s000), and a window-8 gallery
#: is read at the default window of 64 (identify answers s001 at 842.88)
UNKNOWN_KEYS = {
    "textless-both-digests": ("gallery-textless", [
        ("gallery.json", b'"sha256"', b'"sha256 "'),
        ("gallery.json", b'"fields_sha256"', b'"fields_sha256 "'),
    ], "key 'sha256 '"),
    "text-sha256": ("gallery-sha256", [
        ("gallery.json", b'"sha256"', b'"sha256 "'),
        ("vectors.csv", b"s001,gray,4,4.0725490196078438", b"s001,gray,4,9.5"),
    ], "key 'sha256 '"),
    "meta": ("gallery-no-sha256", [("gallery.json", b'"meta"', b'"meta "')], "key 'meta '"),
}


@pytest.mark.parametrize("name, edits, named", UNKNOWN_KEYS.values(), ids=UNKNOWN_KEYS)
def test_a_key_no_save_writes_is_refused(name, edits, named, tmp_path):
    refusal(fixture_copy(name, tmp_path), edits, named)


def test_a_gallery_without_fields_sha256_reads_its_pinned_text(tmp_path):
    # templates.npy carries no labels, and no digest pins the fields it
    # would be read with, so the text is read and must match its digest
    directory = fixture_copy("gallery-sha256", tmp_path)
    edit(directory / "vectors.csv", b"s002,gray,4,3.7509803921568632", b"s002,gray,4,9.5")
    with pytest.raises(GalleryCorruptError, match="vectors.csv does not match its sha256"):
        load_gallery(directory)
