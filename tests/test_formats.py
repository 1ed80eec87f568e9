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
from facedct.gallery import load_gallery, save_gallery
from facedct.matching import load_scores_csv, save_scores_csv

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


def run(argv):
    """Exit code and stdout of one call of ``main``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
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
