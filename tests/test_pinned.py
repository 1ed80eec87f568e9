"""A pinned ``.npy`` is parsed in place, in the one layout every save wrote:
both pinned tables, the gallery (with or without its text) and the score
file, load a pinned array as ``np.load``'s reader would when it is a format
1.0, C-order ``'<f8'`` array of the expected shape followed by exactly its
values, and reject any other ``.npy`` naming it.  The loaded array is a
read-only view of the bytes that were hashed."""

import hashlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from facedct.errors import DataError
from facedct.gallery import Gallery, load_gallery, save_gallery
from facedct.features import FeatureVector
from facedct.matching import ScoreTensor, load_scores_csv, save_scores_csv

from byte_edit_strategy import apply_byte_edits, byte_edits


class GalleryTable:
    """A saved 3-subject gallery: 6 templates of dim 5."""

    npy, manifest, shape, want = "templates.npy", "gallery.json", (6, 5), (6, 5)
    text = True

    def __init__(self, directory):
        self.directory = directory
        gallery = Gallery()
        rng = np.random.default_rng(4)
        for subject in ["a", "b", "c"]:
            for _ in range(2):
                gallery.enroll(subject, FeatureVector(rng.standard_normal(5), "gray"))
        save_gallery(gallery, directory, text=self.text)
        self.array = np.array(gallery.matrix)

    def load(self):
        return load_gallery(self.directory)[0].matrix

    def valid(self, array):
        return True


class TextlessGalleryTable(GalleryTable):
    """The same gallery saved without vectors.csv."""

    text = False


class ScoreTable:
    """A saved score file: 2 probe subjects, 3 gallery subjects, 2 trials."""

    npy, manifest, shape, want = "scores.npy", "scores.json", (2, 3, 2), (2, 3, None)

    def __init__(self, directory):
        self.directory = directory
        self.array = np.arange(12.0).reshape(self.shape) / 7
        save_scores_csv(ScoreTensor(("a", "b"), ("a", "b", "c"), self.array), directory / "scores.csv")

    def load(self):
        return load_scores_csv(self.directory / "scores.csv").scores

    def valid(self, array):
        return array.ndim == 3 and array.shape[2] >= 1 and (array.size == 0 or array.min() >= 0)


TABLES = [GalleryTable, TextlessGalleryTable, ScoreTable]
TABLE_IDS = ["gallery", "textless-gallery", "scores"]
FORMATS = Path(__file__).parent / "formats"
FROZEN_NPY = sorted(FORMATS.glob("*/*.npy"))


def pin(table, data):
    """Replace the table's .npy by ``data`` and record its digest, as a save would."""
    (table.directory / table.npy).write_bytes(data)
    path = table.directory / table.manifest
    manifest = json.loads(path.read_text())
    manifest["sha256"][table.npy] = hashlib.sha256(data).hexdigest()
    path.write_text(json.dumps(manifest))


def npy_bytes(array, **save_kwargs):
    out = io.BytesIO()
    np.save(out, array, **save_kwargs)
    return out.getvalue()


def read_array_load(table, data):
    """What the table loads from the pinned ``data`` when the .npy is read
    by ``np.lib.format.read_array`` into a copy, with the same checks: the
    array, or None when the load is to be rejected.  Only a format 1.0
    header of a C-order array followed by exactly its values is read."""
    stream = io.BytesIO(data)
    try:
        if np.lib.format.read_magic(stream) != (1, 0):
            return None
        array = np.lib.format.read_array(io.BytesIO(data), allow_pickle=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # read_array has given them once
            fortran_order = np.lib.format.read_array_header_1_0(stream)[1]
    except Exception:  # ValueError; or a crash, such as a shape past int64
        return None
    if fortran_order or len(data) != stream.tell() + array.nbytes:
        return None
    if array.dtype != np.dtype("<f8") or array.ndim != len(table.want) or not all(
        n in (None, m) for m, n in zip(array.shape, table.want)
    ):
        return None
    if not np.isfinite(array).all() or not table.valid(array):
        return None
    return array


def outcome(load):
    """What ``load()`` returns or raises, and the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load()
        except Exception as exc:
            result = exc
    return result, [str(w.message) for w in caught]


def assert_loads_as_read_array(table, data):
    """Pin ``data``; the table loads the array ``read_array`` gives, bit for
    bit, or rejects it with a DataError naming the .npy when that load is
    rejected, with the same warnings either way."""
    pin(table, data)
    expected, expected_warnings = outcome(lambda: read_array_load(table, data))
    loaded, loaded_warnings = outcome(table.load)
    assert loaded_warnings == expected_warnings
    if expected is None:
        assert isinstance(loaded, DataError) and str(table.directory / table.npy) in str(loaded)
        return
    assert isinstance(loaded, np.ndarray), loaded
    assert loaded.dtype == expected.dtype and loaded.shape == expected.shape
    assert loaded.tobytes() == expected.tobytes()
    assert not loaded.flags.writeable


@pytest.mark.parametrize("table_type", TABLES, ids=TABLE_IDS)
class TestPinnedNpyIsParsedInPlace:
    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda data: data[:-8], r"corrupt {npy}: \d+ bytes follow its header, not \d+$"),
            (lambda data: data[:100], "corrupt {npy}: EOF: reading array header"),
            (lambda data: data[:6] + b"\x04" + data[7:],
             r"corrupt {npy}: format version \(4, 0\), not \(1, 0\)$"),
            (lambda data: b"not an array", "corrupt {npy}: "),
        ],
        ids=["short-data", "short-header", "version", "not-npy"],
    )
    def test_short_or_malformed_pinned_npy_is_corrupt(self, tmp_path, table_type, edit, reason):
        table = table_type(tmp_path)
        data = edit((tmp_path / table.npy).read_bytes())
        assert read_array_load(table, data) is None
        pin(table, data)
        npy = re.escape(str(tmp_path / table.npy))
        with pytest.raises(DataError, match="^" + reason.format(npy=npy)):
            table.load()

    def test_object_dtype_is_corrupt(self, tmp_path, table_type):
        table = table_type(tmp_path)
        pin(table, npy_bytes(table.array.astype(object), allow_pickle=True))
        with pytest.raises(DataError, match=re.escape(
            f"{tmp_path / table.npy} holds a |O array of shape {table.shape}, not <f8 of shape"
        )):
            table.load()

    def test_fortran_order_is_corrupt(self, tmp_path, table_type):
        # np.load reads it; no save has written it
        table = table_type(tmp_path)
        data = npy_bytes(np.asfortranarray(table.array))
        assert b"'fortran_order': True" in data
        pin(table, data)
        with pytest.raises(DataError, match=re.escape(
            f"corrupt {tmp_path / table.npy}: its values are in Fortran order, not C order"
        )):
            table.load()
        assert_loads_as_read_array(table, data)

    @pytest.mark.parametrize("version", [(2, 0), (3, 0)])
    def test_a_later_format_version_is_corrupt(self, tmp_path, table_type, version):
        # np.load reads it; no save has written it
        table = table_type(tmp_path)
        out = io.BytesIO()
        np.lib.format.write_array(out, table.array, version=version)
        data = out.getvalue()
        assert np.array_equal(np.load(io.BytesIO(data)), table.array)
        pin(table, data)
        with pytest.raises(DataError, match=re.escape(
            f"corrupt {tmp_path / table.npy}: format version {version}, not (1, 0)"
        )):
            table.load()
        assert_loads_as_read_array(table, data)

    @pytest.mark.parametrize(
        "make",
        [lambda m: m[:-1], lambda m: m.reshape(-1), lambda m: m.reshape(*m.shape, 1), lambda m: m.T],
        ids=["rows", "1-d", "3-d", "transposed"],
    )
    def test_wrong_shape_is_rejected_or_loads_as_read_array(self, tmp_path, table_type, make):
        table = table_type(tmp_path)
        assert_loads_as_read_array(table, npy_bytes(np.ascontiguousarray(make(table.array))))

    def test_a_shape_past_int64_is_corrupt(self, tmp_path, table_type):
        # np.lib.format.read_array cannot count its elements (OverflowError)
        table = table_type(tmp_path)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (10**24,) + table.shape[1:]}
        )
        data = header.getvalue() + table.array.tobytes()
        assert read_array_load(table, data) is None
        pin(table, data)
        with pytest.raises(DataError, match=re.escape(
            f"{tmp_path / table.npy} holds a <f8 array of shape ({10**24}, "
        )):
            table.load()

    @pytest.mark.parametrize(
        "tail", [b"", b"\0" * 8, b"more bytes"], ids=["exact", "padding", "trailing"]
    )
    def test_the_array_is_a_read_only_view_of_the_pinned_bytes(self, tmp_path, table_type, tail):
        # bytes after the values, which np.load ignores, are no save's
        table = table_type(tmp_path)
        data = (tmp_path / table.npy).read_bytes() + tail
        pin(table, data)
        if tail:
            with pytest.raises(DataError, match=re.escape(
                f"corrupt {tmp_path / table.npy}: {8 * table.array.size + len(tail)} bytes "
                f"follow its header, not {8 * table.array.size}"
            )):
                table.load()
            assert_loads_as_read_array(table, data)
            return
        loaded = table.load()
        assert not loaded.flags.writeable
        base = loaded
        while isinstance(base, np.ndarray):
            base = base.base
        assert base == data
        assert np.array_equal(loaded.view(np.uint64), table.array.view(np.uint64))
        assert_loads_as_read_array(table, data)


@pytest.mark.parametrize("table_type", TABLES, ids=TABLE_IDS)
@given(edits=byte_edits)
@settings(max_examples=150, deadline=None)
def test_byte_edited_pinned_npy_loads_as_read_array(table_type, edits):
    with tempfile.TemporaryDirectory() as tmp:
        table = table_type(Path(tmp))
        data = apply_byte_edits((table.directory / table.npy).read_bytes(), edits)
        assert_loads_as_read_array(table, data)


def assert_the_one_layout(data):
    """``data`` is a format 1.0 ``.npy`` of a C-order ``'<f8'`` array,
    followed by exactly its values: the one layout the reader accepts."""
    stream = io.BytesIO(data)
    assert np.lib.format.read_magic(stream) == (1, 0)
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
    assert (fortran_order, dtype.str) == (False, "<f8")
    assert len(data) == stream.tell() + 8 * math.prod(shape)


@pytest.mark.parametrize("npy", FROZEN_NPY, ids=[p.parent.name for p in FROZEN_NPY])
def test_every_frozen_npy_has_the_one_layout(npy):
    assert len(FROZEN_NPY) == 5
    assert_the_one_layout(npy.read_bytes())


def test_every_save_writes_the_one_layout(tmp_path):
    for table_type in (GalleryTable, TextlessGalleryTable):
        directory = tmp_path / table_type.__name__
        directory.mkdir()
        assert_the_one_layout((directory / table_type(directory).npy).read_bytes())
    for shape in [(1, 1, 1), (3, 3, 1), (40, 40, 5)]:
        subjects = [f"s{j:02d}" for j in range(shape[0])]
        scores = np.random.default_rng(6).random(shape)
        save_scores_csv(ScoreTensor(subjects, subjects, scores), tmp_path / "scores.csv")
        assert_the_one_layout((tmp_path / "scores.npy").read_bytes())
