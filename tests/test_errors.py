"""The one write path, ``write_atomic`` of bytes or of a chunk iterable,
and the one way a caught error is raised again naming its source,
``naming``, with the exact class and message of each of its uses."""

import argparse
import hashlib
import io
import json

import numpy as np
import pytest

from facedct.cli import load_config
from facedct.errors import (
    DataError, MismatchError, ValidationError, naming, parse_json, read_bytes, write_atomic,
)
from facedct.features import FeatureVector
from facedct.fusion import FusionSpec, apply_fusion
from facedct.gallery import Gallery, GalleryCorruptError, load_gallery, save_gallery
from facedct.imageio import PnmTruncatedError
from facedct.matching import ScoreTensor, build_score_tensor
from facedct.pinned import pinned_array
from facedct.pipeline import featurize_image


def chunks_then_raise(chunks, error):
    yield from chunks
    raise error


class TestWriteAtomic:
    @pytest.mark.parametrize(
        "data", [b"", b"whole", [b"a", b"", memoryview(b"bc"), b"d" * 70_000]],
        ids=["empty", "bytes", "chunks"],
    )
    def test_writes_and_returns_the_digest_of_the_bytes(self, tmp_path, data):
        expected = data if isinstance(data, bytes) else b"".join(data)
        path = tmp_path / "new" / "out.bin"
        assert write_atomic(path, iter(data) if isinstance(data, list) else data) == (
            hashlib.sha256(expected).hexdigest()
        )
        assert path.read_bytes() == expected
        assert [p.name for p in path.parent.iterdir()] == ["out.bin"]

    @pytest.mark.parametrize(
        "error, raised",
        [(ValueError("bad chunk"), ValueError), (OSError("no space left"), OSError)],
        ids=["value-error", "os-error"],
    )
    def test_a_chunk_iterable_that_raises_leaves_the_old_file(self, tmp_path, error, raised):
        path = tmp_path / "out.bin"
        chunks = [b"old ", b"file"]
        assert write_atomic(path, chunks) == hashlib.sha256(b"old file").hexdigest()
        with pytest.raises(raised, match=str(error)):
            write_atomic(path, chunks_then_raise([b"new ", b"part"], error))
        assert path.read_bytes() == b"old file"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_a_chunk_iterable_that_raises_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            write_atomic(tmp_path / "out.bin", chunks_then_raise([b"part"], ValueError()))
        assert list(tmp_path.iterdir()) == []


def test_a_path_that_no_file_can_have_cannot_be_read(tmp_path):
    # a lone surrogate, which open() cannot encode
    path = tmp_path / "\ud800.pgm"
    with pytest.raises(DataError) as info:
        read_bytes(path, DataError)
    assert str(info.value) == (
        f"cannot read {path}: 'utf-8' codec can't encode character '\\ud800' in position "
        f"{len(str(tmp_path)) + 1}: surrogates not allowed"
    )


class TestNaming:
    def test_a_caught_error_is_raised_as_the_error_class_naming_the_source(self):
        cause = ValueError("bad value")
        with pytest.raises(ValidationError) as info:
            with naming("config x", ValidationError, ValueError):
                raise cause
        assert (type(info.value), str(info.value)) == (ValidationError, "config x: bad value")
        assert info.value.__cause__ is cause

    def test_without_a_source_the_message_is_kept(self):
        with pytest.raises(ValidationError) as info:
            with naming(None, ValidationError, (TypeError, ValueError)):
                raise TypeError("bad type")
        assert (type(info.value), str(info.value)) == (ValidationError, "bad type")

    def test_without_an_error_class_the_caught_class_is_kept(self, tmp_path):
        with pytest.raises(MismatchError) as info:
            with naming(tmp_path / "a.npy"):
                raise MismatchError("dims differ")
        assert (type(info.value), str(info.value)) == (
            MismatchError, f"{tmp_path / 'a.npy'}: dims differ"
        )

    @pytest.mark.parametrize(
        "error", [TypeError("t"), KeyError("k"), ValidationError("v")], ids=str
    )
    def test_an_error_it_does_not_catch_passes_through(self, error):
        with pytest.raises(type(error)) as info:
            with naming("source", DataError, (ValueError, DataError)):
                raise error
        assert info.value is error

    def test_a_block_that_raises_nothing_runs_whole(self):
        ran = []
        with naming("source", DataError, ValueError):
            ran.append(1)
            ran.append(2)
        assert ran == [1, 2]


def a_config(tmp_path, **fields):
    """A config beside an (empty) manifest, with ``fields`` besides."""
    (tmp_path / "m.json").write_text("{}")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"manifest": "m.json", **fields}))
    return path


class TestEachUseNamesItsSource:
    """The exact class and message of each use of ``naming`` that no command
    test pins."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"window": 8, "dim": 100}, "config fields 'window' and 'dim': "
             "8 must be an integer in [1, 4096] and dim 100 in [1, window²]"),
            ({"metrics": ["mse", "foo"]},
             "config field 'metrics': metric must be one of ('mse', 'mad'), got 'foo'"),
            ({"dcf": {"c_miss": -1}}, "config field 'dcf': costs -1.0, 1.0 must be finite and >= 0"),
            ({"window": True}, "config field 'window': expected int, got True"),
            ({"dcf": {"c_miss": 10**400}},
             "config field 'dcf.c_miss': int too large to convert to float"),
            ({"train_indices": [1], "test_indices": [1]},
             "bad split: train and test index sets must be disjoint"),
        ],
        ids=["window-and-dim", "metrics", "dcf", "type", "overflow", "split"],
    )
    def test_a_config_value_names_its_field(self, tmp_path, fields, message):
        with pytest.raises(ValidationError) as info:
            load_config(a_config(tmp_path, **fields), argparse.Namespace())
        assert (type(info.value), str(info.value)) == (ValidationError, message)

    def test_a_fusion_names_its_spec(self):
        mse = ScoreTensor(("a",), ("a",), np.ones((1, 1, 1)), "mse")
        mad = ScoreTensor(("a",), ("a",), np.ones((1, 1, 1)), "mad")
        with pytest.raises(ValidationError) as info:
            apply_fusion(FusionSpec("sum", ("r", "g")), {"r": mse, "g": mad})
        assert str(info.value) == "fusion spec R+G: fused tensors mix metrics 'mad' and 'mse'"

    def test_a_probe_names_its_subject_and_keeps_its_class(self):
        gallery = Gallery._of_subjects(["a"], [1], "gray", np.ones((1, 2)))
        probes = {"a": [FeatureVector(np.ones(2)), FeatureVector(np.ones(3))]}
        with pytest.raises(MismatchError) as info:
            build_score_tensor(probes, gallery, "mse")
        assert (type(info.value), str(info.value)) == (
            MismatchError, "probe subject 'a': template dim 3 != gallery dim 2"
        )

    def test_an_image_of_no_subject_names_its_path_and_keeps_its_class(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n8 8\n255\n")
        with pytest.raises(PnmTruncatedError) as info:
            featurize_image(bad, ("gray",), 4, 8)
        assert (type(info.value), str(info.value)) == (
            PnmTruncatedError, f"image {bad}: pixel body has 0 bytes, expected 64"
        )

    def test_a_corrupt_vectors_csv_names_it(self, tmp_path):
        # a gallery.json without digests, saved before they were, reads vectors.csv
        gallery = Gallery._of_subjects(["a"], [1], "gray", np.ones((1, 2)))
        save_gallery(gallery, tmp_path, {"window": 8}, text=True)
        record = json.loads((tmp_path / "gallery.json").read_text())
        del record["sha256"], record["fields_sha256"]
        (tmp_path / "gallery.json").write_text(json.dumps(record))
        (tmp_path / "vectors.csv").write_bytes(b"a,gray,2,0.5\n")
        with pytest.raises(GalleryCorruptError) as info:
            load_gallery(tmp_path)
        assert str(info.value) == (
            f"corrupt {tmp_path / 'vectors.csv'}: feature row 1 declares dim=2 but carries "
            "1 coefficients"
        )

    def test_a_corrupt_npy_names_it(self, tmp_path):
        npy = io.BytesIO()
        np.save(npy, np.ones(3))
        data = npy.getvalue()
        with pytest.raises(DataError) as info:
            pinned_array(tmp_path / "x.npy", data[:6] + b"\x04" + data[7:], (None,), DataError,
                         "score")
        assert str(info.value) == (
            f"corrupt {tmp_path / 'x.npy'}: "
            "format version (4, 0), not (1, 0)"
        )

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            (b"[" * 100_000,
             "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
        ],
        ids=["not-json", "nested"],
    )
    def test_unreadable_json_names_its_source(self, data, reason):
        with pytest.raises(ValidationError) as info:
            parse_json(data, "config c.json", ValidationError)
        assert (type(info.value), str(info.value)) == (
            ValidationError, f"unreadable config c.json: {reason}"
        )
