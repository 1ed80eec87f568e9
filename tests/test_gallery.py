"""Enrollment, split rule, gallery persistence."""

import hashlib
import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facedct import errors
from facedct.errors import MismatchError
from facedct.features import FeatureVector, feature_matrix_from_csv
from facedct.gallery import (
    Gallery,
    GalleryCorruptError,
    GalleryError,
    GalleryVersionError,
    SplitError,
    SplitSpec,
    apply_split,
    load_gallery,
    load_samples,
    save_gallery,
    select_samples,
)
from facedct.imageio import ManifestError

from manifest_reference import load_manifest

ORL_SPLIT = SplitSpec.from_iterables(range(1, 6), range(6, 11))


def vec(values, channel="gray", subject=None):
    return FeatureVector(np.asarray(values, dtype=float), channel, subject)


def strip_digests(directory):
    """Make a saved gallery one written before gallery.json held digests."""
    path = directory / "gallery.json"
    manifest = json.loads(path.read_text())
    del manifest["sha256"], manifest["fields_sha256"]
    path.write_text(json.dumps(manifest, indent=1) + "\n")


def make_stale(directory):
    """Replace templates.npy by a valid array that gallery.json does not pin,
    so that the load reads vectors.csv."""
    npy = directory / "templates.npy"
    np.save(npy, np.load(npy) + 1.0)


def assert_csv_rejected(directory, reason):
    """Once templates.npy is stale, the edited vectors.csv is read and fails
    its digest; without the digests the vectors.csv check itself rejects it,
    for ``reason``."""
    make_stale(directory)
    with pytest.raises(GalleryCorruptError, match="does not match its sha256"):
        load_gallery(directory)
    strip_digests(directory)
    with pytest.raises(GalleryCorruptError, match=reason):
        load_gallery(directory)


def fail_write(monkeypatch, n):
    """Make the n-th file write (``errors._write_chunks``) write half its
    data and fail; returns the list of paths written to."""
    real_write_chunks = errors._write_chunks
    calls = []

    def write_chunks(path, chunks):
        calls.append(path)
        if len(calls) == n:
            data = b"".join(chunks)
            real_write_chunks(path, [data[: len(data) // 2]])
            raise OSError("no space left on device")
        return real_write_chunks(path, chunks)

    monkeypatch.setattr(errors, "_write_chunks", write_chunks)
    return calls


def make_manifest(n_subjects, n_samples):
    return {
        f"s{i:02d}": [Path(f"s{i:02d}/{j + 1}.pgm") for j in range(n_samples)]
        for i in range(n_subjects)
    }


class TestSplitSpec:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec.from_iterables([1, 2], [2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec.from_iterables([], [1])

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec.from_iterables([0], [1])


class TestApplySplit:
    def test_orl_protocol_five_five(self):
        train, test = apply_split(make_manifest(40, 10), ORL_SPLIT)
        assert all(len(v) == 5 for v in train.values())
        assert all(len(v) == 5 for v in test.values())
        assert sum(len(v) for v in test.values()) == 200

    def test_insufficient_samples_names_subject(self):
        manifest = make_manifest(1, 1)
        with pytest.raises(SplitError, match="s00"):
            apply_split(manifest, SplitSpec.from_iterables([1], [2]))

    def test_partition_is_disjoint_and_complete(self):
        manifest = make_manifest(3, 10)
        train, test = apply_split(manifest, ORL_SPLIT)
        for s in manifest:
            got = set(train[s]) | set(test[s])
            assert not set(train[s]) & set(test[s])
            assert got == set(manifest[s])

    def test_index_order_preserved(self):
        manifest = make_manifest(1, 10)
        train, _ = apply_split(manifest, SplitSpec.from_iterables([5, 1, 3], [2]))
        assert [p.name for p in train["s00"]] == ["1.pgm", "3.pgm", "5.pgm"]


class TestLoadSamples:
    def write(self, path, payload):
        path.write_text(json.dumps(payload))
        return path

    def test_it_selects_as_apply_split_does(self, tmp_path):
        listed = {s: [str(p) for p in paths] for s, paths in make_manifest(3, 10).items()}
        path = self.write(tmp_path / "manifest.json", listed)
        split = SplitSpec.from_iterables([5, 1, 3], [2, 10])
        train, test = load_samples(path, split.train_indices, split.test_indices)
        assert (train, test) == apply_split(load_manifest(path), split)
        assert train["s00"] == [tmp_path / "s00" / f"{i}.pgm" for i in (1, 3, 5)]
        assert load_samples(path) == []

    def test_a_bad_entry_of_an_unselected_sample_is_refused(self, tmp_path):
        path = self.write(tmp_path / "manifest.json", {"s1": ["1.pgm", 2]})
        with pytest.raises(ManifestError) as info:
            load_samples(path, frozenset({1}))
        assert str(info.value) == f"{path}: subject 's1': paths must be strings without NUL"

    def test_a_short_subject_names_the_manifest(self, tmp_path):
        path = self.write(tmp_path / "manifest.json", {"s2": ["1.pgm", "2.pgm"], "s1": ["1.pgm"]})
        assert load_samples(path, frozenset({1})) == [
            {"s1": [tmp_path / "1.pgm"], "s2": [tmp_path / "1.pgm"]}
        ]
        with pytest.raises(SplitError) as info:
            load_samples(path, frozenset({1}), frozenset({2}))
        assert (type(info.value), str(info.value)) == (
            SplitError,
            f"{path}: subject 's1' has 1 samples but the selection needs index 2",
        )

    def test_select_samples_takes_entries_of_any_kind(self):
        assert select_samples({"b": ["x", "y"], "a": ["z", "w"]}, frozenset({2})) == {
            "a": ["w"], "b": ["y"]
        }


class TestEnroll:
    def test_first_enrollment(self):
        g = Gallery()
        g.enroll("a", vec([1, 2, 3]))
        assert g.n_subjects == 1
        assert g.n_templates == 1
        assert g.feature_dim == 3

    def test_orl_shape_totals(self):
        g = Gallery()
        rng = np.random.default_rng(0)
        for i in range(40):
            for _ in range(5):
                g.enroll(f"s{i:02d}", vec(rng.standard_normal(100)))
        assert g.n_templates == 200
        assert g.n_subjects == 40

    def test_dim_mismatch(self):
        g = Gallery()
        g.enroll("a", vec(np.zeros(100)))
        with pytest.raises(MismatchError):
            g.enroll("b", vec(np.zeros(50)))

    def test_channel_mismatch(self):
        g = Gallery()
        g.enroll("a", vec([1.0], channel="r"))
        with pytest.raises(MismatchError):
            g.enroll("a", vec([2.0], channel="g"))

    def test_conflicting_label_rejected(self):
        g = Gallery()
        with pytest.raises(GalleryError):
            g.enroll("a", vec([1.0], subject="b"))

    @pytest.mark.parametrize(
        "before, rejected",
        [
            ([], ("a", vec([1.0, 2.0], subject="b"))),
            ([("a", vec([1.0, 2.0]))], ("b", vec([1.0]))),
            ([("a", vec([1.0, 2.0]))], ("b", vec([1.0, 2.0], channel="r"))),
            ([("a", vec([1.0, 2.0]))], ("a", vec([3.0, 4.0], subject="b"))),
        ],
    )
    def test_rejected_enrollment_changes_nothing(self, before, rejected):
        g, untouched = Gallery(), Gallery()
        for subject, v in before:
            g.enroll(subject, v)
            untouched.enroll(subject, v)
        state = g.feature_dim, g.channel, g.n_templates
        with pytest.raises((GalleryError, MismatchError)):
            g.enroll(*rejected)
        assert (g.feature_dim, g.channel, g.n_templates) == state
        assert g == untouched
        if not before:
            # the refused vector fixed no dim: any other dim still enrolls
            g.enroll("a", vec([1.0, 2.0, 3.0]))
            assert g.feature_dim == 3

    @given(st.integers(1, 30))
    @settings(max_examples=20)
    def test_enrolling_k_vectors_yields_k_templates(self, k):
        g = Gallery()
        for i in range(k):
            g.enroll("a", vec([float(i)]))
        assert g.n_templates == k
        assert [t.coeffs[0] for t in g.templates_of("a")] == [float(i) for i in range(k)]

    def test_subject_order_is_lexicographic(self):
        g = Gallery()
        for s in ["zz", "aa", "mm"]:
            g.enroll(s, vec([1.0]))
        assert g.subject_ids == ["aa", "mm", "zz"]


class TestPersistence:
    def orl_like_gallery(self):
        g = Gallery()
        rng = np.random.default_rng(12)
        for i in range(40):
            for _ in range(5):
                g.enroll(f"s{i:02d}", vec(rng.standard_normal(100)))
        return g

    def test_round_trip_is_identical(self, tmp_path):
        g = self.orl_like_gallery()
        save_gallery(g, tmp_path, meta={"window": 64})
        loaded, meta = load_gallery(tmp_path)
        assert loaded == g
        assert meta == {"window": 64}
        for s in g.subject_ids:
            for a, b in zip(g.templates_of(s), loaded.templates_of(s)):
                assert np.array_equal(a.coeffs, b.coeffs)

    def test_empty_subject_id_round_trips(self, tmp_path):
        g = Gallery()
        g.enroll("", vec([1.0, 2.0, 3.0], subject=""))
        g.enroll("b", vec([4.0, 5.0, 6.0]))
        save_gallery(g, tmp_path)
        loaded, _ = load_gallery(tmp_path)
        assert loaded == g
        assert loaded.templates_of("")[0].subject_id == ""

    def test_rerun_save_is_byte_identical(self, tmp_path):
        g = self.orl_like_gallery()
        save_gallery(g, tmp_path / "a")
        save_gallery(g, tmp_path / "b")
        for name in ["gallery.json", "vectors.csv"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_gallery_rejected_on_save(self, tmp_path):
        with pytest.raises(GalleryError):
            save_gallery(Gallery(), tmp_path)

    def test_truncated_vectors_detected(self, tmp_path):
        g = self.orl_like_gallery()
        save_gallery(g, tmp_path)
        csv_path = tmp_path / "vectors.csv"
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(lines[:100]) + "\n")
        assert_csv_rejected(tmp_path, "holds 100 rows but gallery.json lists 200")

    def test_extra_rows_detected(self, tmp_path):
        g = self.orl_like_gallery()
        save_gallery(g, tmp_path)
        csv_path = tmp_path / "vectors.csv"
        text = csv_path.read_text()
        csv_path.write_text(text + text.splitlines()[0].replace("s00", "zz") + "\n")
        assert_csv_rejected(tmp_path, "holds 201 rows but gallery.json lists 200")

    def test_version_mismatch_detected(self, tmp_path):
        save_gallery(self.orl_like_gallery(), tmp_path)
        meta_path = tmp_path / "gallery.json"
        payload = json.loads(meta_path.read_text())
        payload["version"] = 999
        meta_path.write_text(json.dumps(payload))
        with pytest.raises(GalleryVersionError):
            load_gallery(tmp_path)

    def test_wrong_format_detected(self, tmp_path):
        (tmp_path / "gallery.json").write_text('{"format": "something-else"}')
        with pytest.raises(GalleryVersionError):
            load_gallery(tmp_path)

    def test_missing_files_detected(self, tmp_path):
        with pytest.raises(GalleryCorruptError):
            load_gallery(tmp_path)

    def test_quoted_subject_ids_round_trip_byte_identical(self, tmp_path):
        # csv.writer quotes ids holding a comma, a quote or a line break
        g = Gallery()
        rng = np.random.default_rng(4)
        ids = ["plain", "a,b", 'say "hi"', "line\nbreak", ""]
        for s in ids:
            for _ in range(2):
                g.enroll(s, vec(rng.standard_normal(5)))
        save_gallery(g, tmp_path / "a")
        assert '"' in (tmp_path / "a" / "vectors.csv").read_text()
        loaded, _ = load_gallery(tmp_path / "a")
        assert loaded == g
        assert loaded.subject_ids == sorted(ids)
        save_gallery(loaded, tmp_path / "b")
        assert (tmp_path / "a" / "vectors.csv").read_bytes() == (
            tmp_path / "b" / "vectors.csv"
        ).read_bytes()

    @pytest.mark.parametrize("subject", ["cr\rhere", "a\r\nb"])
    def test_carriage_return_subject_ids_round_trip_byte_identical(self, tmp_path, subject):
        g = Gallery()
        g.enroll(subject, vec([1.0, -2.5, 3e-300]))
        g.enroll("plain", vec([4.0, 5.0, 6.0]))
        save_gallery(g, tmp_path / "a")
        loaded, _ = load_gallery(tmp_path / "a")
        assert loaded == g
        assert loaded.subject_ids == sorted([subject, "plain"])
        save_gallery(loaded, tmp_path / "b")
        assert (tmp_path / "a" / "vectors.csv").read_bytes() == (
            tmp_path / "b" / "vectors.csv"
        ).read_bytes()

    def test_utf8_subject_id_round_trips(self, tmp_path):
        g = Gallery()
        g.enroll("Zoë Ångström 李", vec([1.0, 2.0]))
        save_gallery(g, tmp_path)
        assert "Zoë Ångström 李".encode() in (tmp_path / "vectors.csv").read_bytes()
        loaded, _ = load_gallery(tmp_path)
        assert loaded == g
        assert loaded.subject_ids == ["Zoë Ångström 李"]

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            (3, "nan", "row 2 has a non-finite coefficient"),
            (4, "abc", "malformed feature row 2"),
            (2, "101", "row 2 declares dim=101"),
            (1, "r", "mix channels"),  # channel differs from the other rows'
            (0, "s01", "corrupt {csv}: row labelled 's01' listed under subject 's00'"),
        ],
        ids=["non-finite", "non-numeric", "dim", "channel", "label"],
    )
    def test_bad_row_detected(self, tmp_path, field, value, reason):
        save_gallery(self.orl_like_gallery(), tmp_path)
        csv_path = tmp_path / "vectors.csv"
        lines = csv_path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[field] = value
        lines[1] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        assert_csv_rejected(tmp_path, reason.format(csv=re.escape(str(csv_path))))

    def test_failed_save_leaves_no_partial_file(self, tmp_path, monkeypatch):
        save_gallery(self.orl_like_gallery(), tmp_path, meta={"window": 64})
        old_manifest = (tmp_path / "gallery.json").read_bytes()
        calls = fail_write(monkeypatch, 3)
        new = Gallery()
        new.enroll("x", vec(np.ones(100)))
        with pytest.raises(OSError, match="no space"):
            save_gallery(new, tmp_path, meta={"window": 32})
        monkeypatch.undo()
        assert len(calls) == 3
        assert (tmp_path / "gallery.json").read_bytes() == old_manifest
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "gallery.json", "templates.npy", "vectors.csv"
        ]
        # the new vectors.csv is in place, but not the gallery.json that commits it
        with pytest.raises(GalleryCorruptError, match="torn save"):
            load_gallery(tmp_path)


class TestMatrixLayout:
    def test_any_enrollment_order_gives_subject_sorted_rows(self):
        g = Gallery()
        for subject, value in [("m", 1), ("a", 2), ("m", 3), ("zz", 4), ("a", 5)]:
            g.enroll(subject, vec([value, -value]))
        assert g.subject_ids == ["a", "m", "zz"]
        assert g.offsets.tolist() == [0, 2, 4, 5]
        assert g.matrix[:, 0].tolist() == [2.0, 5.0, 1.0, 3.0, 4.0]
        assert g.matrix.dtype == np.float64 and g.matrix.flags.c_contiguous
        assert not g.matrix.flags.writeable and not g.offsets.flags.writeable
        assert [t.coeffs[0] for t in g.templates_of("m")] == [1.0, 3.0]

    def test_enrolling_after_load_merges_in_order(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = [(s, vec(rng.standard_normal(4))) for s in ["b", "d", "b", "a", "d", "c"]]
        whole = Gallery()
        for s, v in rows:
            whole.enroll(s, v)
        first = Gallery()
        for s, v in rows[:3]:
            first.enroll(s, v)
        save_gallery(first, tmp_path)
        loaded, _ = load_gallery(tmp_path)
        for s, v in rows[3:]:
            loaded.enroll(s, v)
        assert loaded == whole
        assert loaded.n_templates == 6


def gallery_of(ids, dim=5, seed=4):
    g = Gallery()
    rng = np.random.default_rng(seed)
    for s in ids:
        for _ in range(2):
            g.enroll(s, vec(rng.standard_normal(dim)))
    return g


def pin_templates(directory, matrix, **save_kwargs):
    """Replace templates.npy by ``matrix`` and record its digest in gallery.json."""
    npy = directory / "templates.npy"
    np.save(npy, matrix, **save_kwargs)
    path = directory / "gallery.json"
    manifest = json.loads(path.read_text())
    manifest["sha256"]["templates.npy"] = hashlib.sha256(npy.read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest, indent=1) + "\n")


class TestTemplatesSidecar:
    """templates.npy is trusted only when gallery.json pins it by digest."""

    @pytest.mark.parametrize(
        "ids",
        [
            [f"s{i:02d}" for i in range(40)],
            ["plain", "a,b", 'say "hi"', "line\nbreak", ""],
            ["cr\rhere", "a\r\nb", "plain"],
            ["Zoë Ångström 李", "plain"],
        ],
        ids=["plain", "quoted", "carriage-return", "utf-8"],
    )
    def test_sidecar_equals_the_csv_bit_for_bit(self, tmp_path, ids):
        g = gallery_of(ids, dim=100)
        save_gallery(g, tmp_path)
        manifest = json.loads((tmp_path / "gallery.json").read_text())
        for name in ["templates.npy", "vectors.csv"]:
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert manifest["sha256"][name] == digest
        sidecar = np.load(tmp_path / "templates.npy", allow_pickle=False)
        assert sidecar.dtype.str == "<f8" and sidecar.flags.c_contiguous
        labels, _, parsed = feature_matrix_from_csv((tmp_path / "vectors.csv").read_bytes())
        assert sidecar.tobytes() == parsed.tobytes() == g.matrix.tobytes()
        from_npy, _ = load_gallery(tmp_path)
        (tmp_path / "templates.npy").unlink()
        from_csv, _ = load_gallery(tmp_path)
        assert from_npy == from_csv == g
        assert from_npy.matrix.tobytes() == from_csv.matrix.tobytes()
        assert from_npy.subject_ids == sorted(set(labels))

    def test_torn_save_is_rejected(self, tmp_path):
        save_gallery(gallery_of(["a", "b"]), tmp_path / "old")
        save_gallery(gallery_of(["a", "b"], seed=5), tmp_path / "new")
        # a save cut after renaming vectors.csv, before writing gallery.json
        for name in ["templates.npy", "vectors.csv"]:
            (tmp_path / "old" / name).write_bytes((tmp_path / "new" / name).read_bytes())
        with pytest.raises(GalleryCorruptError, match="vectors.csv does not match"):
            load_gallery(tmp_path / "old")

    def test_save_cut_after_the_sidecar_loads_the_old_gallery(self, tmp_path, monkeypatch):
        old = gallery_of(["a", "b"])
        save_gallery(old, tmp_path, meta={"window": 16})
        old_npy = (tmp_path / "templates.npy").read_bytes()
        calls = fail_write(monkeypatch, 2)
        with pytest.raises(OSError, match="no space"):
            save_gallery(gallery_of(["a", "b"], seed=5), tmp_path, meta={"window": 16})
        monkeypatch.undo()
        assert len(calls) == 2
        assert (tmp_path / "templates.npy").read_bytes() != old_npy
        loaded, meta = load_gallery(tmp_path)
        assert loaded == old
        assert meta == {"window": 16}

    @pytest.mark.parametrize("csv", ["edited", "truncated", "missing", "directory"])
    def test_pinned_sidecar_loads_whatever_vectors_csv_holds(self, tmp_path, csv):
        # vectors.csv is read only when templates.npy is missing or stale
        g = gallery_of(["a", "b", "c"])
        save_gallery(g, tmp_path, meta={"window": 8})
        path = tmp_path / "vectors.csv"
        saved = path.read_bytes()
        if csv == "edited":
            assert b"\na,gray," in saved
            path.write_bytes(saved.replace(b"\na,gray,", b"\nzz,gray,"))
        elif csv == "truncated":
            path.write_bytes(saved[:40])
        else:
            path.unlink()
            if csv == "directory":
                path.mkdir()
        loaded, meta = load_gallery(tmp_path)
        assert loaded == g
        assert loaded.matrix.tobytes() == g.matrix.tobytes()
        assert meta == {"window": 8}
        make_stale(tmp_path)
        with pytest.raises(GalleryCorruptError, match=str(path)):
            load_gallery(tmp_path)

    @pytest.mark.parametrize("sidecar", ["missing", "stale"])
    def test_missing_or_stale_sidecar_falls_back_to_the_csv(self, tmp_path, sidecar):
        g = gallery_of(["a", "b", "c"])
        save_gallery(g, tmp_path)
        npy = tmp_path / "templates.npy"
        if sidecar == "missing":
            npy.unlink()
        else:
            np.save(npy, g.matrix + 1.0)
        loaded, _ = load_gallery(tmp_path)
        assert loaded == g

    @pytest.mark.parametrize(
        "make, save_kwargs, reason",
        [
            (lambda m: m.astype(object), {"allow_pickle": True}, r"templates.npy holds a \|O array"),
            (lambda m: m.astype(np.float32), {}, "holds a <f4 array"),
            (lambda m: m.astype(">f8"), {}, "holds a >f8 array"),
            (lambda m: m[:-1], {}, r"of shape \(5, 5\)"),
            (lambda m: m.T, {}, r"of shape \(5, 6\)"),
            (lambda m: m.reshape(-1), {}, r"of shape \(30,\)"),
            (lambda m: np.where(m == m[2, 3], np.inf, m), {}, "non-finite"),
        ],
        ids=["pickled", "float32", "big-endian", "rows", "transposed", "1-d", "non-finite"],
    )
    def test_pinned_bad_sidecar_is_rejected(self, tmp_path, make, save_kwargs, reason):
        g = gallery_of(["a", "b", "c"])
        save_gallery(g, tmp_path)
        pin_templates(tmp_path, make(np.array(g.matrix)), **save_kwargs)
        with pytest.raises(GalleryCorruptError, match=reason):
            load_gallery(tmp_path)

    def test_legacy_gallery_without_digests_loads(self, tmp_path):
        g = gallery_of(["a", "b", "c"])
        save_gallery(g, tmp_path, meta={"window": 8})
        strip_digests(tmp_path)
        # a gallery saved before the digests has no templates.npy; one is ignored
        (tmp_path / "templates.npy").write_bytes(b"not an array")
        loaded, meta = load_gallery(tmp_path)
        assert loaded == g
        assert meta == {"window": 8}
        (tmp_path / "templates.npy").unlink()
        assert load_gallery(tmp_path)[0] == g

    @pytest.mark.parametrize(
        "digests",
        [["not", "an", "object"], {"templates.npy": "0" * 64}, None],
        ids=["list", "no-csv", "null"],
    )
    def test_malformed_digests_are_rejected(self, tmp_path, digests):
        save_gallery(gallery_of(["a"]), tmp_path)
        path = tmp_path / "gallery.json"
        manifest = json.loads(path.read_text())
        manifest["sha256"] = digests
        path.write_text(json.dumps(manifest))
        with pytest.raises(GalleryCorruptError):
            load_gallery(tmp_path)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda m: m["subjects"][0].update(templates=3), r"not <f8 of shape \(5, 5\)"),
            (lambda m: m["subjects"][0].update(templates=True), "lists True templates"),
            (lambda m: m["subjects"][0].update(templates=0), "lists 0 templates"),
            (lambda m: m["subjects"][0].update(id=7), "subject id 7 is not a string"),
            (lambda m: m["subjects"].reverse(), "lists subject 'a' after 'b'"),
            (lambda m: m["subjects"][1].update(id="a"), "lists subject 'a' after 'a'"),
            (lambda m: m.update(subjects={"a": 2}), "subjects is not a list"),
            (lambda m: m.update(feature_dim=4), r"not <f8 of shape \(4, 4\)"),
            (lambda m: m.update(feature_dim="5"), "feature_dim '5'"),
            (lambda m: m.update(channel="purple"), "channel 'purple' is unknown"),
            (
                lambda m: m.update(meta={"window": 2}),
                r"meta\.window: 2 must be an integer in \[1, 4096\] and dim 5 in \[1, window²\]",
            ),
        ],
        ids=[
            "count", "bool-count", "zero-count", "id", "order", "duplicate", "subjects",
            "dim", "dim-type", "channel", "window",
        ],
    )
    def test_manifest_is_checked_when_the_sidecar_is_trusted(self, tmp_path, edit, reason):
        save_gallery(gallery_of(["a", "b"]), tmp_path)
        path = tmp_path / "gallery.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(GalleryCorruptError, match=reason):
            load_gallery(tmp_path)

    @pytest.mark.parametrize(
        "edit, error, complaint",
        [
            (lambda m: m.update(format="x"), GalleryVersionError, "not a facedct-gallery payload"),
            (lambda m: m.update(version=2), GalleryVersionError, "gallery version 2 != supported 1"),
            (lambda m: m.update(subjects={"a": 2}), GalleryCorruptError, "subjects is not a list"),
            (lambda m: m["subjects"].append(3), GalleryCorruptError,
             "subject entry 3 is not an object"),
            (lambda m: m["subjects"][0].update(id=7), GalleryCorruptError,
             "subject id 7 is not a string"),
            (lambda m: m["subjects"].reverse(), GalleryCorruptError,
             "lists subject 'a' after 'b'"),
            (lambda m: m["subjects"][0].update(templates=0), GalleryCorruptError,
             "subject 'a' lists 0 templates"),
            (lambda m: m.update(subjects=[]), GalleryCorruptError,
             "persisted gallery holds no templates"),
            (lambda m: m.update(feature_dim="5"), GalleryCorruptError,
             "feature_dim '5' is no dimension"),
            (lambda m: m.update(channel="purple"), GalleryCorruptError,
             "channel 'purple' is unknown"),
            (lambda m: m.update(meta=[8]), GalleryCorruptError, "meta is not an object"),
            (lambda m: m.update(meta={"window": 2}), GalleryCorruptError,
             "meta.window: 2 must be an integer in [1, 4096] and dim 5 in [1, window²]"),
            (lambda m: m.update(sha256=[]), GalleryCorruptError, "sha256 is not an object"),
        ],
        ids=[
            "format", "version", "subjects", "entry", "id", "order", "count", "empty",
            "dim", "channel", "meta", "window", "digests",
        ],
    )
    def test_a_gallery_json_error_names_its_path(self, tmp_path, edit, error, complaint):
        save_gallery(gallery_of(["a", "b"]), tmp_path)
        path = tmp_path / "gallery.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(error) as info:
            load_gallery(tmp_path)
        assert (type(info.value), str(info.value)) == (error, f"{path}: {complaint}")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["subjects"][0].update(id="a0"),
            lambda m: m.update(channel="y"),
            lambda m: m.update(meta={"window": 16}),
        ],
        ids=["rename", "channel", "meta"],
    )
    def test_edited_fields_are_rejected_when_the_sidecar_is_trusted(self, tmp_path, edit):
        # each edit passes every other check: "a0" still sorts before "b"
        save_gallery(gallery_of(["a", "b"]), tmp_path, meta={"window": 8})
        path = tmp_path / "gallery.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(GalleryCorruptError, match="json does not match its fields_sha256"):
            load_gallery(tmp_path)

    def test_a_meta_that_is_not_strict_json_is_refused_before_any_write(self, tmp_path):
        # gallery.json has no token for a NaN or infinity
        save_gallery(gallery_of(["a", "b"]), tmp_path, meta={"window": 8})
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError):
            save_gallery(gallery_of(["c"]), tmp_path, meta={"w": float("nan"), "x": float("inf")})
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_a_meta_with_a_nan_token_is_corrupt(self, tmp_path):
        # as a parser that takes NaN reads it, with the digest it would have
        save_gallery(gallery_of(["a", "b"]), tmp_path)
        path = tmp_path / "gallery.json"
        manifest = json.loads(path.read_text())
        manifest["meta"] = {"w": float("nan")}
        fields = [["a", "b"], [1, 1], 5, "gray", manifest["meta"]]
        manifest["fields_sha256"] = hashlib.sha256(
            json.dumps(fields, separators=(",", ":")).encode()
        ).hexdigest()
        path.write_text(json.dumps(manifest))
        with pytest.raises(GalleryCorruptError, match="json meta holds a NaN or infinity"):
            load_gallery(tmp_path)

    def test_gallery_without_the_fields_digest_loads(self, tmp_path):
        g = gallery_of(["a", "b"])
        save_gallery(g, tmp_path, meta={"window": 8})
        path = tmp_path / "gallery.json"
        manifest = json.loads(path.read_text())
        del manifest["fields_sha256"]
        path.write_text(json.dumps(manifest))
        loaded, meta = load_gallery(tmp_path)
        assert loaded == g
        assert meta == {"window": 8}


class TestTextlessGallery:
    """A gallery saved without its text: templates.npy and gallery.json are
    the whole gallery, and templates.npy must match its pin."""

    def test_it_pins_the_templates_alone_and_loads_bit_for_bit(self, tmp_path):
        g = gallery_of(["a", "b", "c"], dim=7)
        save_gallery(g, tmp_path / "text", meta={"window": 8})
        with mock.patch("facedct.gallery.feature_matrix_to_csv", side_effect=AssertionError):
            save_gallery(g, tmp_path / "bare", meta={"window": 8}, text=False)
        assert sorted(p.name for p in (tmp_path / "bare").iterdir()) == [
            "gallery.json", "templates.npy"
        ]
        npy = (tmp_path / "bare" / "templates.npy").read_bytes()
        assert npy == (tmp_path / "text" / "templates.npy").read_bytes()
        manifest = json.loads((tmp_path / "bare" / "gallery.json").read_text())
        assert manifest["sha256"] == {"templates.npy": hashlib.sha256(npy).hexdigest()}
        loaded, meta = load_gallery(tmp_path / "bare")
        assert loaded == g and meta == {"window": 8}
        assert loaded.matrix.tobytes() == g.matrix.tobytes()

    def test_it_removes_an_older_text_once_its_manifest_is_in_place(self, tmp_path, monkeypatch):
        old, new = gallery_of(["a", "b"]), gallery_of(["a", "b", "c"], seed=5)
        save_gallery(old, tmp_path)
        # a save cut at gallery.json leaves the old gallery, whose pinned text
        # is still there to load it from
        fail_write(monkeypatch, 2)
        with pytest.raises(OSError, match="no space"):
            save_gallery(new, tmp_path, text=False)
        monkeypatch.undo()
        assert (tmp_path / "vectors.csv").is_file()
        assert load_gallery(tmp_path)[0] == old
        save_gallery(new, tmp_path, text=False)
        assert not (tmp_path / "vectors.csv").exists()
        assert load_gallery(tmp_path)[0] == new

    def test_a_save_over_it_cut_at_the_manifest_is_rejected(self, tmp_path, monkeypatch):
        save_gallery(gallery_of(["a", "b"]), tmp_path, text=False)
        fail_write(monkeypatch, 2)
        with pytest.raises(OSError, match="no space"):
            save_gallery(gallery_of(["a", "b"], seed=5), tmp_path, text=False)
        monkeypatch.undo()
        with pytest.raises(GalleryCorruptError, match="no text copy"):
            load_gallery(tmp_path)
