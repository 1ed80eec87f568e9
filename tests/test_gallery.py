"""Enrollment, split rule, gallery persistence."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facedct.errors import MismatchError
from facedct.features import FeatureVector
from facedct.gallery import (
    Gallery,
    GalleryCorruptError,
    GalleryError,
    GalleryVersionError,
    SplitError,
    SplitSpec,
    apply_split,
    load_gallery,
    save_gallery,
)

ORL_SPLIT = SplitSpec.from_iterables(range(1, 6), range(6, 11))


def vec(values, channel="gray", subject=None):
    return FeatureVector(np.asarray(values, dtype=float), channel, subject)


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
        with pytest.raises(GalleryCorruptError):
            load_gallery(tmp_path)

    def test_extra_rows_detected(self, tmp_path):
        g = self.orl_like_gallery()
        save_gallery(g, tmp_path)
        csv_path = tmp_path / "vectors.csv"
        text = csv_path.read_text()
        csv_path.write_text(text + text.splitlines()[0].replace("s00", "zz") + "\n")
        with pytest.raises(GalleryCorruptError):
            load_gallery(tmp_path)

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
        "field, value",
        [
            (3, "nan"),  # non-finite coefficient
            (4, "abc"),  # non-numeric coefficient
            (2, "101"),  # declared dim disagrees with the coefficients
            (1, "r"),  # channel differs from the other rows'
            (0, "s01"),  # label differs from the manifest subject s00
        ],
        ids=["non-finite", "non-numeric", "dim", "channel", "label"],
    )
    def test_bad_row_detected(self, tmp_path, field, value):
        save_gallery(self.orl_like_gallery(), tmp_path)
        csv_path = tmp_path / "vectors.csv"
        lines = csv_path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[field] = value
        lines[1] = ",".join(fields)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GalleryCorruptError):
            load_gallery(tmp_path)

    def test_failed_save_leaves_no_partial_file(self, tmp_path, monkeypatch):
        save_gallery(self.orl_like_gallery(), tmp_path, meta={"window": 64})
        old_manifest = (tmp_path / "gallery.json").read_bytes()
        real_write_text = Path.write_text
        calls = []

        def write_text(path, text, *args, **kwargs):
            calls.append(path)
            if len(calls) == 2:
                real_write_text(path, text[: len(text) // 2], *args, **kwargs)
                raise OSError("no space left on device")
            return real_write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", write_text)
        new = Gallery()
        new.enroll("x", vec(np.ones(100)))
        with pytest.raises(OSError, match="no space"):
            save_gallery(new, tmp_path, meta={"window": 32})
        monkeypatch.undo()
        assert len(calls) == 2
        assert (tmp_path / "gallery.json").read_bytes() == old_manifest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gallery.json", "vectors.csv"]


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
