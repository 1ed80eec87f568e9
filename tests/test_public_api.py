"""The public names of the package, and the one equality rule of the records
that hold arrays."""

import dataclasses

import numpy as np
import pytest

import facedct
from facedct.features import FeatureVector
from facedct.fusion import ChannelRunResult
from facedct.imageio import RasterImage
from facedct.matching import ScoreTensor
from facedct.pipeline import summarize_tensor
from facedct.verification import TrialScores

PUBLIC_NAMES = [
    "CHANNELS",
    "DEFAULT_DIM",
    "DataError",
    "DcfParams",
    "DetPoint",
    "FacedctError",
    "FeatureVector",
    "Gallery",
    "IdentificationResult",
    "MismatchError",
    "RasterImage",
    "ScoreTensor",
    "SignificanceParams",
    "SplitSpec",
    "TrialScores",
    "ValidationError",
    "apply_split",
    "build_score_tensor",
    "dcf",
    "dct2",
    "det_curve",
    "eer",
    "extract_features",
    "far_frr_at",
    "fuse_scores_sum",
    "fuse_scores_weighted",
    "identification_rate",
    "idct2",
    "load_gallery",
    "mad",
    "min_dcf",
    "min_resolvable_error_rate",
    "mse",
    "normal_deviate",
    "normalize",
    "person_score",
    "read_pnm",
    "required_n",
    "resize_bilinear",
    "run_channel_pipeline",
    "save_gallery",
    "select_channel",
    "simplified_n",
    "split_intra_inter",
    "to_luminance",
    "trial_counts",
    "write_pnm",
    "zigzag_order",
]


class TestPublicNames:
    def test_all_is_pinned(self):
        assert facedct.__all__ == PUBLIC_NAMES

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from facedct import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(PUBLIC_NAMES)


def tensor(scores=((0.5, 2.0), (3.0, 1.0))):
    return ScoreTensor(("a", "b"), ("a", "b"), np.array(scores)[:, :, None])


# each record kind: a factory of equal records, and per field a value that
# differs from the factory's
RECORDS = {
    "FeatureVector": (
        lambda: FeatureVector([1.0, 2.0], "gray", "a"),
        {"coeffs": np.array([1.0, 3.0]), "source_channel": "r", "subject_id": "b"},
    ),
    "RasterImage": (
        lambda: RasterImage(2, 1, 1, 255, [1, 2]),
        {"width": 1, "height": 2, "channels": 3, "maxval": 254, "samples": np.array([[[1], [3]]])},
    ),
    "ScoreTensor": (
        tensor,
        {
            "probe_subjects": ("b", "a"),
            "gallery_subjects": ("b", "a"),
            "scores": tensor(((0.5, 2.5), (3.0, 1.0))).scores,
            "metric": "mad",
        },
    ),
    "TrialScores": (
        lambda: TrialScores([0.5, 1.0], [2.0, 3.0]),
        {"genuine": np.array([0.5, 1.5]), "impostor": np.array([2.0, 4.0])},
    ),
    "ChannelRunResult": (
        lambda: ChannelRunResult(tensor(), summarize_tensor(tensor())),
        {
            "tensor": tensor(((0.5, 2.5), (3.0, 1.0))),
            "summary": dataclasses.replace(summarize_tensor(tensor()), n_genuine=3),
        },
    ),
}


@pytest.mark.parametrize("kind", RECORDS)
class TestArrayRecordsCompareByValue:
    def test_records_built_apart_are_equal(self, kind):
        make, _ = RECORDS[kind]
        a, b = make(), make()
        assert a is not b
        assert a == b
        assert not a != b

    def test_each_field_takes_part(self, kind):
        make, changes = RECORDS[kind]
        assert set(changes) == {f.name for f in dataclasses.fields(make())}
        for name, value in changes.items():
            a, b = make(), make()
            object.__setattr__(b, name, value)
            assert a != b, name
            assert b != a, name

    def test_a_record_of_another_type_is_not_equal(self, kind):
        make, _ = RECORDS[kind]
        a = make()
        assert a.__eq__(object()) is NotImplemented
        for other, (make_other, _) in RECORDS.items():
            if other != kind:
                assert a != make_other()
                assert make_other() != a

    def test_unhashable(self, kind):
        make, _ = RECORDS[kind]
        with pytest.raises(TypeError):
            hash(make())
