"""CLI behavior: subcommands, determinism, exit-code contract."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from facedct import errors, matching, verification
from facedct.cli import build_parser, load_config, main
from facedct.errors import MismatchError, ValidationError, read_bytes
from facedct.features import FeatureVector, extract_features, feature_matrix_to_csv
from facedct.gallery import Gallery, load_gallery, save_gallery
from facedct.imageio import (
    PnmError,
    PnmHeaderError,
    PnmMaxvalError,
    PnmTruncatedError,
    PnmUnsupportedMagicError,
    RasterImage,
    prepare_plane,
    write_pnm,
    write_pnm_samples,
)
from facedct.matching import (
    ScoreTensor,
    build_score_tensor,
    load_scores_csv,
    save_scores_csv,
    scores_to_csv,
)
from facedct.pipeline import extract_subject_features
from facedct.synth import SynthSpec
from facedct.verification import TrialScores, det_curve, det_to_csv, eer, split_intra_inter

from byte_edit_strategy import apply_byte_edits, byte_edits


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, manifest, **extra):
    payload = {
        "manifest": str(manifest),
        "train_indices": [1, 2, 3],
        "test_indices": [4, 5, 6],
        "window": 32,
        "dim": 64,
        "metrics": ["mse"],
        "channel": "gray",
    }
    payload.update(extra)
    path.write_text(json.dumps(payload))
    return path


def pin(path, name, data):
    """Write ``data`` to the sidecar ``name`` beside the score file ``path``
    and record its digest in the manifest, as a save would."""
    (path.parent / name).write_bytes(data)
    manifest_path = path.with_suffix(".json")
    manifest = json.loads(manifest_path.read_text())
    manifest["sha256"][name] = hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def det_export(scores, out):
    """Run det-export quietly; returns its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["det-export", "--scores", str(scores),
                     "--out", str(out.with_suffix(".csv")), "--svg", str(out.with_suffix(".svg"))])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    code = main(
        [
            "synth-data", "--subjects", "6", "--samples", "6", "--noise", "0.5",
            "--seed", "5", "--width", "32", "--height", "32", "--out", str(root),
        ]
    )
    assert code == 0
    return root / "manifest.json"


class TestSynthData:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        args = [
            "synth-data", "--subjects", "3", "--samples", "2", "--noise", "0.2",
            "--seed", "9", "--width", "16", "--height", "16",
        ]
        code1, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        code2, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        files_a = sorted((tmp_path / "a").rglob("*.*"))
        files_b = sorted((tmp_path / "b").rglob("*.*"))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    @pytest.mark.parametrize(
        "flags", [["--subjects", "0"], ["--width", "4097"]], ids=["subjects", "width"]
    )
    def test_invalid_spec_is_validation_error(self, tmp_path, capsys, flags):
        code, _, err = run_cli(
            capsys,
            "synth-data", "--subjects", "1", "--samples", "1", *flags,
            "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 1
        assert "validation error" in err

    @pytest.mark.parametrize("side", ["width", "height"])
    def test_image_side_is_bounded_by_the_largest_window(self, side):
        with pytest.raises(ValueError, match=f"^image {side} must be at most 4096$"):
            SynthSpec(2, 1, 0.0, seed=1, **{side: 4097})
        assert getattr(SynthSpec(2, 1, 0.0, seed=1, **{side: 4096}), side) == 4096

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_validation_error(self, tmp_path, capsys, noise):
        with pytest.raises(ValueError, match="^noise sigma must be finite and >= 0$"):
            SynthSpec(2, 1, float(noise), seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "synth-data", "--subjects", "2", "--samples", "1", "--noise", noise,
                "--seed", "1", "--out", str(tmp_path / "out"),
            )
        assert (code, out, caught) == (1, "", [])
        assert err == "validation error: noise sigma must be finite and >= 0\n"
        assert not (tmp_path / "out").exists()


class TestEnroll:
    def test_creates_gallery_and_is_deterministic(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        code, out, _ = run_cli(
            capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g1"), "--text"
        )
        assert code == 0
        assert "18 templates for 6 subjects" in out
        code, _, _ = run_cli(
            capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g2"), "--text"
        )
        assert code == 0
        for name in ["gallery.json", "vectors.csv", "templates.npy", "provenance.json"]:
            assert (tmp_path / "g1" / name).read_bytes() == (tmp_path / "g2" / name).read_bytes()

    def test_missing_manifest_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "nowhere.json")
        code, _, err = run_cli(
            capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g")
        )
        assert code == 1
        assert "validation error" in err

    def test_corrupt_image_is_data_error(self, dataset, tmp_path, capsys):
        manifest = json.loads(dataset.read_text())
        first = next(iter(manifest.values()))[0]
        bad_root = tmp_path / "bad"
        bad_root.mkdir()
        bad_manifest = bad_root / "manifest.json"
        (bad_root / "junk.pgm").write_bytes(b"P5\n4 4\n255\nxx")  # truncated
        bad_manifest.write_text(json.dumps({"s0": ["junk.pgm"]}))
        cfg = write_config(
            tmp_path / "cfg.json", bad_manifest, train_indices=[1], test_indices=[1]
        )
        # overlapping indices give validation error first; fix them
        cfg = write_config(
            tmp_path / "cfg.json", bad_manifest, train_indices=[1], test_indices=[2]
        )
        code, _, err = run_cli(
            capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g")
        )
        assert code == 2
        assert "data error" in err
        assert "junk.pgm" in err

    def test_too_few_training_samples_names_subject(self, dataset, tmp_path, capsys):
        manifest = json.loads(dataset.read_text())
        short = sorted(manifest)[1]
        manifest = {
            s: [str(dataset.parent / p) for p in paths] for s, paths in manifest.items()
        }
        manifest[short] = manifest[short][:2]  # training indices run to 3
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "manifest.json")
        code, _, err = run_cli(
            capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g")
        )
        assert code == 2
        assert "data error" in err
        assert repr(short) in err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize(
        "command, keep, needed", [("enroll", 2, 3), ("evaluate", 5, 6), ("fuse-eval", 5, 6)]
    )
    def test_a_short_subject_names_the_manifest(
        self, dataset, tmp_path, capsys, command, keep, needed
    ):
        # enroll reads training indices 1-3, evaluate test indices 4-6 and
        # fuse-eval both, the training ones first
        cfg = write_config(tmp_path / "full.json", dataset)
        assert run_cli(capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g"))[0] == 0
        manifest = {
            s: [str(dataset.parent / p) for p in paths]
            for s, paths in json.loads(dataset.read_text()).items()
        }
        manifest["s001"] = manifest["s001"][:keep]
        short = tmp_path / "manifest.json"
        short.write_text(json.dumps(manifest))
        cfg = write_config(tmp_path / "cfg.json", short)
        extra = {"enroll": ["--out", str(tmp_path / "g2")],
                 "evaluate": ["--gallery", str(tmp_path / "g"), "--out", str(tmp_path / "res")],
                 "fuse-eval": ["--fusion", "sum:gray", "--out", str(tmp_path / "res")]}[command]
        code, _, err = run_cli(capsys, command, "--config", str(cfg), *extra)
        assert (code, err) == (
            2,
            f"data error: {short}: subject 's001' has {keep} samples "
            f"but the selection needs index {needed}\n",
        )

    def test_the_text_is_written_only_with_the_flag(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        bare, text = tmp_path / "bare", tmp_path / "text"
        assert run_cli(capsys, "enroll", "--config", str(cfg), "--out", str(bare))[0] == 0
        assert run_cli(capsys, "enroll", "--config", str(cfg), "--out", str(text), "--text")[0] == 0
        files = ["gallery.json", "provenance.json", "templates.npy"]
        assert sorted(p.name for p in bare.iterdir()) == files
        assert sorted(p.name for p in text.iterdir()) == sorted(files + ["vectors.csv"])
        gallery, meta = load_gallery(text)
        labels = [s for s in gallery.subject_ids for _ in gallery.templates_of(s)]
        csv = feature_matrix_to_csv(labels, gallery.channel, gallery.matrix)
        assert (text / "vectors.csv").read_bytes() == csv.encode()
        for name in ("templates.npy", "provenance.json"):
            assert (bare / name).read_bytes() == (text / name).read_bytes()
        # gallery.json differs only by the digest of the text it pins
        manifest = json.loads((text / "gallery.json").read_text())
        del manifest["sha256"]["vectors.csv"]
        assert (bare / "gallery.json").read_text() == json.dumps(manifest, indent=1) + "\n"
        assert load_gallery(bare) == (gallery, meta)

    @pytest.mark.parametrize("first, then", [(["--text"], []), ([], ["--text"])],
                             ids=["text-then-default", "default-then-text"])
    def test_a_rerun_leaves_the_files_of_a_fresh_enroll(self, dataset, tmp_path, capsys,
                                                        first, then):
        # the first gallery has another dim, so a leftover text disagrees
        cfg = write_config(tmp_path / "cfg.json", dataset)
        out, fresh = tmp_path / "g", tmp_path / "fresh"
        enroll = ["enroll", "--config", str(cfg), "--out"]
        assert run_cli(capsys, *enroll, str(out), "--dim", "36", *first)[0] == 0
        assert run_cli(capsys, *enroll, str(out), *then)[0] == 0
        assert run_cli(capsys, *enroll, str(fresh), *then)[0] == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir())
        for path in fresh.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("damage", ["missing", "stale"])
    def test_a_textless_gallery_with_a_bad_templates_npy_is_data_error(
        self, dataset, tmp_path, capsys, damage
    ):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        gallery = tmp_path / "g"
        assert run_cli(capsys, "enroll", "--config", str(cfg), "--out", str(gallery))[0] == 0
        # a text of the same templates that gallery.json does not pin is not read
        assert run_cli(capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "t"),
                       "--text")[0] == 0
        shutil.copyfile(tmp_path / "t" / "vectors.csv", gallery / "vectors.csv")
        npy = gallery / "templates.npy"
        if damage == "missing":
            npy.unlink()
            state = "is missing"
        else:
            data = npy.read_bytes()
            npy.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
            state = "does not match its sha256 in gallery.json"
        probe = dataset.parent / next(iter(json.loads(dataset.read_text()).values()))[0]
        code, out, err = run_cli(
            capsys, "identify", "--gallery", str(gallery), "--image", str(probe)
        )
        assert (code, out) == (2, "")
        assert err == (f"data error: {npy} {state}, and the gallery has no text copy "
                       "(vectors.csv) to fall back on\n")


class TestEvaluate:
    @pytest.fixture(scope="class")
    def evaluated(self, dataset, tmp_path_factory):
        root = tmp_path_factory.mktemp("eval")
        cfg = write_config(root / "cfg.json", dataset, metrics=["mse", "mad"])
        assert main(["enroll", "--config", str(cfg), "--out", str(root / "gal")]) == 0
        assert (
            main(
                [
                    "evaluate", "--config", str(cfg), "--gallery", str(root / "gal"),
                    "--out", str(root / "res"), "--svg",
                ]
            )
            == 0
        )
        return root

    def test_outputs_exist(self, evaluated):
        res = evaluated / "res"
        for name in [
            "scores_mse.csv", "scores_mad.csv", "det_mse.csv", "det_mad.csv",
            "det_mse.svg", "det_mad.svg", "results.json",
        ]:
            assert (res / name).is_file(), name

    def test_results_shape(self, evaluated):
        results = json.loads((evaluated / "res" / "results.json").read_text())
        assert [r["metric"] for r in results["rows"]] == ["mse", "mad"]
        for row in results["rows"]:
            assert 0.0 <= row["identification_rate"] <= 1.0
            assert set(row["min_dcf"]) == {"0.5", "empirical"}
        counts = results["trial_counts"]
        assert counts["genuine"] == 18  # 6 subjects x 3 test samples
        assert counts["impostor"] == 6 * 5 * 3
        assert counts["total"] == counts["genuine"] + counts["impostor"]
        assert results["min_resolvable_error_rate_simplified"] == 100.0 / counts["total"]

    def test_rerun_is_identical(self, evaluated, dataset, capsys):
        cfg = evaluated / "cfg.json"
        assert (
            main(
                [
                    "evaluate", "--config", str(cfg), "--gallery", str(evaluated / "gal"),
                    "--out", str(evaluated / "res2"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (evaluated / "res" / "results.json").read_bytes() == (
            evaluated / "res2" / "results.json"
        ).read_bytes()

    def test_rerun_into_the_same_directory_leaves_no_file_of_an_older_run(
        self, evaluated, capsys
    ):
        out = evaluated / "rerun"
        base = ["evaluate", "--config", str(evaluated / "cfg.json"),
                "--gallery", str(evaluated / "gal"), "--out", str(out)]
        scores = ["scores{}.npy", "scores{}.csv", "scores{}.json"]
        runs = [
            ([], ["det_mad.csv", "det_mse.csv"]
             + [n.format(tag) for tag in ("_mad", "_mse") for n in scores]),
            (["--svg", "--metric", "mse"], ["det.csv", "det.svg"] + [n.format("") for n in scores]),
            (["--metric", "mad"], ["det.csv"] + [n.format("") for n in scores]),
        ]
        for flags, written in runs:
            assert main([*base, *flags]) == 0
            assert sorted(p.name for p in out.iterdir()) == sorted(written + ["results.json"])
        capsys.readouterr()
        assert (out / "scores.csv").read_text().splitlines()[1] == "# metric=mad"

    @pytest.mark.parametrize("c_miss, c_fa", [(0, 1), (1, 0)])
    def test_results_are_strict_json_with_a_zero_cost(
        self, dataset, tmp_path, capsys, c_miss, c_fa
    ):
        cfg = write_config(tmp_path / "cfg.json", dataset, dcf={"c_miss": c_miss, "c_fa": c_fa})
        assert main(["enroll", "--config", str(cfg), "--out", str(tmp_path / "gal")]) == 0
        assert main(["evaluate", "--config", str(cfg), "--gallery", str(tmp_path / "gal"),
                     "--out", str(tmp_path / "res")]) == 0
        capsys.readouterr()

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        text = (tmp_path / "res" / "results.json").read_text()
        (row,) = json.loads(text, parse_constant=refuse)["rows"]
        assert row["min_dcf"] == {"0.5": 0.0, "empirical": 0.0}
        if c_miss == 0:
            # the least cost is at the -inf threshold, written as float() reads it
            assert row["min_dcf_threshold"] == {"0.5": "-inf", "empirical": "-inf"}
        else:
            assert all(math.isfinite(t) for t in row["min_dcf_threshold"].values())

    def test_single_metric_uses_plain_names(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        assert main(["enroll", "--config", str(cfg), "--out", str(tmp_path / "gal")]) == 0
        assert (
            main(
                [
                    "evaluate", "--config", str(cfg), "--gallery", str(tmp_path / "gal"),
                    "--out", str(tmp_path / "res"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (tmp_path / "res" / "scores.csv").is_file()
        assert (tmp_path / "res" / "det.csv").is_file()

    def test_a_gallery_without_meta_window_takes_the_config_window(
        self, dataset, tmp_path, capsys
    ):
        cfg = write_config(tmp_path / "cfg.json", dataset, window=16)
        assert main(["enroll", "--config", str(cfg), "--out", str(tmp_path / "gal")]) == 0
        gallery, meta = load_gallery(tmp_path / "gal")
        assert meta["window"] == 16
        save_gallery(gallery, tmp_path / "bare")
        scored = {}
        for window in (16, 32):
            cfg = write_config(tmp_path / "cfg.json", dataset, window=window)
            for name in ("gal", "bare"):
                out = tmp_path / f"{name}{window}"
                assert main(["evaluate", "--config", str(cfg), "--gallery",
                             str(tmp_path / name), "--out", str(out)]) == 0
                results = json.loads((out / "results.json").read_text())
                scored[name, window] = (results["window"], (out / "scores.csv").read_bytes())
        capsys.readouterr()
        # meta.window wins over the config; without it the config's window is scored
        assert [scored[k][0] for k in sorted(scored)] == [16, 32, 16, 16]
        assert scored["gal", 32][1] == scored["gal", 16][1] == scored["bare", 16][1]
        assert scored["bare", 32][1] != scored["bare", 16][1]

    def test_training_indices_beyond_the_samples_are_not_needed(
        self, evaluated, dataset, tmp_path, capsys
    ):
        # every subject has 6 samples; evaluate reads only test indices 4-6
        cfg = write_config(
            tmp_path / "cfg.json", dataset, metrics=["mse", "mad"], train_indices=[7, 8]
        )
        code, _, _ = run_cli(
            capsys,
            "evaluate", "--config", str(cfg), "--gallery", str(evaluated / "gal"),
            "--out", str(tmp_path / "res"),
        )
        assert code == 0
        results = json.loads((tmp_path / "res" / "results.json").read_text())
        assert results["trial_counts"]["genuine"] == 18
        for name in ["scores_mse.csv", "scores_mad.csv"]:
            assert (tmp_path / "res" / name).read_bytes() == (
                evaluated / "res" / name
            ).read_bytes()

    def test_det_export_round_trip(self, evaluated, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "det-export", "--scores", str(evaluated / "res" / "scores_mse.csv"),
            "--out", str(tmp_path / "det.csv"),
        )
        assert code == 0
        exported = (tmp_path / "det.csv").read_text()
        original = (evaluated / "res" / "det_mse.csv").read_text()
        assert exported == original

    def test_det_export_creates_missing_directories(self, evaluated, tmp_path, capsys):
        csv_path, svg_path = tmp_path / "a" / "det.csv", tmp_path / "b" / "c" / "det.svg"
        code, _, _ = run_cli(
            capsys,
            "det-export", "--scores", str(evaluated / "res" / "scores_mse.csv"),
            "--out", str(csv_path), "--svg", str(svg_path),
        )
        assert code == 0
        assert csv_path.read_bytes() == (evaluated / "res" / "det_mse.csv").read_bytes()
        assert svg_path.read_bytes() == (evaluated / "res" / "det_mse.svg").read_bytes()

    @pytest.mark.parametrize(
        "out, svg, refused, other",
        [
            ("scores.csv", None, "--out scores.csv", "scores.csv"),
            ("../res/scores.csv", None, "--out ../res/scores.csv", "scores.csv"),
            ("d.csv", "scores.csv", "--svg scores.csv", "scores.csv"),
            ("scores.npy", None, "--out scores.npy", "scores.csv"),
            ("d.csv", "scores.json", "--svg scores.json", "scores.csv"),
            ("d.csv", "d.csv", "--svg d.csv", "d.csv"),
        ],
    )
    def test_det_export_refuses_an_output_that_is_an_input_or_the_other_output(
        self, evaluated, tmp_path, capsys, out, svg, refused, other
    ):
        res = tmp_path / "res"
        res.mkdir()
        for suffix in (".csv", ".npy", ".json"):
            shutil.copy(evaluated / "res" / f"scores_mse{suffix}", res / f"scores{suffix}")
        before = {p.name: p.read_bytes() for p in res.iterdir()}
        argv = ["det-export", "--scores", str(res / "scores.csv"), "--out", str(res / out)]
        code, stdout, err = run_cli(capsys, *argv, *(["--svg", str(res / svg)] if svg else []))
        assert (code, stdout) == (1, "")
        assert err.startswith("validation error: ") and err.count("\n") == 1
        flag, name = refused.split()
        assert f"{flag} {res / name} would overwrite " in err and str(res / other) in err
        assert {p.name: p.read_bytes() for p in res.iterdir()} == before

    @pytest.mark.parametrize("metric", ["mse", "mad"])
    def test_det_exports_hold_the_curve_vertices(self, evaluated, tmp_path, capsys, metric):
        res = evaluated / "res"
        code, out, _ = run_cli(
            capsys,
            "det-export", "--scores", str(res / f"scores_{metric}.csv"),
            "--out", str(tmp_path / "det.csv"), "--svg", str(tmp_path / "det.svg"),
        )
        assert code == 0
        assert (tmp_path / "det.csv").read_bytes() == (res / f"det_{metric}.csv").read_bytes()
        assert (tmp_path / "det.svg").read_bytes() == (res / f"det_{metric}.svg").read_bytes()

        trials = split_intra_inter(load_scores_csv(res / f"scores_{metric}.csv"))
        full = det_curve(trials)
        rows = (res / f"det_{metric}.csv").read_text().splitlines()[1:]
        assert len(rows) == len(full.vertices()) < len(full)
        assert out == f"det curve ({len(rows)} points) -> {tmp_path / 'det.csv'}\n"
        first, last = rows[0].split(","), rows[-1].split(",")
        assert [float(v) for v in first[:3]] == [math.inf, 1.0, 0.0]
        assert [float(v) for v in last[:3]] == [-math.inf, 0.0, 1.0]
        assert set(rows) <= set(det_to_csv(full).splitlines())

        # EER and min-DCF agree with the full staircase
        (row,) = [
            r for r in json.loads((res / "results.json").read_text())["rows"]
            if r["metric"] == metric
        ]
        assert row["eer"] == eer(trials)
        assert row["min_dcf"]["0.5"] == min(0.5 * p.p_miss + 0.5 * p.p_fa for p in full)

    def test_one_sort_of_the_head_serves_each_metric(self, evaluated, tmp_path, monkeypatch):
        # the summary's split and its one sort also give the DET exports
        heads = []
        head = verification._head
        monkeypatch.setattr(verification, "_head", lambda *a: heads.append(a) or head(*a))
        argv = ["evaluate", "--config", str(evaluated / "cfg.json"),
                "--gallery", str(evaluated / "gal"), "--out", str(tmp_path), "--svg"]
        assert main(argv) == 0
        assert len(heads) == 2
        for name in ("det_mse.csv", "det_mad.csv", "det_mse.svg", "det_mad.svg"):
            assert (tmp_path / name).read_bytes() == (evaluated / "res" / name).read_bytes()

    def test_det_export_takes_the_cells_from_the_sidecar_evaluate_wrote(
        self, evaluated, tmp_path, capsys, monkeypatch
    ):
        res = evaluated / "res"
        spy = mock.Mock(wraps=matching._load_score_rows)
        monkeypatch.setattr(matching, "_load_score_rows", spy)
        bare = tmp_path / "bare"
        bare.mkdir()
        shutil.copyfile(res / "scores_mse.csv", bare / "scores_mse.csv")
        for scores, parses in [(res, 0), (bare, 1)]:
            code, _, _ = run_cli(
                capsys, "det-export", "--scores", str(scores / "scores_mse.csv"),
                "--out", str(tmp_path / "det.csv"),
            )
            assert code == 0
            assert spy.call_count == parses
            assert (tmp_path / "det.csv").read_bytes() == (res / "det_mse.csv").read_bytes()

    def test_det_export_of_a_score_file_copied_over_another_follows_the_copy(
        self, evaluated, tmp_path, capsys
    ):
        res = tmp_path / "res"
        shutil.copytree(evaluated / "res", res)
        # the mse sidecars stay, and no longer match the score file beside them
        shutil.copyfile(res / "scores_mad.csv", res / "scores_mse.csv")
        code, _, _ = run_cli(
            capsys, "det-export", "--scores", str(res / "scores_mse.csv"),
            "--out", str(tmp_path / "det.csv"),
        )
        assert code == 0
        assert (res / "det_mad.csv").read_bytes() != (res / "det_mse.csv").read_bytes()
        assert (tmp_path / "det.csv").read_bytes() == (res / "det_mad.csv").read_bytes()

    @given(
        name=st.sampled_from(["scores_mse.npy", "scores_mse.json", "scores_mse.csv"]),
        edits=byte_edits,
    )
    # the strategy edits the last 400 bytes; these reach the first byte of
    # the CSV header and of the .npy magic
    @example(name="scores_mse.csv", edits=[("replace", 10**6, b"\xff", 1)])
    @example(name="scores_mse.npy", edits=[("delete", 10**6, b"0", 1)])
    @settings(max_examples=150, deadline=None)
    def test_det_export_of_a_byte_edited_score_set_matches_the_csv_alone(
        self, evaluated, name, edits
    ):
        res = evaluated / "res"
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for suffix in (".npy", ".csv", ".json"):
                shutil.copyfile(res / f"scores_mse{suffix}", tmp / f"scores_mse{suffix}")
            (tmp / name).write_bytes(apply_byte_edits((tmp / name).read_bytes(), edits))
            code, err = det_export(tmp / "scores_mse.csv", tmp / "pinned")
            if name != "scores_mse.csv":
                # an edited sidecar is not trusted, and the CSV is intact
                assert (code, err) == (0, "")
                for suffix in (".csv", ".svg"):
                    assert (tmp / f"pinned{suffix}").read_bytes() == (
                        res / f"det_mse{suffix}"
                    ).read_bytes()
                return
            (tmp / "scores_mse.npy").unlink()
            (tmp / "scores_mse.json").unlink()
            assert det_export(tmp / "scores_mse.csv", tmp / "bare") == (code, err)
            assert code in (0, 2)
            if code == 0:
                for suffix in (".csv", ".svg"):
                    assert (tmp / f"pinned{suffix}").read_bytes() == (
                        tmp / f"bare{suffix}"
                    ).read_bytes()

    def test_identify_returns_true_subject(self, evaluated, dataset, capsys):
        manifest = json.loads(dataset.read_text())
        subject = sorted(manifest)[2]
        probe = dataset.parent / manifest[subject][4]
        code, out, _ = run_cli(
            capsys, "identify", "--gallery", str(evaluated / "gal"), "--image", str(probe)
        )
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["subject"] == subject
        assert payload["distance"] >= 0.0

    def test_identify_metric_is_case_insensitive(self, evaluated, dataset, capsys):
        manifest = json.loads(dataset.read_text())
        probe = dataset.parent / manifest[sorted(manifest)[1]][3]
        base = ["identify", "--gallery", str(evaluated / "gal"), "--image", str(probe)]
        answers = [json.loads(run_cli(capsys, *base, "--metric", m)[1]) for m in ("MAD", "mad")]
        assert answers[0]["metric"] == "mad"
        assert answers[0] == answers[1]

    def test_results_record_the_gallery_dim_and_channel(self, tmp_path, capsys):
        # the config says gray at dim 64; the gallery was enrolled from y at dim 36
        main(
            [
                "synth-data", "--subjects", "3", "--samples", "4", "--noise", "0.4",
                "--seed", "2", "--width", "16", "--height", "16",
                "--placement", "rgb", "--out", str(tmp_path / "cds"),
            ]
        )
        cfg = write_config(
            tmp_path / "cfg.json", tmp_path / "cds" / "manifest.json",
            train_indices=[1, 2], test_indices=[3, 4], window=16, channel="gray",
        )
        enroll = ["enroll", "--config", str(cfg), "--out", str(tmp_path / "gal")]
        assert run_cli(capsys, *enroll, "--channel", "y", "--dim", "36")[0] == 0
        code, _, _ = run_cli(
            capsys, "evaluate", "--config", str(cfg), "--gallery", str(tmp_path / "gal"),
            "--out", str(tmp_path / "res"),
        )
        assert code == 0
        results = json.loads((tmp_path / "res" / "results.json").read_text())
        assert (results["channel"], results["dim"], results["window"]) == ("y", 36, 16)
        assert results["config"]["channel"] == "gray"


class TestIdentifyContract:
    """identify answers the lexicographically first argmin of the probe's row
    in build_score_tensor, with that cell's distance bit for bit."""

    WINDOW, DIM = 8, 10

    @pytest.fixture
    def probe(self, tmp_path):
        rng = np.random.default_rng(3)
        img = RasterImage(8, 8, 1, 255, rng.integers(0, 256, 64))
        path = tmp_path / "probe.pgm"
        write_pnm_samples(img.samples, img.maxval, path)
        return path, extract_features(prepare_plane(img, "gray", self.WINDOW), self.DIM)

    def check(self, capsys, tmp_path, gallery, probe, metric):
        path, vec = probe
        save_gallery(gallery, tmp_path / "gal", meta={"window": self.WINDOW})
        code, out, _ = run_cli(
            capsys, "identify", "--gallery", str(tmp_path / "gal"),
            "--image", str(path), "--metric", metric,
        )
        assert code == 0
        answer = json.loads(out)
        first = gallery.subject_ids[0]
        tensor = build_score_tensor({first: [vec]}, gallery, metric)
        row = tensor.scores[0, :, 0].tolist()
        best = row.index(min(row))  # the first of equal minima
        assert (answer["subject"], answer["distance"]) == (tensor.gallery_subjects[best], row[best])
        return answer["subject"]

    @pytest.mark.parametrize("metric", ["mse", "mad"])
    def test_tie_goes_to_the_lexicographically_first_subject(
        self, capsys, tmp_path, probe, metric
    ):
        rng = np.random.default_rng(11)
        gallery = Gallery()
        # "m" is enrolled before "c", and both hold the nearest template
        for subject, shift in [("m", 0.01), ("zz", 1), ("m", 1), ("c", 1), ("c", 0.01),
                               ("a", 1), ("zz", 1)]:
            offset = shift if shift < 1 else rng.uniform(1, 2, self.DIM)
            gallery.enroll(subject, FeatureVector(probe[1].coeffs + offset))
        assert self.check(capsys, tmp_path, gallery, probe, metric) == "c"

    @pytest.mark.parametrize("metric", ["mse", "mad"])
    def test_several_templates_enrolled_out_of_order(self, capsys, tmp_path, probe, metric):
        rng = np.random.default_rng(12)
        subjects = [f"s{i}" for i in range(7)] * 3
        rng.shuffle(subjects)
        gallery = Gallery()
        for subject in subjects:
            gallery.enroll(subject, FeatureVector(probe[1].coeffs + rng.normal(0, 1, self.DIM)))
        self.check(capsys, tmp_path, gallery, probe, metric)


#: a gallery written before gallery.json held digests, with a probe image
#: and the identify answer it was frozen with
UNPINNED_GALLERY = Path(__file__).parent / "formats" / "gallery-no-sha256"


class TestDistanceOverflow:
    """A distance past the largest double is +inf, no match, and computing
    it warns of nothing.  identify still answers when some subject's
    distance overflows; when every subject's does, and when evaluate's
    tensor holds one, it is a data error naming the gallery and the
    subject."""

    def unpinned_gallery(self, tmp_path, overflowing):
        """A copy of the frozen unpinned gallery whose subjects in
        ``overflowing`` hold the coefficient 1e200, whose square is past the
        largest double."""
        gallery = tmp_path / "gal"
        shutil.copytree(UNPINNED_GALLERY, gallery)
        rows = (gallery / "vectors.csv").read_text().splitlines(keepends=True)
        for i, row in enumerate(rows):
            fields = row.split(",")
            if fields[0] in overflowing:
                fields[4] = "1e200"
                rows[i] = ",".join(fields)
        (gallery / "vectors.csv").write_text("".join(rows))
        return gallery

    @pytest.mark.parametrize("overflowing", [{"s002"}, {"s000"}, {"s000", "s002"}])
    def test_identify_answers_past_an_overflowing_subject(self, tmp_path, capsys, overflowing):
        gallery = self.unpinned_gallery(tmp_path, overflowing)
        frozen = json.loads((UNPINNED_GALLERY / "expected.json").read_text())
        code, out, err = run_cli(capsys, "identify", "--gallery", str(gallery),
                                 "--image", str(UNPINNED_GALLERY / "probe.pgm"))
        assert (code, out, err) == (0, frozen["identify_stdout"], "")

    def test_identify_refuses_a_gallery_that_overflows_every_distance(self, tmp_path, capsys):
        gallery = self.unpinned_gallery(tmp_path, {"s000", "s001", "s002"})
        probe = UNPINNED_GALLERY / "probe.pgm"
        code, out, err = run_cli(capsys, "identify", "--gallery", str(gallery),
                                 "--image", str(probe))
        assert (code, out) == (2, "")
        assert err == (
            f"data error: gallery {gallery}: the distance of image {probe} to every subject, "
            "'s000' the first, is past the largest double\n"
        )

    def test_evaluate_refuses_a_tensor_cell_that_overflows(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        assert main(["enroll", "--config", str(cfg), "--out", str(tmp_path / "gal")]) == 0
        gallery, meta = load_gallery(tmp_path / "gal")
        edited = Gallery()
        for subject in gallery.subject_ids:
            for vec in gallery.templates_of(subject):
                coeffs = vec.coeffs.copy()
                if subject == gallery.subject_ids[2]:
                    coeffs[1] = 1e200
                edited.enroll(subject, FeatureVector(coeffs))
        save_gallery(edited, tmp_path / "edited", meta=meta)
        capsys.readouterr()
        code, _, err = run_cli(capsys, "evaluate", "--config", str(cfg),
                               "--gallery", str(tmp_path / "edited"), "--out", str(tmp_path / "res"))
        probe, subject = gallery.subject_ids[0], gallery.subject_ids[2]
        assert code == 2
        assert err == (
            f"data error: gallery {tmp_path / 'edited'}: the distance of probe subject "
            f"{probe!r} to subject {subject!r} is past the largest double\n"
        )
        assert not (tmp_path / "res" / "results.json").exists()


class TestFuseEval:
    def test_table_rows(self, tmp_path, capsys):
        code = main(
            [
                "synth-data", "--subjects", "4", "--samples", "4", "--noise", "0.4",
                "--seed", "13", "--width", "16", "--height", "16",
                "--placement", "rgb", "--out", str(tmp_path / "cds"),
            ]
        )
        assert code == 0
        cfg = write_config(
            tmp_path / "cfg.json",
            tmp_path / "cds" / "manifest.json",
            train_indices=[1, 2], test_indices=[3, 4], window=16, dim=36,
            metrics=["mad"], channel="r",
        )
        code, out, _ = run_cli(
            capsys,
            "fuse-eval", "--config", str(cfg),
            "--fusion", "sum:R,G,B", "--fusion", "w:0.3R+0.59G+0.11B",
            "--include-y", "--out", str(tmp_path / "fres"),
        )
        assert code == 0
        lines = (tmp_path / "fres" / "fusion_results.csv").read_text().strip().splitlines()
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == [
            "R", "G", "B", "Y",
            "score-fusion:R+G+B", "score-fusion:0.3R+0.59G+0.11B",
        ]

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_more_than_one_metric_is_validation_error(self, dataset, tmp_path, capsys, source):
        # fusion_results.csv has no metric column: a second metric would be dropped
        metrics = ["mse", "mad"] if source == "config" else ["mse"]
        cfg = write_config(tmp_path / "cfg.json", dataset, metrics=metrics)
        flags = ["--metric", "mse", "--metric", "mad"] if source == "flags" else []
        code, _, err = run_cli(
            capsys,
            "fuse-eval", "--config", str(cfg), "--fusion", "sum:gray", *flags,
            "--out", str(tmp_path / "fres"),
        )
        assert code == 1
        assert "validation error" in err and "mse, mad" in err
        assert not (tmp_path / "fres").exists()

    def test_bad_fusion_spec(self, dataset, tmp_path, capsys, monkeypatch):
        import facedct.gallery as gallery_mod

        # each spec is rejected, naming it, before the manifest is read
        manifest_entries = mock.Mock(side_effect=AssertionError("manifest read"))
        monkeypatch.setattr(gallery_mod, "manifest_entries", manifest_entries)
        cfg = write_config(tmp_path / "cfg.json", dataset)
        for spec in ["median:R,G", "sum:q"]:
            code, _, err = run_cli(
                capsys,
                "fuse-eval", "--config", str(cfg), "--fusion", spec,
                "--out", str(tmp_path / "x"),
            )
            assert code == 1
            assert err.startswith("validation error: ") and repr(spec) in err
        assert not manifest_entries.called

    @pytest.mark.parametrize("spec", ["w:1e400gray", "w:1.7e308gray"])
    def test_weights_that_overflow_the_sum_are_validation_error(
        self, dataset, tmp_path, capsys, spec
    ):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        code, out, err = run_cli(
            capsys,
            "fuse-eval", "--config", str(cfg), "--fusion", spec, "--out", str(tmp_path / "fres"),
        )
        assert (code, out) == (1, "")
        assert err.startswith("validation error: fusion spec ")
        assert err.endswith(": scores must be finite\n") and err.count("\n") == 1
        assert not (tmp_path / "fres").exists()


@pytest.fixture(scope="module")
def rgb_dataset(tmp_path_factory):
    # the dataset of TestFuseEval.test_table_rows: 4 subjects x 4 RGB samples
    root = tmp_path_factory.mktemp("rgb")
    code = main(
        [
            "synth-data", "--subjects", "4", "--samples", "4", "--noise", "0.4",
            "--seed", "13", "--width", "16", "--height", "16",
            "--placement", "rgb", "--out", str(root),
        ]
    )
    assert code == 0
    return root / "manifest.json"


class TestFeaturizeOnce:
    """Every command featurizes through ``pipeline.featurize_image``, which
    decodes each listed image once, however many channels it feeds."""

    @pytest.fixture
    def reads(self, monkeypatch):
        import facedct.pipeline as pipeline_mod

        paths = []

        def counting(path, error):
            paths.append(str(path))
            return read_bytes(path, error)

        monkeypatch.setattr(pipeline_mod, "read_bytes", counting)
        return paths

    @pytest.fixture
    def cfg(self, rgb_dataset, tmp_path):
        return write_config(
            tmp_path / "cfg.json", rgb_dataset,
            train_indices=[1, 2], test_indices=[3, 4], window=16, dim=36,
            metrics=["mad"], channel="r",
        )

    def test_fuse_eval_reads_each_listed_image_once(self, cfg, tmp_path, capsys, reads):
        code, _, _ = run_cli(
            capsys,
            "fuse-eval", "--config", str(cfg), "--fusion", "sum:R,G,B",
            "--include-y", "--out", str(tmp_path / "fres"),
        )
        assert code == 0
        assert len(reads) == len(set(reads)) == 16

    def test_enroll_evaluate_and_identify_read_through_it(
        self, rgb_dataset, cfg, tmp_path, capsys, reads
    ):
        gallery = str(tmp_path / "gal")
        assert run_cli(capsys, "enroll", "--config", str(cfg), "--out", gallery)[0] == 0
        assert len(reads) == 8
        out = str(tmp_path / "res")
        code = run_cli(capsys, "evaluate", "--config", str(cfg), "--gallery", gallery, "--out", out)[0]
        assert code == 0
        assert len(reads) == len(set(reads)) == 16
        probe = rgb_dataset.parent / "s000" / "01.ppm"
        assert run_cli(capsys, "identify", "--gallery", gallery, "--image", str(probe))[0] == 0
        assert reads[-1] == str(probe) and len(reads) == 17

    def test_gray_image_in_rgb_fuse_eval_names_path_and_subject(
        self, rgb_dataset, tmp_path, capsys
    ):
        base = rgb_dataset.parent
        manifest = {
            s: [str(base / p) for p in paths]
            for s, paths in json.loads(rgb_dataset.read_text()).items()
        }
        gray = tmp_path / "03.pgm"
        img = RasterImage(16, 16, 1, 255, np.zeros(256, dtype=np.int64))
        write_pnm_samples(img.samples, img.maxval, gray)
        manifest["s001"][2] = str(gray)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        cfg = write_config(
            tmp_path / "cfg.json", tmp_path / "manifest.json",
            train_indices=[1, 2], test_indices=[3, 4], window=16, dim=36, channel="r",
        )
        code, _, err = run_cli(
            capsys, "fuse-eval", "--config", str(cfg), "--fusion", "sum:R,G,B",
            "--out", str(tmp_path / "fres"),
        )
        assert code == 2
        assert f"subject 's001', image {gray}: " in err
        assert "requires an RGB image" in err


#: (bytes of an image that does not decode, its error class and message)
UNDECODABLE = {
    "bad magic": (b"GIF89a....", PnmHeaderError, "not a binary PNM file (magic b'GI')"),
    "P2": (
        b"P2\n1 1\n255\n0\n", PnmUnsupportedMagicError,
        "unsupported netpbm variant P2; only binary P5/P6 are accepted",
    ),
    "truncated body": (
        b"P5\n2 2\n255\n\x01\x02\x03", PnmTruncatedError, "pixel body has 3 bytes, expected 4"
    ),
    "sample above maxval": (
        b"P5\n1 1\n100\n\xc8", PnmError, "sample value 200 exceeds maxval 100"
    ),
    "two-byte sample above maxval": (
        b"P6\n1 1\n1000\n\x00\x01\x07\xd0\x00\x02", PnmError,
        "sample value 2000 exceeds maxval 1000",
    ),
    "maxval 0": (b"P5\n1 1\n0\n\x00", PnmMaxvalError, "maxval 0 outside [1, 65535]"),
    "width past the int digit limit": (
        b"P5\n" + b"9" * 5000 + b" 1\n255\n\x00", PnmHeaderError,
        "width field of 5000 digits is too large",
    ),
}

#: (channel, an image that lacks it, the message)
WRONG_CHANNEL = {
    "gray on a PPM": (
        "gray", RasterImage(2, 2, 3, 255, np.arange(12)),
        "channel 'gray' requires a single-channel image",
    ),
    "r on a PGM": (
        "r", RasterImage(2, 2, 1, 255, np.arange(4)), "channel selection requires an RGB image"
    ),
    "y on a PGM": (
        "y", RasterImage(2, 2, 1, 255, np.arange(4)), "luminance conversion requires an RGB image"
    ),
}

#: every image error as (channel, image bytes, error class, message)
IMAGE_ERRORS = {
    **{name: ("gray", data, cls, msg) for name, (data, cls, msg) in UNDECODABLE.items()},
    **{
        name: (channel, write_pnm(img), MismatchError, msg)
        for name, (channel, img, msg) in WRONG_CHANNEL.items()
    },
}


class TestNoCommandExpandsTheFullStaircase:
    """EER, min-DCF and the DET exports read the genuine steps of the
    staircase; no command builds the full staircase, a million points on a
    FERET-sized set."""

    def run_commands(self, rgb_dataset, root, capsys):
        """Every file evaluate --svg, det-export --svg and fuse-eval write
        under ``root``, and their stdout."""
        cfg = root / "cfg.json"
        res = root / "res"
        rgb_cfg = write_config(
            root / "rgb.json", rgb_dataset, train_indices=[1, 2], test_indices=[3, 4],
            window=16, dim=36, metrics=["mad"], channel="r",
        )
        for argv in (
            ["evaluate", "--config", str(cfg), "--gallery", str(root / "gal"), "--out", str(res),
             "--svg"],
            ["det-export", "--scores", str(res / "scores_mse.csv"),
             "--out", str(root / "det" / "det.csv"), "--svg", str(root / "det" / "det.svg")],
            ["fuse-eval", "--config", str(rgb_cfg), "--fusion", "sum:R,G,B",
             "--include-y", "--out", str(root / "fres")],
        ):
            assert main(argv) == 0
        files = {
            str(p.relative_to(root)): p.read_bytes()
            for d in ("res", "det", "fres") for p in sorted((root / d).iterdir())
        }
        return files, capsys.readouterr().out

    def test_outputs_are_the_bytes_of_an_unpatched_run(
        self, dataset, rgb_dataset, tmp_path, capsys, monkeypatch
    ):
        cfg = write_config(tmp_path / "cfg.json", dataset, metrics=["mse", "mad"])
        assert main(["enroll", "--config", str(cfg), "--out", str(tmp_path / "gal")]) == 0
        capsys.readouterr()
        files, out = self.run_commands(rgb_dataset, tmp_path, capsys)
        assert len(files) == 11 + 2 + 1  # evaluate's, det-export's, fuse-eval's

        def expanded(trials):
            raise AssertionError("a command expanded the full staircase")

        monkeypatch.setattr(TrialScores, "_staircase", property(expanded))
        assert self.run_commands(rgb_dataset, tmp_path, capsys) == (files, out)

    def test_no_command_copies_the_impostor_cells_out(
        self, dataset, rgb_dataset, tmp_path, capsys, monkeypatch
    ):
        cfg = write_config(tmp_path / "cfg.json", dataset, metrics=["mse", "mad"])
        assert main(["enroll", "--config", str(cfg), "--out", str(tmp_path / "gal")]) == 0
        capsys.readouterr()
        files, out = self.run_commands(rgb_dataset, tmp_path, capsys)

        def copied(tensor):
            raise AssertionError("a command copied the impostor cells out of its tensor")

        monkeypatch.setattr(ScoreTensor, "partition", copied)
        assert self.run_commands(rgb_dataset, tmp_path, capsys) == (files, out)


class TestFeaturizeErrors:
    """An image that cannot be decoded or converted keeps its error class, its
    exit code and its message, prefixed by its subject and path."""

    @pytest.mark.parametrize("case", sorted(IMAGE_ERRORS))
    def test_extract_subject_features_names_subject_and_path(self, tmp_path, case):
        channel, data, cls, message = IMAGE_ERRORS[case]
        good = tmp_path / "good.pnm"
        depth = 1 if channel == "gray" else 3
        img = RasterImage(2, 2, depth, 255, np.arange(4 * depth))
        write_pnm_samples(img.samples, img.maxval, good)
        bad = tmp_path / "bad.pnm"
        bad.write_bytes(data)
        with pytest.raises(cls) as info:
            extract_subject_features({"s0": [good], "s1": [good, bad]}, (channel,), 4, 2)
        assert type(info.value) is cls
        assert str(info.value) == f"subject 's1', image {bad}: {message}"

    @pytest.mark.parametrize("case", sorted(IMAGE_ERRORS))
    def test_identify_exits_2_naming_the_path(self, capsys, tmp_path, case):
        channel, data, _, message = IMAGE_ERRORS[case]
        gallery = Gallery()
        gallery.enroll("a", FeatureVector(np.ones(4), channel, "a"))
        save_gallery(gallery, tmp_path / "gal", meta={"window": 2})
        bad = tmp_path / "bad.pnm"
        bad.write_bytes(data)
        code, out, err = run_cli(
            capsys, "identify", "--gallery", str(tmp_path / "gal"), "--image", str(bad)
        )
        assert (code, out) == (2, "")
        assert err == f"data error: image {bad}: {message}\n"


class TestSigsize:
    def test_solve_for_n(self, capsys):
        code, out, err = run_cli(capsys, "sigsize", "--p", "0.0125")
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["required_n_simplified"] == 8000
        assert payload["required_n_exact"] == 5992
        assert "i.i.d" in err  # correlation caveat without --iid

    def test_solve_for_rate(self, capsys):
        code, out, err = run_cli(capsys, "sigsize", "--n", "986048", "--iid")
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["min_error_rate_simplified"] == 100.0 / 986048
        assert err == ""

    def test_requires_exactly_one_mode(self, capsys):
        code, _, err = run_cli(capsys, "sigsize", "--p", "0.1", "--n", "10")
        assert code == 1
        code, _, err = run_cli(capsys, "sigsize")
        assert code == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--alpha", "2", "--p", "0.1"], "alpha must be in (0, 1)"),
            (["--n", "0"], "n must be >= 1"),
            (["--p", "2"], "p must be in (0, 1]"),
            (["--n", "100", "--beta", "0"], "beta must be in (0, 1]"),
            (["--n", "100", "--alpha", "2"], "alpha must be in (0, 1)"),
            (["--n", "5", "--alpha", "nan"], "alpha must be in (0, 1)"),
            (["--n", "100", "--beta", "5"], "beta must be in (0, 1]"),
            (["--n", "100", "--beta", "-0.5"], "beta must be in (0, 1]"),
            (["--n", "100", "--beta", "1e-200"],
             "beta^2 * n = 0 is too small: -ln(alpha) / (beta^2 * n) overflows"),
            (["--n", "1", "--beta", "1e-160"],
             "beta^2 * n = 9.99989e-321 is too small: -ln(alpha) / (beta^2 * n) overflows"),
            (["--n", "1" + "0" * 400], "n is too large for a float"),
            (["--p", "0.01", "--beta", "1e-200"],
             "beta^2 * p = 0 is too small: -ln(alpha) / (beta^2 * p) overflows"),
            (["--p", "1e-310"],
             "beta^2 * p = 4e-312 is too small: -ln(alpha) / (beta^2 * p) overflows"),
            (["--p", "1e-310", "--alpha", "0.9999999999999999", "--beta", "1"],
             "p = 1e-310 is too small: 100 / p overflows"),
        ],
        ids=["alpha", "n", "p", "n-beta-0", "n-alpha-2", "n-alpha-nan", "n-beta-5",
             "n-beta-negative", "n-beta-underflow", "n-rate-overflow", "n-too-large",
             "p-beta-underflow", "p-exact-overflow", "p-simplified-overflow"],
    )
    def test_out_of_range_parameter_is_validation_error(self, capsys, flags, message):
        # cmd_sigsize raises the parameter checks' ValueError as a ValidationError
        code, out, err = run_cli(capsys, "sigsize", *flags, "--iid")
        assert code == 1
        assert err == f"validation error: {message}\n" and out == ""


class TestConfigFlags:
    """A flag replaces its config field before the one conversion, and each
    command takes only the config flags it reads."""

    REQUIRED = {"enroll": [], "evaluate": ["--gallery", "gal"], "fuse-eval": ["--fusion", "sum:gray"]}

    @pytest.mark.parametrize(
        "command, flag, value, expected",
        [
            ("enroll", "--window", "32", 32),
            ("enroll", "--window", "abc", "error: config field 'window'"),
            ("enroll", "--dim", "36", 36),
            ("enroll", "--channel", "Y", "y"),
            ("fuse-eval", "--metric", "MAD", ("mad",)),
            ("enroll", "--train-indices", "", "error: bad split"),
            ("fuse-eval", "--test-indices", "4,5", (4, 5)),
        ],
        ids=["window", "window-abc", "dim", "channel-Y", "metric-MAD", "train-indices-empty",
             "test-indices"],
    )
    def test_flag_and_field_load_alike(self, dataset, tmp_path, command, flag, value, expected):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        args = build_parser().parse_args(
            [command, "--config", str(cfg), *self.REQUIRED[command], "--out", "out", flag, value]
        )
        dest = {"--metric": "metrics"}.get(flag, flag[2:].replace("-", "_"))
        as_field = write_config(tmp_path / "field.json", dataset, **{dest: getattr(args, dest)})
        outcomes = []
        for path, overrides in [(cfg, args), (as_field, argparse.Namespace())]:
            try:
                outcomes.append(load_config(path, overrides))
            except ValidationError as exc:
                outcomes.append(f"error: {exc}")
        assert outcomes[0] == outcomes[1]
        if str(expected).startswith("error: "):
            assert outcomes[0].startswith(expected)
        else:
            assert getattr(outcomes[0], dest) == expected

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("enroll", "--metric", "mse"),
            ("enroll", "--test-indices", "4"),
            ("evaluate", "--dim", "36"),
            ("evaluate", "--channel", "gray"),
            ("evaluate", "--train-indices", "1"),
            ("evaluate", "--window", "16"),
            ("fuse-eval", "--channel", "gray"),
        ],
    )
    def test_flag_the_command_does_not_read_is_usage_error(
        self, dataset, tmp_path, capsys, command, flag, value
    ):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        code, _, err = run_cli(
            capsys, command, "--config", str(cfg), *self.REQUIRED[command],
            "--out", str(tmp_path / "out"), flag, value,
        )
        assert code == 1
        assert err.startswith("usage error: ") and flag in err
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_unknown_flag_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "sigsize", "--bogus")
        assert code == 1

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupted(params):
            raise KeyboardInterrupt

        monkeypatch.setattr("facedct.cli.required_n", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["sigsize", "--p", "0.1", "--iid"])

    @given(byte_edits)
    @settings(max_examples=150, deadline=None)
    def test_det_export_of_a_byte_edited_score_file_writes_or_names_it(self, edits):
        tensor = ScoreTensor(("a", "b"), ("a", "b", "c"), np.arange(12.0).reshape(2, 3, 2) / 7)
        with tempfile.TemporaryDirectory() as tmp:
            scores, det_csv, det_svg = (Path(tmp) / n for n in ("scores.csv", "d.csv", "d.svg"))
            scores.write_bytes(apply_byte_edits(scores_to_csv(tensor).encode(), edits))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["det-export", "--scores", str(scores),
                             "--out", str(det_csv), "--svg", str(det_svg)])
            if code == 0:
                assert det_csv.is_file() and det_svg.is_file()
            else:
                assert code == 2
                assert err.getvalue().startswith(f"data error: {scores}: ")

    def test_fusion_spec_naming_a_channel_twice_is_validation_error(
        self, dataset, tmp_path, capsys
    ):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        code, _, err = run_cli(
            capsys,
            "fuse-eval", "--config", str(cfg), "--fusion", "sum:r,r",
            "--out", str(tmp_path / "fres"),
        )
        assert code == 1
        assert "names channel 'r' twice" in err
        assert not (tmp_path / "fres").exists()

    def test_unreadable_scores_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "scores.csv"
        bad.write_text("not a scores file")
        code, _, err = run_cli(
            capsys, "det-export", "--scores", str(bad), "--out", str(tmp_path / "d.csv")
        )
        assert code == 2

    def test_malformed_subject_header_is_data_error(self, tmp_path, capsys):
        text = scores_to_csv(ScoreTensor(("a",), ("a",), np.ones((1, 1, 1)), "mse"))
        scores = tmp_path / "scores.csv"
        scores.write_text(text.replace('# probe_subjects=["a"]', "# probe_subjects=5"))
        code, _, err = run_cli(
            capsys, "det-export", "--scores", str(scores), "--out", str(tmp_path / "d.csv")
        )
        assert code == 2
        assert "probe_subjects" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (b"# metric=mse", b"# metric=\xff", "score file line 2 is not UTF-8"),
            (b"format=facedct-scores-v1", b"format=other", "not a facedct-scores-v1 score file"),
            (b"# metric=mse\n", b"", "score file header incomplete: 'metric'"),
            (b'probe_subjects=["a", "b"]', b"probe_subjects=5",
             "score file header probe_subjects is not a JSON list of strings"),
            (b"i,j,k,score", b"i,j,score", "score file missing i,j,k,score header row"),
            (b"i,j,k,score\n0,0,0,0.5\n0,1,0,1\n1,0,0,2\n1,1,0,0.25\n", b"i,j,k,score\n",
             "score file has no rows"),
            (b"0,1,0,1\n", b"0,1,x,1\n",
             "malformed score row at line 7: '0,1,x,1' (expected i,j,k,score)"),
            (b"1,1,0,", b"1,2,0,", "score cell index (1,2,0) out of bounds (2, 2, 1)"),
            (b"1,1,0,0.25\n", b"", "score file has 3 cells, expected 4 for shape (2, 2, 1)"),
            (b"1,1,0,", b"1,0,0,", "score cell (1,0,0) appears more than once"),
            (b"0.25", b"-0.25", "invalid score tensor: distances must be >= 0"),
            (b"0.25", b"nan", "invalid score tensor: scores must be finite"),
        ],
        ids=[
            "not-utf8", "format", "header-incomplete", "subjects-not-list", "no-header-row",
            "no-rows", "malformed-row", "out-of-bounds", "cell-count", "duplicate-cell",
            "negative", "nan",
        ],
    )
    def test_bad_score_file_names_it(self, tmp_path, capsys, old, new, message):
        cells = np.array([[[0.5], [1.0]], [[2.0], [0.25]]])
        text = scores_to_csv(ScoreTensor(("a", "b"), ("a", "b"), cells, "mse")).encode()
        assert text.count(old) == 1
        scores = tmp_path / "scores.csv"
        scores.write_bytes(text.replace(old, new))
        code, _, err = run_cli(
            capsys, "det-export", "--scores", str(scores), "--out", str(tmp_path / "d.csv")
        )
        assert code == 2
        assert err == f"data error: {scores}: {message}\n"
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("error", [RuntimeError, ValueError])
    def test_internal_error_maps_to_three(self, monkeypatch, capsys, error):
        import facedct.cli as cli_mod

        def boom(args):
            raise error("wiring fault")

        monkeypatch.setitem(
            cli_mod.__dict__, "cmd_sigsize", boom
        )
        parser_backed = cli_mod.build_parser.__wrapped__()
        # rebuild dispatch through main with the patched command
        monkeypatch.setattr(cli_mod, "build_parser", lambda: parser_backed)
        for action in parser_backed._subparsers._group_actions[0].choices.values():
            if action.get_default("func") is not None and action.prog.endswith("sigsize"):
                action.set_defaults(func=boom)
        code, _, err = run_cli(capsys, "sigsize", "--p", "0.1")
        assert code == 3
        assert "internal error" in err

    @pytest.mark.parametrize(
        "name, value",
        [
            ("dcf", 5),
            ("dcf", {"c_miss": None}),
            ("window", None),
            ("dim", None),
            ("metrics", 5),
            ("metrics", []),
            ("output_dir", 7),
            ("manifest", 5),
            ("window", 10**6),
            ("metrics", ["mse", "mse"]),
            ("dim", 10**6),
            ("metrics", ["euclid"]),
            ("channel", "purple"),
            ("dcf", {"c_miss": -1.0}),
            ("train_indices", ["x"]),
            ("bogus", 1),
            # an integer is no bool and no fraction, a cost is finite, and a
            # name or a path is a string
            ("window", 32.7),
            ("window", True),
            ("window", math.inf),
            ("train_indices", [1.9, 2]),
            ("dcf", {"c_miss": math.nan}),
            ("dcf", {"c_fa": math.inf}),
            ("channel", None),
            ("output_dir", False),
        ],
    )
    def test_config_field_of_the_wrong_type_is_validation_error(
        self, dataset, tmp_path, capsys, name, value
    ):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        payload = json.loads(cfg.read_text())
        payload[name] = value
        cfg.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g"))
        assert code == 1
        assert err.startswith("validation error: ")
        assert f"'{name}" in err

    def test_unknown_dcf_key_is_named_as_an_unknown_field(self, dataset, tmp_path, capsys):
        # a misspelt cost is an error, not a cost left at its default
        cfg = write_config(tmp_path / "cfg.json", dataset)
        payload = json.loads(cfg.read_text())
        payload["dcf"] = {"c_miss": 2.0, "c_mis": 5}
        cfg.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g"))
        assert code == 1
        assert err == f"validation error: {cfg}: unknown config fields: ['dcf.c_mis']\n"
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "config must be a JSON object"),
            ('{"window": 32}', "config is missing the 'manifest' field"),
            ('{"manifest": "m.json", "dcf": 2}',
             "config field 'dcf' must be an object with c_miss and c_fa"),
        ],
        ids=["not-an-object", "no-manifest", "dcf-not-an-object"],
    )
    def test_config_of_the_wrong_shape_is_validation_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _, err = run_cli(capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g"))
        assert code == 1
        assert err == f"validation error: {cfg}: {message}\n"

    @pytest.mark.parametrize("name", ["manifest", "output_dir"])
    def test_a_path_with_a_lone_surrogate_is_validation_error(
        self, dataset, tmp_path, capsys, name
    ):
        # it names no file: open() and mkdir() raise UnicodeEncodeError on it
        cfg = write_config(tmp_path / "cfg.json", dataset)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), name: "\ud800"}))
        code, _, err = run_cli(capsys, "evaluate", "--config", str(cfg), "--gallery", "gal")
        assert (code, err) == (1, f"validation error: config field {name!r}: 'utf-8' codec can't "
                                  "encode character '\\ud800' in position 0: surrogates not allowed\n")

    @pytest.mark.parametrize(
        "name, value, loaded",
        [
            ("window", "32", 32),
            ("dim", 64.0, 64),
            ("metrics", "mse,mad", ("mse", "mad")),
            ("metric", ["MAD"], ("mad",)),
            ("dcf", {"c_miss": "2"}, 2.0),
            ("output_dir", "", None),
        ],
    )
    def test_config_values_of_a_lenient_type_still_load(self, dataset, tmp_path, name, value, loaded):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        payload = json.loads(cfg.read_text())
        payload.pop("metrics")
        payload[name] = value
        cfg.write_text(json.dumps(payload))
        attr = {"metric": "metrics", "dcf": "c_miss"}.get(name, name)
        assert getattr(load_config(cfg, argparse.Namespace()), attr) == loaded

    @pytest.mark.parametrize(
        "command, flags, named",
        [
            (["enroll"], ["--window", str(10**6)], "'window'"),
            (["fuse-eval", "--fusion", "sum:gray"], ["--metric", "mse", "--metric", "mse"], "'mse'"),
        ],
        ids=["window", "repeated-metric"],
    )
    def test_bad_flag_value_is_validation_error(
        self, dataset, tmp_path, capsys, command, flags, named
    ):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        code, _, err = run_cli(
            capsys, *command, "--config", str(cfg), *flags, "--out", str(tmp_path / "g")
        )
        assert code == 1
        assert err.startswith("validation error: ") and named in err

    def test_a_manifest_of_the_wrong_shape_names_it(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]")
        cfg = write_config(tmp_path / "cfg.json", manifest)
        code, _, err = run_cli(capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g"))
        assert (code, err) == (
            2, f"data error: {manifest}: manifest must be a non-empty JSON object\n"
        )

    @pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
    @pytest.mark.parametrize("which, expected", [("config", 1), ("manifest", 2)])
    def test_unreadable_config_or_manifest_names_it(
        self, dataset, tmp_path, capsys, which, expected, kind
    ):
        manifest = tmp_path / "manifest.json"
        cfg = write_config(tmp_path / "cfg.json", manifest)
        bad = {"config": cfg, "manifest": manifest}[which]
        bad.unlink(missing_ok=True)
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b'{"s0": ["\xff.pgm"]}')
        code, _, err = run_cli(capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g"))
        assert code == expected
        assert str(bad) in err

    @pytest.fixture(scope="class")
    def gallery_dir(self, dataset, tmp_path_factory):
        root = tmp_path_factory.mktemp("window")
        cfg = write_config(root / "cfg.json", dataset)
        assert main(["enroll", "--config", str(cfg), "--out", str(root / "gal"), "--text"]) == 0
        return root

    @pytest.mark.parametrize("window", [4, "abc", 10**6])
    @pytest.mark.parametrize("command", ["identify", "evaluate"])
    def test_inconsistent_gallery_window_is_data_error(
        self, gallery_dir, dataset, tmp_path, capsys, command, window
    ):
        # feature_dim 64 needs a window of at least 8
        gallery = tmp_path / "gal"
        gallery.mkdir()
        (gallery / "vectors.csv").write_bytes((gallery_dir / "gal" / "vectors.csv").read_bytes())
        manifest = json.loads((gallery_dir / "gal" / "gallery.json").read_text())
        manifest["meta"]["window"] = window
        (gallery / "gallery.json").write_text(json.dumps(manifest))
        probe = dataset.parent / next(iter(json.loads(dataset.read_text()).values()))[0]
        args = {
            "identify": ["identify", "--image", str(probe)],
            "evaluate": ["evaluate", "--config", str(gallery_dir / "cfg.json"),
                         "--out", str(tmp_path / "res")],
        }[command]
        code, _, err = run_cli(capsys, *args, "--gallery", str(gallery))
        assert code == 2
        assert "data error" in err
        assert str(gallery) in err

    @pytest.fixture
    def wide_gallery(self, tmp_path):
        """A gallery saved without meta.window whose dim, 5000, fits neither the
        default window (64) nor the config's (32)."""
        gallery = Gallery()
        gallery.enroll("s0", FeatureVector(np.ones(5000)))
        save_gallery(gallery, tmp_path / "wide")
        return tmp_path / "wide"

    def test_identify_with_a_dim_past_the_default_window_is_data_error(
        self, dataset, wide_gallery, capsys
    ):
        probe = dataset.parent / next(iter(json.loads(dataset.read_text()).values()))[0]
        code, out, err = run_cli(
            capsys, "identify", "--gallery", str(wide_gallery), "--image", str(probe)
        )
        assert (code, out) == (2, "")
        assert err == (
            f"data error: gallery {wide_gallery}: dim 5000 does not fit the default "
            "window 64 (at most 4096)\n"
        )

    def test_evaluate_with_a_dim_past_the_config_window_is_validation_error(
        self, gallery_dir, wide_gallery, tmp_path, capsys
    ):
        code, out, err = run_cli(
            capsys, "evaluate", "--config", str(gallery_dir / "cfg.json"),
            "--gallery", str(wide_gallery), "--out", str(tmp_path / "res"),
        )
        assert (code, out) == (1, "")
        assert err == (
            f"validation error: config field 'window' for gallery {wide_gallery}: "
            "32 must be an integer in [1, 4096] and dim 5000 in [1, window²]\n"
        )
        assert not (tmp_path / "res").exists()

    def test_missing_probe_image_is_data_error(self, gallery_dir, tmp_path, capsys):
        missing = tmp_path / "nonexistent.pgm"
        code, _, err = run_cli(
            capsys, "identify", "--gallery", str(gallery_dir / "gal"), "--image", str(missing)
        )
        assert code == 2
        assert "data error" in err
        assert str(missing) in err

    def test_truncated_probe_image_names_the_file(self, gallery_dir, tmp_path, capsys):
        probe = tmp_path / "truncated.pgm"
        probe.write_bytes(b"P5\n4 4\n255\nxx")
        code, _, err = run_cli(
            capsys, "identify", "--gallery", str(gallery_dir / "gal"), "--image", str(probe)
        )
        assert code == 2
        assert "data error" in err
        assert str(probe) in err

    def test_directory_listed_as_image_is_data_error(self, tmp_path, capsys):
        root = tmp_path / "ds"
        (root / "s0" / "1.pgm").mkdir(parents=True)
        manifest = root / "manifest.json"
        manifest.write_text(json.dumps({"s0": ["s0/1.pgm"]}))
        cfg = write_config(tmp_path / "cfg.json", manifest, train_indices=[1], test_indices=[2])
        code, _, err = run_cli(
            capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g")
        )
        assert code == 2
        assert "data error" in err
        assert str(root / "s0" / "1.pgm") in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_scores_path_is_data_error(self, tmp_path, capsys, kind):
        scores = tmp_path / "scores.csv"
        if kind == "directory":
            scores.mkdir()
        code, _, err = run_cli(
            capsys, "det-export", "--scores", str(scores), "--out", str(tmp_path / "d.csv")
        )
        assert code == 2
        assert "data error" in err
        assert str(scores) in err

    @pytest.mark.parametrize("name", ["gallery.json", "vectors.csv", "templates.npy"])
    def test_unreadable_gallery_file_is_data_error(
        self, gallery_dir, dataset, tmp_path, capsys, name
    ):
        gallery = tmp_path / "gal"
        shutil.copytree(gallery_dir / "gal", gallery)
        if name == "vectors.csv":
            # read only when templates.npy is stale
            (gallery / "templates.npy").write_bytes(b"stale")
        (gallery / name).unlink()
        (gallery / name).mkdir()
        probe = dataset.parent / next(iter(json.loads(dataset.read_text()).values()))[0]
        code, _, err = run_cli(
            capsys, "identify", "--gallery", str(gallery), "--image", str(probe)
        )
        assert code == 2
        assert "data error" in err
        assert str(gallery / name) in err

    def test_gallery_json_nested_past_the_parser_limit_is_data_error(
        self, gallery_dir, dataset, tmp_path, capsys
    ):
        gallery = tmp_path / "gal"
        shutil.copytree(gallery_dir / "gal", gallery)
        (gallery / "gallery.json").write_text("[" * 100_000)
        probe = dataset.parent / next(iter(json.loads(dataset.read_text()).values()))[0]
        code, _, err = run_cli(
            capsys, "identify", "--gallery", str(gallery), "--image", str(probe)
        )
        assert code == 2
        assert err.startswith(f"data error: unreadable {gallery / 'gallery.json'}: ")

    @pytest.mark.parametrize("which, expected", [("config", 1), ("manifest", 2)])
    def test_config_or_manifest_nested_past_the_parser_limit_names_it(
        self, dataset, tmp_path, capsys, which, expected
    ):
        manifest = tmp_path / "manifest.json"
        cfg = write_config(tmp_path / "cfg.json", manifest)
        bad = {"config": cfg, "manifest": manifest}[which]
        bad.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run_cli(capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g"))
        assert code == expected
        assert f"unreadable {which} {bad}: " in err

    def test_score_header_nested_past_the_parser_limit_is_data_error(self, tmp_path, capsys):
        text = scores_to_csv(ScoreTensor(("a",), ("a",), np.ones((1, 1, 1)), "mse"))
        scores = tmp_path / "scores.csv"
        nested = "[" * 100_000 + "]" * 100_000
        scores.write_text(text.replace('# probe_subjects=["a"]', f"# probe_subjects={nested}"))
        code, _, err = run_cli(
            capsys, "det-export", "--scores", str(scores), "--out", str(tmp_path / "d.csv")
        )
        assert code == 2
        assert err.startswith(f"data error: {scores}: unreadable score file header probe_subjects: ")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("command", ["enroll", "evaluate", "fuse-eval"])
    def test_output_directory_that_is_a_file_names_it(
        self, gallery_dir, tmp_path, capsys, command
    ):
        out = tmp_path / "taken"
        out.write_text("")
        cfg = str(gallery_dir / "cfg.json")
        args = {
            "enroll": ["enroll", "--config", cfg],
            "evaluate": ["evaluate", "--config", cfg, "--gallery", str(gallery_dir / "gal")],
            "fuse-eval": ["fuse-eval", "--config", cfg, "--fusion", "sum:gray"],
        }[command]
        code, _, err = run_cli(capsys, *args, "--out", str(out))
        assert code == 1
        assert err.startswith(f"output error: cannot write {out}/")
        assert out.read_text() == ""

    def test_failed_write_leaves_no_partial_artifact(
        self, gallery_dir, tmp_path, capsys, monkeypatch
    ):
        args = ["evaluate", "--config", str(gallery_dir / "cfg.json"),
                "--gallery", str(gallery_dir / "gal"), "--out"]
        real_write_chunks = errors._write_chunks
        calls = []

        def write_chunks(path, chunks):  # the det.csv write fails half-way
            calls.append(path)
            if path.name.startswith(".det.csv."):
                data = b"".join(chunks)
                real_write_chunks(path, [data[: len(data) // 2]])
                raise OSError("no space left on device")
            return real_write_chunks(path, chunks)

        monkeypatch.setattr(errors, "_write_chunks", write_chunks)
        code, _, err = run_cli(capsys, *args, str(tmp_path / "res"))
        monkeypatch.undo()
        # the temporary names show the write order: the sidecar, the CSV, the manifest
        assert [p.name.rsplit(".", 2)[0] for p in calls] == [
            ".scores.npy", ".scores.csv", ".scores.json", ".det.csv"
        ]
        assert code == 1
        assert f"cannot write {tmp_path / 'res' / 'det.csv'}: no space" in err
        # the score file and its sidecars were written whole before the
        # failure; det.csv not at all
        written = ["scores.csv", "scores.json", "scores.npy"]
        assert sorted(p.name for p in (tmp_path / "res").iterdir()) == written
        assert run_cli(capsys, *args, str(tmp_path / "whole"))[0] == 0
        for name in written:
            assert (tmp_path / "res" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    @pytest.mark.parametrize("failing", ["scores.csv", "scores.json"])
    def test_evaluate_cut_before_its_manifest_leaves_no_trusted_sidecar(
        self, gallery_dir, tmp_path, capsys, monkeypatch, failing
    ):
        args = ["evaluate", "--config", str(gallery_dir / "cfg.json"),
                "--gallery", str(gallery_dir / "gal"), "--out"]
        out = tmp_path / "res"
        assert run_cli(capsys, *args, str(out), "--metric", "mad")[0] == 0
        real_write_chunks = errors._write_chunks

        def write_chunks(path, chunks):
            if path.name.startswith(f".{failing}."):
                raise OSError("no space left on device")
            return real_write_chunks(path, chunks)

        monkeypatch.setattr(errors, "_write_chunks", write_chunks)
        code, _, err = run_cli(capsys, *args, str(out), "--metric", "mse")
        monkeypatch.undo()
        assert code == 1
        assert f"cannot write {out / failing}: no space" in err
        # the new scores.npy is in place, and no manifest pins it
        assert sorted(p.name for p in out.iterdir())[-1] == "scores.npy"
        assert not (out / "scores.json").exists()
        spy = mock.Mock(wraps=matching._load_score_rows)
        monkeypatch.setattr(matching, "_load_score_rows", spy)
        code, err = det_export(out / "scores.csv", tmp_path / "det")
        if failing == "scores.csv":
            assert code == 2
            assert err.startswith(f"data error: cannot read {out / 'scores.csv'}: ")
            return
        assert (code, spy.call_count) == (0, 1)
        assert run_cli(capsys, *args, str(tmp_path / "whole"), "--metric", "mse")[0] == 0
        assert (tmp_path / "det.csv").read_bytes() == (tmp_path / "whole" / "det.csv").read_bytes()

    @pytest.mark.parametrize(
        "make, save_kwargs, reason",
        [
            (lambda m: m.astype(object), {"allow_pickle": True},
             "{npy} holds a |O array of shape (2, 3, 2), not <f8 of shape (2, 3, *)"),
            (lambda m: m.astype(np.float32), {}, "{npy} holds a <f4 array of shape (2, 3, 2)"),
            (lambda m: m.astype(">f8"), {}, "{npy} holds a >f8 array of shape (2, 3, 2)"),
            (lambda m: m[:, :2], {},
             "{npy} holds a <f8 array of shape (2, 2, 2), not <f8 of shape (2, 3, *)"),
            (lambda m: m[..., 0], {}, "{npy} holds a <f8 array of shape (2, 3), not"),
            (lambda m: np.where(m == m[1, 2, 0], np.inf, m), {}, "{npy} has a non-finite score"),
            (lambda m: m - 1, {}, "{npy}: invalid score tensor: distances must be >= 0"),
        ],
        ids=["pickled", "float32", "big-endian", "shape", "2-d", "non-finite", "negative"],
    )
    def test_pinned_bad_score_sidecar_names_it(self, tmp_path, capsys, make, save_kwargs, reason):
        scores = tmp_path / "scores.csv"
        tensor = ScoreTensor(("a", "b"), ("a", "b", "c"), np.arange(12.0).reshape(2, 3, 2) / 7)
        save_scores_csv(tensor, scores)
        npy = io.BytesIO()
        np.save(npy, make(np.array(tensor.scores)), **save_kwargs)
        pin(scores, "scores.npy", npy.getvalue())
        code, err = det_export(scores, tmp_path / "d")
        assert code == 2
        assert err.startswith("data error: ")
        assert reason.format(npy=tmp_path / "scores.npy") in err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("layout", ["format-2.0", "fortran", "trailing"])
    def test_a_pinned_npy_in_a_layout_no_save_wrote_names_it(
        self, gallery_dir, dataset, tmp_path, capsys, layout
    ):
        # np.load reads each of these; the readers take only the layout every save wrote
        def npy(array):
            out = io.BytesIO()
            if layout == "format-2.0":
                np.lib.format.write_array(out, array, version=(2, 0))
            else:
                np.save(out, np.asfortranarray(array) if layout == "fortran" else array)
            return out.getvalue() + (b"\0" * 8 if layout == "trailing" else b"")

        scores = tmp_path / "scores.csv"
        tensor = ScoreTensor(("a", "b"), ("a", "b", "c"), np.arange(12.0).reshape(2, 3, 2) / 7)
        save_scores_csv(tensor, scores)
        pin(scores, "scores.npy", npy(tensor.scores))
        code, err = det_export(scores, tmp_path / "d")
        assert (code, err.count("\n")) == (2, 1)
        assert err.startswith(f"data error: corrupt {tmp_path / 'scores.npy'}: ")

        gallery = Path(shutil.copytree(gallery_dir / "gal", tmp_path / "gal"))
        data = npy(load_gallery(gallery)[0].matrix)
        (gallery / "templates.npy").write_bytes(data)
        manifest = json.loads((gallery / "gallery.json").read_text())
        manifest["sha256"]["templates.npy"] = hashlib.sha256(data).hexdigest()
        (gallery / "gallery.json").write_text(json.dumps(manifest))
        probe = dataset.parent / next(iter(json.loads(dataset.read_text()).values()))[0]
        code, out, err = run_cli(
            capsys, "identify", "--gallery", str(gallery), "--image", str(probe)
        )
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith(f"data error: corrupt {gallery / 'templates.npy'}: ")

    def test_a_pinned_score_file_names_the_file_of_its_fault(self, tmp_path):
        # its header is read beside the pinned scores.npy, then its cells
        scores = tmp_path / "scores.csv"
        save_scores_csv(ScoreTensor(("a", "b"), ("a", "b"), np.ones((2, 2, 1)), "mse"), scores)
        text = scores.read_bytes()
        pin(scores, "scores.csv", text.replace(b"facedct-scores-v1", b"other"))
        assert det_export(scores, tmp_path / "d") == (
            2, f"data error: {scores}: not a facedct-scores-v1 score file\n"
        )
        pin(scores, "scores.csv", text)
        negative = io.BytesIO()
        np.save(negative, -np.ones((2, 2, 1)))
        pin(scores, "scores.npy", negative.getvalue())
        npy = tmp_path / "scores.npy"
        assert det_export(scores, tmp_path / "d") == (
            2, f"data error: {npy}: invalid score tensor: distances must be >= 0\n"
        )

    @pytest.mark.parametrize(
        "command, record, failing, flag, first, second",
        [
            ("evaluate", "results.json", "det.csv", "--metric", "mse", "mad"),
            ("enroll", "provenance.json", "gallery.json", "--dim", "64", "36"),
        ],
        ids=["evaluate-results.json-det.csv", "enroll-provenance.json-gallery.json"],
    )
    def test_failed_rerun_leaves_no_old_record(
        self, gallery_dir, tmp_path, capsys, monkeypatch, command, record, failing,
        flag, first, second,
    ):
        # a first run, then a differing run into the same directory that fails half-way
        out = tmp_path / "out"
        base = [command, "--config", str(gallery_dir / "cfg.json"), "--out", str(out)]
        if command == "evaluate":
            base += ["--gallery", str(gallery_dir / "gal")]
        assert run_cli(capsys, *base, flag, first)[0] == 0
        assert (out / record).is_file()
        real_write_chunks = errors._write_chunks

        def write_chunks(path, chunks):
            if path.name.startswith(f".{failing}."):
                raise OSError("no space left on device")
            return real_write_chunks(path, chunks)

        monkeypatch.setattr(errors, "_write_chunks", write_chunks)
        code, _, err = run_cli(capsys, *base, flag, second)
        monkeypatch.undo()
        assert code == 1
        assert f"cannot write {out / failing}: no space" in err
        # enroll's atomic write leaves the first run's file in place; evaluate
        # removed every file of the first run before its first write
        assert (out / failing).is_file() == (command == "enroll")
        assert not (out / record).exists()
