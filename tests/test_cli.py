"""CLI behavior: subcommands, determinism, exit-code contract."""

import argparse
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from facedct.cli import load_config, main
from facedct.features import FeatureVector, extract_features
from facedct.gallery import Gallery, save_gallery
from facedct.imageio import RasterImage, prepare_plane, read_pnm_file, write_pnm_file
from facedct.matching import ScoreTensor, build_score_tensor, scores_to_csv


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

    def test_invalid_spec_is_validation_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "synth-data", "--subjects", "0", "--samples", "1",
            "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 1
        assert "validation error" in err


class TestEnroll:
    def test_creates_gallery_and_is_deterministic(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        code, out, _ = run_cli(
            capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g1")
        )
        assert code == 0
        assert "18 templates for 6 subjects" in out
        code, _, _ = run_cli(
            capsys, "enroll", "--config", str(cfg), "--out", str(tmp_path / "g2")
        )
        assert code == 0
        for name in ["gallery.json", "vectors.csv", "provenance.json"]:
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


class TestIdentifyContract:
    """identify answers the lexicographically first argmin of the probe's row
    in build_score_tensor, with that cell's distance bit for bit."""

    WINDOW, DIM = 8, 10

    @pytest.fixture
    def probe(self, tmp_path):
        rng = np.random.default_rng(3)
        img = RasterImage(8, 8, 1, 255, rng.integers(0, 256, 64))
        path = tmp_path / "probe.pgm"
        write_pnm_file(img, path)
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

    def test_bad_fusion_spec(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        code, _, err = run_cli(
            capsys,
            "fuse-eval", "--config", str(cfg), "--fusion", "median:R,G",
            "--out", str(tmp_path / "x"),
        )
        assert code == 1


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

        def counting(path):
            paths.append(str(path))
            return read_pnm_file(path)

        monkeypatch.setattr(pipeline_mod, "read_pnm_file", counting)
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
        write_pnm_file(RasterImage(16, 16, 1, 255, np.zeros(256, dtype=np.int64)), gray)
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


class TestExitCodes:
    def test_unknown_flag_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "sigsize", "--bogus")
        assert code == 1

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

    def test_internal_error_maps_to_three(self, monkeypatch, capsys):
        import facedct.cli as cli_mod

        def boom(args):
            raise RuntimeError("wiring fault")

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
        "flags, named",
        [(["--window", str(10**6)], "'window'"), (["--metric", "mse", "--metric", "mse"], "'mse'")],
        ids=["window", "repeated-metric"],
    )
    def test_bad_flag_value_is_validation_error(self, dataset, tmp_path, capsys, flags, named):
        cfg = write_config(tmp_path / "cfg.json", dataset)
        code, _, err = run_cli(
            capsys, "enroll", "--config", str(cfg), *flags, "--out", str(tmp_path / "g")
        )
        assert code == 1
        assert err.startswith("validation error: ") and named in err

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
        assert main(["enroll", "--config", str(cfg), "--out", str(root / "gal")]) == 0
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
        (gallery / name).unlink()
        (gallery / name).mkdir()
        probe = dataset.parent / next(iter(json.loads(dataset.read_text()).values()))[0]
        code, _, err = run_cli(
            capsys, "identify", "--gallery", str(gallery), "--image", str(probe)
        )
        assert code == 2
        assert "data error" in err
        assert str(gallery / name) in err

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
        real_write_bytes = Path.write_bytes
        calls = []

        def write_bytes(path, data):  # the second write (det.csv) fails half-way
            calls.append(path)
            if len(calls) == 2:
                real_write_bytes(path, data[: len(data) // 2])
                raise OSError("no space left on device")
            return real_write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", write_bytes)
        code, _, err = run_cli(capsys, *args, str(tmp_path / "res"))
        monkeypatch.undo()
        assert len(calls) == 2
        assert code == 1
        assert f"cannot write {tmp_path / 'res' / 'det.csv'}: no space" in err
        # scores.csv was written whole before the failure; det.csv not at all
        assert [p.name for p in (tmp_path / "res").iterdir()] == ["scores.csv"]
        assert run_cli(capsys, *args, str(tmp_path / "whole"))[0] == 0
        assert (tmp_path / "res" / "scores.csv").read_bytes() == (
            tmp_path / "whole" / "scores.csv"
        ).read_bytes()
