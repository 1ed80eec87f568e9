"""Featurizing and the score tensor in forked row shares: the rows come back
bit-identical to inline ones, a worker that fails, is killed or cannot start
leaves its share to the caller, a shared mapping that cannot be made leaves
every row to it, and an error is the inline path's error."""

import contextlib
import errno
import io
import json
import mmap
import os
import signal
from unittest import mock

import numpy as np
import pytest

from facedct import matching, pipeline
from facedct.cli import main
from facedct.gallery import Gallery
from facedct.imageio import PnmError
from facedct.matching import build_score_tensor
from facedct.pipeline import extract_subject_features
from facedct.synth import SynthSpec, generate_dataset

from forked import forked_shares

CHANNELS = ("r", "g", "b", "y")


def images(root, n, width=8, placement="rgb"):
    """Subject -> image paths of a synthetic set of ``n`` subjects, one image
    each, written under ``root`` on the first call."""
    if not (root / "manifest.json").exists():
        generate_dataset(SynthSpec(n, 1, 0.5, seed=n, width=width, height=width,
                                   placement=placement), root)
    manifest = json.loads((root / "manifest.json").read_text())
    return {s: [root / manifest[s][0]] for s in manifest}


def featurize(subjects):
    """The (C, N, D) array of extract_subject_features at window 8, dim 10."""
    galleries = extract_subject_features(subjects, CHANNELS, 10, 8)
    assert list(galleries) == list(CHANNELS)
    return np.stack([galleries[c].matrix for c in CHANNELS])


def probe_set(n_probe, n_trials, n_gallery=5, templates=2, seed=0):
    rng = np.random.default_rng(seed)
    ids = [f"s{j}" for j in range(max(n_probe, n_gallery))]
    gallery = Gallery._of_subjects(ids, [templates] * len(ids), "gray",
                                   rng.random((templates * len(ids), 6)))
    probes = Gallery._of_subjects(ids[:n_probe], [n_trials] * n_probe, "gray",
                                  rng.random((n_probe * n_trials, 6)))
    return probes, gallery


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@contextlib.contextmanager
def counted_forks():
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        yield fork


def failing_fork(fails):
    """os.fork whose call number ``fails`` raises EAGAIN, as with no process
    to be had; the calls go into the returned list."""
    real, calls = os.fork, []

    def fork():
        calls.append(1)
        if len(calls) == fails:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    return fork, calls


def in_worker_only(parent, real, action, call=1):
    """``real``, but in a forked worker ``action()`` comes first on its
    ``call``-th call."""
    calls = []

    def wrapped(*args, **kwargs):
        if os.getpid() != parent:
            calls.append(1)
            if len(calls) == call:
                action()
        return real(*args, **kwargs)

    return wrapped


class TestSharedMemoryShares:
    @pytest.mark.parametrize("n, forks", [(1, 0), (2, 1), (3, 2), (7, 2)])
    def test_features_are_bit_identical_to_inline(self, tmp_path, n, forks):
        subjects = images(tmp_path, n)
        with forked_shares(), counted_forks() as fork:
            shared = featurize(subjects)
        inline = featurize(subjects)
        assert fork.call_count == forks
        assert same_bits(shared, inline)

    @pytest.mark.parametrize(
        "n_probe, n_trials, forks", [(1, 1, 0), (2, 1, 1), (3, 1, 2), (7, 1, 2), (1, 7, 2)]
    )
    @pytest.mark.parametrize("metric", ["mse", "mad"])
    def test_tensors_are_bit_identical_to_inline(self, n_probe, n_trials, forks, metric):
        probes, gallery = probe_set(n_probe, n_trials, seed=n_probe * n_trials)
        inline = build_score_tensor(probes, gallery, metric)
        with forked_shares(), counted_forks() as fork:
            shared = build_score_tensor(probes, gallery, metric)
        assert fork.call_count == forks
        assert same_bits(shared.scores, inline.scores)
        assert (shared.probe_subjects, shared.gallery_subjects) == (
            inline.probe_subjects, inline.gallery_subjects
        )
        assert not shared.scores.flags.writeable

    def test_bad_images_in_two_shares_raise_the_first_one(self, tmp_path):
        # shares of 7 rows: 0-1, 2-3, 4-6
        subjects = images(tmp_path, 7)
        ids = sorted(subjects)
        for row in (1, 5):
            subjects[ids[row]][0].write_bytes(b"P5\n8 8\n255\n")  # truncated
        with pytest.raises(PnmError) as inline:
            featurize(subjects)
        with forked_shares(), counted_forks() as fork, pytest.raises(PnmError) as shared:
            featurize(subjects)
        assert fork.call_count == 2
        assert type(shared.value) is type(inline.value)
        assert str(shared.value) == str(inline.value)
        assert str(subjects[ids[1]][0]) in str(shared.value)

    @pytest.mark.parametrize("fails", [1, 2])
    def test_a_fork_that_fails_leaves_its_rows_to_the_caller(self, tmp_path, fails):
        subjects = images(tmp_path, 7)
        probes, gallery = probe_set(7, 1)
        steps = (lambda: featurize(subjects),
                 lambda: build_score_tensor(probes, gallery, "mse").scores)
        for step in steps:
            inline = step()
            fork, calls = failing_fork(fails)
            with forked_shares(), mock.patch.object(os, "fork", fork):
                assert same_bits(step(), inline)
            assert len(calls) == fails

    def test_a_shared_mapping_that_cannot_be_made_leaves_the_rows_inline(self, tmp_path):
        # as with no memory, or no mapping left to the process: nothing forks
        subjects = images(tmp_path, 7)
        probes, gallery = probe_set(7, 1)
        steps = (lambda: featurize(subjects),
                 lambda: build_score_tensor(probes, gallery, "mse").scores)
        no_memory = OSError(errno.ENOMEM, "Cannot allocate memory")
        for step in steps:
            inline = step()
            with forked_shares(), counted_forks() as fork, \
                    mock.patch.object(mmap, "mmap", side_effect=no_memory) as mapping:
                assert same_bits(step(), inline)
            assert (mapping.call_count, fork.call_count) == (1, 0)

    def test_a_worker_killed_mid_share_is_redone(self, tmp_path):
        subjects = images(tmp_path, 7)
        probes, gallery = probe_set(7, 2)
        inline = featurize(subjects), build_score_tensor(probes, gallery, "mad").scores
        parent = os.getpid()

        def die():
            os.kill(os.getpid(), signal.SIGKILL)

        # each worker dies on its second row, with its first written
        featurize_image = in_worker_only(parent, pipeline.featurize_image, die, call=2)
        subject_distances = in_worker_only(parent, matching.subject_distances, die, call=2)
        with forked_shares(), counted_forks() as fork, \
                mock.patch.object(pipeline, "featurize_image", featurize_image), \
                mock.patch.object(matching, "subject_distances", subject_distances):
            shared = featurize(subjects), build_score_tensor(probes, gallery, "mad").scores
        assert fork.call_count == 4
        assert same_bits(shared[0], inline[0]) and same_bits(shared[1], inline[1])

    def test_a_worker_error_is_recomputed_not_reported(self, tmp_path, capfd):
        # the worker exits 1 and prints nothing; the caller's rerun of its
        # share succeeds
        subjects = images(tmp_path, 3)
        inline = featurize(subjects)

        def fail():
            raise MemoryError("no memory in the worker")

        featurize_image = in_worker_only(os.getpid(), pipeline.featurize_image, fail)
        with forked_shares(), mock.patch.object(pipeline, "featurize_image", featurize_image):
            shared = featurize(subjects)
        assert same_bits(shared, inline)
        assert capfd.readouterr() == ("", "")


class TestOrlRgbStaysInline:
    """The floors keep an orl-rgb-sized step (200 images, a 40 x 40 x 5
    tensor) in the caller, however many CPUs there are, and split a
    feret-sized one (from 300 images, and 1000 x 1000 probes) on two."""

    def test_two_hundred_images_in_four_channels_never_fork(self, tmp_path):
        subjects = images(tmp_path, 200)
        with mock.patch("facedct.shares.usable_cpus", lambda: 64), \
                mock.patch.object(os, "fork") as fork:
            featurize(subjects)
        fork.assert_not_called()

    def test_a_40_by_40_by_5_tensor_never_forks(self):
        probes, gallery = probe_set(40, 5, n_gallery=40, templates=5)
        with mock.patch("facedct.shares.usable_cpus", lambda: 64), \
                mock.patch.object(os, "fork") as fork:
            tensor = build_score_tensor(probes, gallery, "mse")
        fork.assert_not_called()
        assert tensor.scores.shape == (40, 40, 5)

    def test_feret_sized_steps_fork_on_two_cpus(self, tmp_path):
        # each fork fails, so the caller computes every row
        subjects = images(tmp_path, 300, placement="gray")
        probes, gallery = probe_set(1000, 1, n_gallery=1000)
        fork, calls = failing_fork(1)
        with mock.patch("facedct.shares.usable_cpus", lambda: 2), \
                mock.patch.object(os, "fork", fork):
            extract_subject_features(subjects, ("gray",), 10, 8)
            assert len(calls) == 1
            build_score_tensor(probes, gallery, "mse")
            assert len(calls) == 2


def quiet(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("row", [0, 3, 6])
def test_a_bad_pgm_in_any_share_fails_evaluate_as_inline(tmp_path, row):
    # 7 subjects x 2 samples; the test split's shares are rows 0-1, 2-3, 4-6
    generate_dataset(SynthSpec(7, 2, 0.5, seed=3, width=8, height=8), tmp_path / "data")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"manifest": "data/manifest.json", "train_indices": [1],
                                  "test_indices": [2], "window": 8, "dim": 4}))
    assert quiet(["enroll", "--config", str(config), "--out", str(tmp_path / "gal")]) == (0, "")
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
    bad = tmp_path / "data" / manifest[sorted(manifest)[row]][1]
    bad.write_bytes(b"P5\n8 8\n65536\n")  # maxval out of range

    def evaluate(out):
        return quiet(["evaluate", "--config", str(config), "--gallery", str(tmp_path / "gal"),
                      "--out", str(tmp_path / out)])

    code, err = evaluate("inline")
    with forked_shares(), counted_forks() as fork:
        assert evaluate("shares") == (code, err)
    assert fork.call_count == 2
    assert code == 2 and err.count("\n") == 1 and err.startswith("data error: ")
    assert str(bad) in err


def command_forks(root, spec, cfg, enroll_flags, fusion):
    """The forks of each command on the synthetic set ``spec``, as on a host
    with two usable CPUs."""
    generate_dataset(spec, root / "data")
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    config = root / "config.json"
    config.write_text(json.dumps({"manifest": "data/manifest.json", "window": 8, "dim": 10,
                                  "metrics": ["mse"], **cfg}))
    gallery, res = str(root / "gal"), root / "res"
    commands = {
        "enroll": ["enroll", "--config", str(config), "--out", gallery, *enroll_flags],
        "evaluate": ["evaluate", "--config", str(config), "--gallery", gallery,
                     "--out", str(res)],
        "det-export": ["det-export", "--scores", str(res / "scores.csv"),
                       "--out", str(root / "det.csv")],
        "fuse-eval": ["fuse-eval", "--config", str(config), "--out", str(root / "fused"),
                      *fusion],
        "identify": ["identify", "--gallery", gallery,
                     "--image", str(root / "data" / manifest[min(manifest)][0])],
    }
    forks = {}
    with mock.patch("facedct.shares.usable_cpus", lambda: 2), counted_forks() as fork:
        for name, argv in commands.items():
            before = fork.call_count
            assert quiet(argv) == (0, ""), name
            forks[name] = fork.call_count - before
    return forks


def test_forks_per_command_past_every_floor(tmp_path):
    # 450 images a split, and 450 x 450 pairs and cells, cross all three
    # floors on two CPUs: featurize (150 images a share), the tensor
    # (80,000 pairs) and the score text (100,000 cells)
    spec = SynthSpec(450, 2, 0.5, seed=2, width=8, height=8)
    cfg = {"train_indices": [1], "test_indices": [2], "channel": "gray"}
    forks = command_forks(tmp_path, spec, cfg, [], ["--fusion", "sum:gray"])
    assert forks == {"enroll": 1, "evaluate": 3, "det-export": 0, "fuse-eval": 3, "identify": 0}


def test_an_orl_sized_set_forks_in_no_command(tmp_path):
    spec = SynthSpec(40, 10, 0.5, seed=2, width=8, height=8, placement="rgb")
    cfg = {"train_indices": [1, 2, 3, 4, 5], "test_indices": [6, 7, 8, 9, 10]}
    forks = command_forks(tmp_path, spec, cfg, ["--channel", "y"],
                          ["--fusion", "sum:R,G,B", "--include-y"])
    assert forks == dict.fromkeys(["enroll", "evaluate", "det-export", "fuse-eval", "identify"], 0)
