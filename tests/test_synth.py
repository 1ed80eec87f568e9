"""The bytes of the synthetic datasets, pinned.

Every recorded benchmark figure and every byte-identity check of the CLI's
outputs is taken on datasets made by ``generate_dataset``, so a change to
the generator must keep each byte it writes.  Each digest below is the
sha256 of the sorted lines ``<relative path> <sha256 of the file>`` of
every file under the output directory, ``manifest.json`` included.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from facedct.cli import main
from facedct.features import idct2
from facedct.synth import PLACEMENTS, SynthSpec, _base_plane, generate_dataset

#: (placement, sigma) -> digest of 5 subjects x 3 samples, 13 wide, 11 high, seed 1
DIGESTS = {
    ("gray", 0.0):
        "2c5380d2ea2c5d3a97b2c9abd47713ff65239acc02ba0f6daae2de2a3f4429a5",
    ("gray", 0.8):
        "6cdd724d51de866ffe8fb5607f3e14f6862958a27d31d01f020b7d5075271657",
    ("rgb-equal", 0.0):
        "2610877dab722b5208ee59bfdfc4b8b1a1f5052341c3f75e4caec52cddd1afed",
    ("rgb-equal", 0.8):
        "0474b340daccfd269d54e13b3faaf857bcfcf683a827209532c3dfddaa73be9a",
    ("rgb", 0.0):
        "3a9dab10359097e94ffd52937b303618d6632e8a09ed589fa051b71aac591e31",
    ("rgb", 0.8):
        "9d20c47ed04a4b20e9774bda1dfc38a79280f2cec68011cda2762cf058d94a7f",
    ("r-only", 0.0):
        "5d7cb9faea643d8c88980874fcffce5bb6efc050afdc68915ca42e6e33562cbe",
    ("r-only", 0.8):
        "29ac158e17c8e6ef2eb36cb943ea805b4bd578e3c6a25768fcde58cbabb40bb8",
    ("g-only", 0.0):
        "11751e84d0859bdaf06264b47e273d3bb37b0765b82ed3b70b126fabd0639022",
    ("g-only", 0.8):
        "7ed67079653af8adf45d435da2a60b237dfbd0e1cafa0e751e39a0d792e24390",
    ("b-only", 0.0):
        "446bfc6d3a246641961bceeed530ef4d4fc48bf4acbcdd208f069fb2b3a503dc",
    ("b-only", 0.8):
        "2a272cd605f52c604300a3ee29b1474b2cc938a6604cda9f41ed08f3cc2f78c4",
}

CLI_DIGEST = "448c74f359b48b20cc922e29f8654f1ae4131da1072953ce48f9b8f7c383f648"


def tree_digest(root: Path) -> str:
    lines = sorted(
        f"{p.relative_to(root).as_posix()} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in root.rglob("*")
        if p.is_file()
    )
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def expected_names(subjects: int, samples: int, suffix: str) -> set[str]:
    names = {f"s{s:03d}/{n:02d}{suffix}" for s in range(subjects) for n in range(1, samples + 1)}
    return names | {"manifest.json"}


def test_every_placement_is_pinned():
    assert {p for p, _ in DIGESTS} == set(PLACEMENTS)


@pytest.mark.parametrize("placement, sigma", sorted(DIGESTS))
def test_generated_bytes_are_pinned(tmp_path, placement, sigma):
    spec = SynthSpec(5, 3, sigma, seed=1, width=13, height=11, placement=placement)
    manifest = generate_dataset(spec, tmp_path)
    assert manifest == tmp_path / "manifest.json"
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    assert written == expected_names(5, 3, ".pgm" if placement == "gray" else ".ppm")
    assert tree_digest(tmp_path) == DIGESTS[placement, sigma]


def test_synth_data_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "set"
    code = main([
        "synth-data", "--subjects", "4", "--samples", "2", "--noise", "0.3", "--seed", "7",
        "--width", "9", "--height", "12", "--placement", "rgb", "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out == (
        f"synthetic dataset (4 subjects x 2 samples) -> {out / 'manifest.json'}\n"
    )
    assert tree_digest(out) == CLI_DIGEST


@pytest.mark.parametrize("height, width", [(96, 80), (64, 64), (11, 13), (4, 4), (5, 9)])
def test_a_base_plane_is_the_rescaled_idct2_of_its_spectrum(height, width):
    # the generator multiplies the k x k coefficients by the first k basis
    # vectors of each side only; idct2 of the zero-padded spectrum is the
    # reference, bit for bit
    k = min(6, height, width)
    damp = 1.0 / (1.0 + np.add.outer(np.arange(k), np.arange(k, dtype=np.float64)))
    for seed in range(20):
        spectrum = np.zeros((height, width))
        spectrum[:k, :k] = np.random.default_rng(seed).standard_normal((k, k)) * damp
        plane = idct2(spectrum)
        lo, hi = plane.min(), plane.max()
        want = 0.2 + 0.6 * (plane - lo) / (hi - lo)
        got = _base_plane(np.random.default_rng(seed), height, width)
        assert got.tobytes() == want.tobytes()
