"""Output checks that do not depend on bit-exact hashes.

Quality figures are recomputed here from ``scores.csv`` with the benchmark's
own reference code, so a correctness fix that moves a value by an ulp still
passes while a wrong answer fails.  Hashes are reported for information.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: EER / min-DCF may differ from the reference or the recorded value by this
#: much; an ulp-level change in a staircase formula is ~1e-16.
QUALITY_TOL = 1e-9


@dataclass(frozen=True)
class Scores:
    probe_subjects: list[str]
    gallery_subjects: list[str]
    cells: np.ndarray  # (probe, gallery, trial)


def read_scores(path: Path) -> Scores:
    """Parse a ``facedct-scores-v1`` file independently of the program."""
    meta: dict[str, str] = {}
    text = Path(path).read_text()
    lines = text.split("\n")
    n_comment = 0
    for line in lines:
        if not line.startswith("#"):
            break
        key, _, value = line[1:].strip().partition("=")
        meta[key] = value
        n_comment += 1
    if meta.get("format") != "facedct-scores-v1" or lines[n_comment] != "i,j,k,score":
        raise ValueError(f"{path} is not a facedct-scores-v1 file")
    probe = json.loads(meta["probe_subjects"])
    gallery = json.loads(meta["gallery_subjects"])
    body = [ln for ln in lines[n_comment + 1:] if ln]
    table = np.array(",".join(body).split(","), dtype=np.float64).reshape(-1, 4)
    idx = table[:, :3].astype(np.intp)
    shape = (len(probe), len(gallery), int(idx[:, 2].max()) + 1)
    cells = np.full(shape, np.nan)
    cells[idx[:, 0], idx[:, 1], idx[:, 2]] = table[:, 3]
    if np.isnan(cells).any() or len(table) != cells.size:
        raise ValueError(f"{path} does not fill its {shape} tensor exactly once")
    return Scores(probe, gallery, cells)


def genuine_columns(scores: Scores) -> np.ndarray:
    return np.array([scores.gallery_subjects.index(s) for s in scores.probe_subjects])


def reference_quality(scores: Scores) -> dict:
    """Rank-1 successes, EER and min-DCF (c_miss = c_fa = 1) from first principles.

    A probe succeeds when its genuine cell is the strict row minimum.  A
    trial is accepted when its distance is <= the threshold; the sweep runs
    over the midpoints of the pooled distinct scores plus +-inf.
    """
    s = scores.cells
    rows = np.arange(s.shape[0])
    gcols = genuine_columns(scores)
    genuine = s[rows, gcols, :]
    others = s.copy()
    others[rows, gcols, :] = np.inf
    successes = int(np.sum(genuine < others.min(axis=1)))

    mask = np.ones(s.shape[:2], dtype=bool)
    mask[rows, gcols] = False
    gen = np.sort(genuine.reshape(-1))
    imp = np.sort(s[mask, :].reshape(-1))
    pooled = np.unique(np.concatenate([gen, imp]))
    thresholds = np.concatenate(([-np.inf], (pooled[:-1] + pooled[1:]) / 2.0, [np.inf]))
    p_fa = np.searchsorted(imp, thresholds, side="right") / imp.size
    p_miss = (gen.size - np.searchsorted(gen, thresholds, side="right")) / gen.size

    fa, miss = p_fa[::-1], p_miss[::-1]  # threshold descending
    diff = fa - miss
    i = int(np.argmax(diff <= 0.0))
    if diff[i] == 0.0:
        eer = float(fa[i])
    else:
        t = diff[i - 1] / (diff[i - 1] - diff[i])
        eer = float(fa[i - 1] + t * (fa[i] - fa[i - 1]))

    empirical = gen.size / (gen.size + imp.size)
    min_dcf = {
        label: float(np.min(p_miss * p + p_fa * (1.0 - p)))
        for label, p in (("0.5", 0.5), ("empirical", empirical))
    }
    return {"successes": successes, "trials": int(genuine.size), "eer": eer, "min_dcf": min_dcf}


def quality_problems(got: dict, want: dict, what: str) -> list[str]:
    """Differences between two quality records: exact successes, EER and
    min-DCF within :data:`QUALITY_TOL`."""
    problems = []
    if got["successes"] != want["successes"]:
        problems.append(f"{what}: successes {got['successes']} != {want['successes']}")
    pairs = [("eer", got["eer"], want["eer"])]
    pairs += [(f"min_dcf[{k}]", got["min_dcf"][k], want["min_dcf"][k]) for k in want["min_dcf"]]
    for name, a, b in pairs:
        if abs(a - b) > QUALITY_TOL:
            problems.append(f"{what}: {name} {a!r} differs from {b!r}")
    return problems


def identify_answer(scores: Scores, probe_row: int, trial: int) -> tuple[str, float]:
    """Expected ``identify`` answer: the lexicographically first argmin."""
    row = scores.cells[probe_row, :, trial]
    order = sorted(range(len(scores.gallery_subjects)), key=lambda j: scores.gallery_subjects[j])
    best = min(order, key=lambda j: row[j])  # min keeps the first of equal keys
    return scores.gallery_subjects[best], float(row[best])


def sha256(path: Path) -> str:
    return sha256_many([path])


def sha256_many(paths: list[Path]) -> str:
    """One digest over the bytes of several files, in the order given."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()
