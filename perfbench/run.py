"""facedct benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload feret --seed 1 --seconds 10 --trace 0

Each run is a fresh process and a closed loop: one caller, one thread, each
``facedct`` command issued through ``facedct.cli.main(argv)`` after the
previous one returns.  The run generates the workload's synthetic dataset
from ``--seed`` (timed as ``setup_s``), warms up on a tiny copy of the
workload, then runs the command sequence.

``--trace 0`` repeats the sequence until ``--seconds`` have passed (at least
once) and reports the end-to-end metrics: the mean time per call of each
command, identify p90 latency, set-up time and peak RSS.  Times are scaled
to a reference host speed measured while the run goes on (``hostspeed.py``);
the unscaled times are on the info line.  ``--trace 1`` runs
the sequence once untraced and once under the outside-in tracer and reports
the per-layer metrics plus the tracing overhead; the two runs must write
byte-identical outputs.

Every command invocation is one operation; the checks in ``checks.py`` decide
whether it failed.  The last line of stdout is the result object; the line
before it carries run metadata, output hashes and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BASELINE = HERE / "baseline.json"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402

NOISE = 0.8
IDENTIFY_CALLS = 100  # per round; p90 then has 10 samples beyond it
SETUP_REPEATS = 5
REPEATS = 5  # steps per timed round (see run_round)
REPEAT_UNDER_S = 2.0  # evaluate and det-export are repeated only when a call is this short


@dataclass(frozen=True)
class Workload:
    name: str
    subjects: int
    samples: int
    width: int
    height: int
    placement: str
    train: tuple[int, ...]
    test: tuple[int, ...]
    channel: str  # enrolled channel; fuse-eval's row for it must match evaluate
    metrics: tuple[str, ...]
    evaluate_svg: bool
    fusions: tuple[str, ...]
    include_y: bool

    def tag(self, metric: str) -> str:
        """Suffix evaluate gives a metric's output files (none for a single metric)."""
        return "" if len(self.metrics) == 1 else f"_{metric}"

    @property
    def scores_tag(self) -> str:
        """Suffix of the files of the first metric, which det-export and identify use."""
        return self.tag(self.metrics[0])


# Every workload runs every command, because each end-to-end metric is
# reported on each workload; the shapes decide which layer dominates.
WORKLOADS = {
    # Tiny tensor (40 x 40 x 5) at window size: time goes to PNM decode,
    # channel handling, DCT and CLI glue; the only RGB and fusion workload.
    "orl-rgb": Workload("orl-rgb", 40, 10, 64, 64, "rgb", (1, 2, 3, 4, 5), (6, 7, 8, 9, 10),
                        "y", ("mse", "mad"), True,
                        ("sum:R,G,B", "w:0.3R+0.59G+0.11B"), True),
    # 1000 x 1000 x 1 tensor: scoring, staircase and the CSV/DET exports
    # dominate; images are not window-sized, so the resize does real work;
    # every identify call loads a 1000-template gallery.
    "feret": Workload("feret", 1000, 2, 80, 96, "gray", (1,), (2,),
                      "gray", ("mse",), False, ("sum:gray",), False),
}



@dataclass
class RoundResult:
    """Timings, outcomes and output locations of one round of commands."""

    out: Path
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0  # process high-water mark when the commands end, before the checks
    calls: dict[str, list[tuple[float, float]]] = field(default_factory=dict)  # command -> (start, end) per call
    identify_calls: list[tuple[float, float]] = field(default_factory=list)
    identify_stdout: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: dict[str, list[str]] = field(default_factory=dict)  # operation -> problems

    def fail(self, op: str, problems: list[str]) -> None:
        if problems:
            self.failed.setdefault(op, []).extend(problems)


def _call(argv: list[str], tracer: tracing.Tracer | None) -> tuple[int, str, tuple[float, float]]:
    from facedct.cli import main

    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        rc = main(argv)
    t1 = time.perf_counter()
    if rc != 0:
        out.write(err.getvalue())
    return rc, out.getvalue(), (t0, t1)


@dataclass(frozen=True)
class Dataset:
    root: Path
    config: Path
    probes: tuple[tuple[Path, int, int], ...]  # image, probe row, trial


def make_dataset(w: Workload, seed: int, root: Path) -> Dataset:
    """Generate the images, write the config and pick the identify probes."""
    from facedct.synth import SynthSpec, generate_dataset

    spec = SynthSpec(w.subjects, w.samples, NOISE, seed, w.width, w.height, w.placement)
    manifest_path = generate_dataset(spec, root)
    config = root / "config.json"
    config.write_text(json.dumps({
        "manifest": manifest_path.name,
        "train_indices": list(w.train),
        "test_indices": list(w.test),
    }))
    manifest = json.loads(manifest_path.read_text())
    test_images = [
        (root / manifest[s][t - 1], row, k)
        for row, s in enumerate(sorted(manifest))
        for k, t in enumerate(sorted(w.test))
    ]
    rng = np.random.default_rng(seed)
    n = min(IDENTIFY_CALLS, len(test_images))
    picks = rng.choice(len(test_images), size=n, replace=False)
    return Dataset(root, config, tuple(test_images[i] for i in picks))


def _length(span: tuple[float, float]) -> float:
    return span[1] - span[0]


def run_round(w: Workload, data: Dataset, out: Path, identify_calls: int, repeats: int,
             recorded: dict | None, tracer: tracing.Tracer | None = None) -> RoundResult:
    """Run one round of the workload's commands, then check the outputs.

    Each of ``repeats`` steps calls enroll and fuse-eval, each followed by
    a chunk of identify calls, then evaluate and det-export.  A command
    whose first call was long is not called again, and after a long
    evaluate, det-export waits for the middle step.  So on a large workload
    the two long calls split the short ones into groups at the start,
    middle and end of the round.
    On a shared host the speed changes every few seconds, so samples spread
    over the round describe it better than samples from one moment.
    """
    res = RoundResult(out)
    cfg = str(data.config)
    results = out / "evaluate0"

    def argv(cmd: str, k: int) -> list[str]:
        dest = out / f"{cmd}{k}"
        if cmd == "enroll":
            return ["enroll", "--config", cfg, "--out", str(dest), "--channel", w.channel]
        if cmd == "evaluate":
            return (["evaluate", "--config", cfg, "--gallery", str(out / "enroll0"), "--out", str(dest)]
                    + [a for m in w.metrics for a in ("--metric", m)]
                    + (["--svg"] if w.evaluate_svg else []))
        if cmd == "det-export":
            dest.mkdir()
            return (["det-export", "--scores", str(results / f"scores{w.scores_tag}.csv"),
                     "--out", str(dest / "det.csv"), "--svg", str(dest / "det.svg")])
        return (["fuse-eval", "--config", cfg, "--out", str(dest)]
                + [a for f in w.fusions for a in ("--fusion", f)]
                + (["--include-y"] if w.include_y else []))

    slots = 2 * repeats
    chunks = iter([identify_calls * (i + 1) // slots - identify_calls * i // slots for i in range(slots)])
    out.mkdir(parents=True)
    outcomes: dict[str, tuple[int, str]] = {}
    identify = []
    t_round = time.perf_counter()
    for k in range(repeats):
        for cmd in ("enroll", "fuse-eval", "evaluate", "det-export"):
            done = res.calls.setdefault(cmd, [])
            if cmd in ("evaluate", "det-export") and done and _length(done[0]) >= REPEAT_UNDER_S:
                continue
            if cmd == "det-export" and k < repeats // 2 and _length(res.calls["evaluate"][0]) >= REPEAT_UNDER_S:
                continue
            n = len(done)  # calls of this command so far; names its output directory
            rc, stdout, span = _call(argv(cmd, n), tracer)
            done.append(span)
            outcomes[f"{cmd}#{n}"] = (rc, stdout)
            if cmd in ("enroll", "fuse-eval"):
                for _ in range(next(chunks)):
                    image, row, trial = data.probes[len(identify) % len(data.probes)]
                    rc, stdout, span = _call(["identify", "--gallery", str(out / "enroll0"),
                                              "--image", str(image)], tracer)
                    res.identify_calls.append(span)
                    identify.append((rc, stdout, row, trial))
    res.wall_s = time.perf_counter() - t_round
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res.attempted = len(outcomes) + len(identify)

    res.identify_stdout = [stdout for _, stdout, _, _ in identify]
    for op, (rc, stdout) in outcomes.items():
        if rc != 0:
            res.fail(op, [f"exit {rc}: {stdout.strip()[-300:]}"])
    for i, (rc, stdout, _, _) in enumerate(identify):
        if rc != 0:
            res.fail(f"identify#{i}", [f"exit {rc}: {stdout.strip()[-300:]}"])

    def ok(op: str) -> bool:
        return outcomes[op][0] == 0

    for op in outcomes:
        cmd, k = op.split("#")
        if k != "0" and ok(op) and ok(f"{cmd}#0"):
            differ = tree_differences(out / f"{cmd}0", out / f"{cmd}{k}")
            res.fail(op, [f"output differs from the first call: {d}" for d in differ])
    if not ok("evaluate#0"):
        return res
    scores = {m: checks.read_scores(results / f"scores{w.tag(m)}.csv") for m in w.metrics}
    res.fail("evaluate#0", _check_evaluate(w, results, scores, recorded))
    if ok("det-export#0"):
        res.fail("det-export#0", _check_det_export(w, out / "det-export0", results))
    if ok("fuse-eval#0"):
        res.fail("fuse-eval#0", _check_fusion(w, out / "fuse-eval0", results))
    for i, (rc, stdout, row, trial) in enumerate(identify):
        if rc != 0:
            continue
        answer = json.loads(stdout)
        want = checks.identify_answer(scores[w.metrics[0]], row, trial)
        if (answer["subject"], answer["distance"]) != want:
            res.fail(f"identify#{i}", [f"probe ({row},{trial}) answered {answer}, scores.csv says {want}"])
    return res


def _check_evaluate(w: Workload, results: Path, scores: dict[str, checks.Scores],
                    recorded: dict | None) -> list[str]:
    problems = []
    rows = {r["metric"]: r for r in json.loads((results / "results.json").read_text())["rows"]}
    for metric in w.metrics:
        ref = checks.reference_quality(scores[metric])
        row = rows[metric]
        got = {"successes": row["successes"], "eer": row["eer"], "min_dcf": row["min_dcf"]}
        problems += checks.quality_problems(got, ref, f"evaluate[{metric}] vs scores.csv")
        if recorded is not None:
            problems += checks.quality_problems(got, recorded[metric], f"evaluate[{metric}] vs recorded")
    return problems


def _check_det_export(w: Workload, exported: Path, results: Path) -> list[str]:
    problems = []
    pairs = [(exported / "det.csv", results / f"det{w.scores_tag}.csv")]
    if w.evaluate_svg:
        pairs.append((exported / "det.svg", results / f"det{w.scores_tag}.svg"))
    for mine, theirs in pairs:
        if mine.read_bytes() != theirs.read_bytes():
            problems.append(f"det-export: {mine.name} differs from evaluate's {theirs.name}")
    return problems


def _check_fusion(w: Workload, fusion: Path, results: Path) -> list[str]:
    # fuse-eval's row for the enrolled channel re-runs evaluate's first metric
    row = json.loads((results / "results.json").read_text())["rows"][0]
    want = [f"{row['identification_rate']:.6f}", f"{row['eer']:.6f}",
            f"{row['min_dcf']['0.5']:.6f}", f"{row['min_dcf']['empirical']:.6f}"]
    lines = (fusion / "fusion_results.csv").read_text().splitlines()
    table = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
    got = table.get(w.channel.upper())
    if got != want:
        return [f"fuse-eval: row {w.channel.upper()} {got} != evaluate {want}"]
    return []


def _time_import() -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    subprocess.run([sys.executable, "-c", "import facedct.cli"], env=env, check=True)


def _user_cpu_s() -> float:
    """User-mode processor time of this process and its waited-for children."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_utime
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime)


def setup(w: Workload, seed: int, work: Path, repeats: int) -> tuple[Dataset, list[tuple[float, float, float]]]:
    """Set up ``repeats`` times (dataset, config, interpreter + package
    import); keep the first dataset and return the start, end and user-mode
    processor time of each.

    The extra datasets are deleted only after the last set-up: creating
    thousands of files right after deleting thousands of others was up to
    2.5x slower than the next creation (2-vCPU VM, ext4 mounted with
    ``discard``), which would time the deletion's aftermath, not the set-up.
    """
    spans = []
    made = []
    for r in range(repeats):
        cpu0 = _user_cpu_s()
        t0 = time.perf_counter()
        made.append(make_dataset(w, seed, work / f"data{r}"))
        _time_import()
        spans.append((t0, time.perf_counter(), _user_cpu_s() - cpu0))
    for extra in made[1:]:
        shutil.rmtree(extra.root)
    return made[0], spans


def warm_up(w: Workload, seed: int, data: Dataset, work: Path) -> RoundResult:
    """Untimed round on a tiny copy of the workload (imports, DCT basis cache,
    code paths), plus one read of every dataset file for the page cache."""
    for path in data.root.rglob("*"):
        if path.is_file():
            path.read_bytes()
    tiny = replace(w, subjects=4)
    res = run_round(tiny, make_dataset(tiny, seed, work / "warm-data"), work / "warm", 3, 1, None)
    shutil.rmtree(work / "warm-data")
    shutil.rmtree(work / "warm")
    return res


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= q of all at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metadata(seed: int) -> dict:
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    sources = sorted((SRC / "facedct").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{cfg.get('name')} {cfg.get('version')}",
        "blas_config": cfg.get("openblas configuration"),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "git_commit": commit,
        "source_sha256": checks.sha256_many(sources),
    }


def output_hashes(out: Path, w: Workload) -> dict:
    files = {
        "scores.csv": out / "evaluate0" / f"scores{w.scores_tag}.csv",
        "det.csv": out / "evaluate0" / f"det{w.scores_tag}.csv",
        "fusion_results.csv": out / "fuse-eval0" / "fusion_results.csv",
    }
    return {name: checks.sha256(p) if p.is_file() else None for name, p in files.items()}


def tree_differences(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ between two output trees."""
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(n) for n in names
                  if not ((a / n).is_file() and (b / n).is_file()
                          and (a / n).read_bytes() == (b / n).read_bytes()))


def recorded_quality(w: Workload, seed: int) -> dict | None:
    """Quality figures recorded for this seed, if any; they hold only for the
    registered shape of the workload."""
    if not BASELINE.is_file() or WORKLOADS.get(w.name) != w:
        return None
    quality = json.loads(BASELINE.read_text()).get("quality", {})
    return quality.get(w.name, {}).get(str(seed))


def measure(w: Workload, seed: int, seconds: float, work: Path) -> tuple[dict, dict, list[RoundResult]]:
    """Untraced run: repeat the sequence until ``seconds`` have passed.

    Every time is scaled to the reference host speed (see hostspeed.py);
    the info line carries the unscaled times too.
    """
    rounds: list[RoundResult] = []
    with hostspeed.HostSpeed() as speed:
        data, setup_spans = setup(w, seed, work, SETUP_REPEATS)
        recorded = recorded_quality(w, seed)
        warm = warm_up(w, seed, data, work)
        info: dict = {"quality_recorded": recorded is not None}
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < seconds:
            r = run_round(w, data, work / f"round{len(rounds)}", IDENTIFY_CALLS, REPEATS, recorded)
            if not rounds:
                info["output_sha256"] = output_hashes(r.out, w)
                info["quality"] = _quality(r.out)
            shutil.rmtree(r.out)
            rounds.append(r)
    names = {"enroll": "enroll_s", "evaluate": "evaluate_s",
             "det-export": "det_export_s", "fuse-eval": "fuse_eval_s"}
    spans = {cmd: [s for r in rounds for s in r.calls[cmd]] for cmd in names}
    identify = [s for r in rounds for s in r.identify_calls]
    identify_ms = [1000.0 * speed.scaled(*s) for s in identify]
    # set-up counts user-mode time only: the kernel's cost of creating the
    # dataset's files varied up to 3x in phases of minutes (see README)
    metrics = {"setup_s": (statistics.median(speed.scaled(t0, t1, cpu) for t0, t1, cpu in setup_spans), "s")}
    for cmd, metric in names.items():
        metrics[metric] = (statistics.fmean(speed.scaled(*s) for s in spans[cmd]), "s")
    metrics["identify_p90_ms"] = (percentile(identify_ms, 0.9), "ms")
    # later rounds would include the memory of the first round's checks
    metrics["peak_rss_mb"] = (rounds[0].peak_rss_mb, "MB")
    probes = [d for _, d in speed.samples]
    info.update({
        "rounds": len(rounds),
        # reported, not gated: its ten-seed spread was too wide for a bound
        "identify_p50_ms": percentile(identify_ms, 0.5),
        "identify_samples": len(identify_ms),
        "probes": len(probes),
        "probe_ms": {"median": 1000.0 * statistics.median(probes), "min": 1000.0 * min(probes),
                     "max": 1000.0 * max(probes), "reference": 1000.0 * hostspeed.REFERENCE_S},
        "unscaled": {
            "setup": [t1 - t0 for t0, t1, _ in setup_spans],
            "setup_user_cpu": [cpu for _, _, cpu in setup_spans],
            **{cmd: [_length(s) for s in spans[cmd]] for cmd in names},
            "identify_p90_ms": percentile([1000.0 * _length(s) for s in identify], 0.9),
        },
    })
    return metrics, info, [warm] + rounds


def trace(w: Workload, seed: int, seconds: float, work: Path) -> tuple[dict, dict, list[RoundResult]]:
    """One untraced and one traced round; per-layer metrics from the latter.
    ``seconds`` is unused: each round runs once, and set-up (not reported
    here) runs once."""
    data, setup_spans = setup(w, seed, work, 1)
    recorded = recorded_quality(w, seed)
    warm = warm_up(w, seed, data, work)
    plain = run_round(w, data, work / "untraced", IDENTIFY_CALLS, 1, recorded)
    with tracing.Tracer() as tracer:
        traced = run_round(w, data, work / "traced", IDENTIFY_CALLS, 1, recorded, tracer)
    differ = tree_differences(plain.out, traced.out)
    if plain.identify_stdout != traced.identify_stdout:
        differ.append("identify stdout")
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    info = {
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "spans": len(tracer.spans),
        "outputs_identical": not differ,
        "outputs_differing": differ[:10],
        "setup_s": setup_spans[0][1] - setup_spans[0][0],
        "quality_recorded": recorded is not None,
        "moves": {f"{layer.span}_s": layer.moves for layer in tracing.LAYERS},
    }
    return metrics, info, [warm, plain, traced]


def _quality(out: Path) -> dict | None:
    """Quality figures of the first evaluate; None when it wrote no results."""
    path = out / "evaluate0" / "results.json"
    if not path.is_file():
        return None
    rows = json.loads(path.read_text())["rows"]
    return {r["metric"]: {"successes": r["successes"], "trials": r["successes"] + r["errors"],
                          "eer": r["eer"], "min_dcf": r["min_dcf"]} for r in rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "facedct" / "cli.py").is_file():
        print(f"benchmark: no facedct sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import facedct.cli  # noqa: F401  (imported before any timing)

    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = trace if args.trace else measure
        metrics, info, rounds = run(w, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    info.update({
        "workload": w.name,
        "trace": args.trace,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failures": [f"{op}: {msg}" for r in rounds for op, msgs in r.failed.items() for msg in msgs][:20],
        "metadata": metadata(args.seed),
    })
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and info.get("outputs_identical", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
