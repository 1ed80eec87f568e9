"""Run the benchmark over several seeds and judge its run-to-run spread.

Usage, from the repository root:

    python3 perfbench/prove.py --workload feret --seeds 1-10
    python3 perfbench/prove.py --seeds 1-10 --write-baseline

For each workload and end-to-end metric it prints the median, the
quartiles and the spread (q3 - q1) / median, next to the metric's bound in
BENCHMARK.json.  A spread above a third of the bound is flagged, and one
above the bound makes the exit code 1.  ``--write-baseline`` stores the
medians, quartiles and the per-seed quality figures in
perfbench/baseline.json, which later runs check identification successes,
EER and min-DCF against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    timing: dict = {}
    quality: dict = {}
    machine: dict = {}
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {}
        quality[workload] = {}
        for seed in args.seeds:
            info, result = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: {info['failures']}")
                steady = False
            quality[workload][str(seed)] = info["quality"]
            machine = {k: v for k, v in info["metadata"].items() if k != "seed"}
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        timing[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            steady = steady and spread <= bounds[name]
            print(f"  {workload:8s} {name:16s} median {med:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {spread:6.3f} bound {bounds[name]:.2f}{flag}")
            timing[workload][name] = {"median": med, "q1": q1, "q3": q3, "n": len(vals)}

    if args.write_baseline:
        (HERE / "baseline.json").write_text(json.dumps(
            {"seeds": args.seeds, "machine": machine, "timing": timing, "quality": quality}, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
