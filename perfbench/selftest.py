"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 perfbench/selftest.py

They exercise each workload at a tiny shape, the tracer's self-time
arithmetic and binding restore, the independent output checks and the
host-speed scaling.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import time
import unittest
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> run.Workload:
    return replace(run.WORKLOADS[name], subjects=5)


class Scratch(unittest.TestCase):
    def setUp(self) -> None:
        self.work = run.WORK / f"selftest-{self.id().rsplit('.', 1)[-1]}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def tearDown(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class SmokeTest(Scratch):
    def test_every_workload_reports_every_metric_with_its_unit(self):
        e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        self.assertEqual(set(run.WORKLOADS), {w["name"] for w in BENCH["workloads"]})
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                for mode, expected in ((run.measure, e2e), (run.trace, layers)):
                    metrics, info, rounds = mode(tiny(name), 3, 0.0, self.work / name / mode.__name__)
                    self.assertEqual({k: u for k, (_, u) in metrics.items()}, expected)
                    self.assertEqual([r.failed for r in rounds], [{}] * len(rounds))
                self.assertTrue(info["outputs_identical"], info["outputs_differing"])
                self.assertGreater(metrics["matching.cells"][0], 0)


class TraceTest(Scratch):
    def test_self_time_subtracts_clipped_union_of_children(self):
        parent = tracing.Span("cli.evaluate", 0.0, 10.0, None)
        children = [
            tracing.Span("a", 1.0, 3.0, 0),
            tracing.Span("b", 2.0, 4.0, 0),   # overlaps a: counted once
            tracing.Span("c", 9.0, 12.0, 0),  # runs past the parent: clipped
        ]
        self.assertAlmostEqual(tracing.self_time(parent, children), 10.0 - 3.0 - 1.0)
        self.assertEqual(tracing.self_time(parent, []), 10.0)

    def test_self_times_use_direct_children_only(self):
        t = tracing.Tracer()
        t.spans = [
            tracing.Span("cli.enroll", 0.0, 10.0, None),
            tracing.Span("pipeline.featurize", 1.0, 7.0, 0),
            tracing.Span("imageio.read", 2.0, 3.0, 1),
            tracing.Span("imageio.read", 4.0, 6.0, 1),
            tracing.Span("gallery.save", 8.0, 9.0, 0),
        ]
        selfs = t.self_times()
        self.assertAlmostEqual(selfs["cli.enroll"], 10.0 - 6.0 - 1.0)
        self.assertAlmostEqual(selfs["pipeline.featurize"], 6.0 - 3.0)
        self.assertAlmostEqual(selfs["imageio.read"], 3.0)
        self.assertAlmostEqual(t.totals()["imageio.read"], 3.0)

    def test_tracer_patches_call_sites_and_restores_every_binding(self):
        import facedct.cli  # noqa: F401

        modules = {n: m for n, m in sys.modules.items() if n == "facedct" or n.startswith("facedct.")}
        before = {n: dict(vars(m)) for n, m in modules.items()}
        original = facedct.cli.build_score_tensor
        with tracing.Tracer() as t:
            self.assertIsNot(facedct.cli.build_score_tensor, original)
            self.assertIs(facedct.cli.build_score_tensor, sys.modules["facedct.matching"].build_score_tensor)
            self.assertIs(facedct.cli.eer_of, sys.modules["facedct.verification"].eer)
            self.assertGreater(len(t._patched), len(tracing.LAYERS))
        for n, m in modules.items():
            after = vars(m)
            changed = [k for k, v in before[n].items() if after.get(k) is not v]
            self.assertEqual(changed, [], n)

    def test_traced_and_untraced_rounds_write_identical_files(self):
        w = tiny("orl-rgb")
        data = run.make_dataset(w, 5, self.work / "data")
        plain = run.run_round(w, data, self.work / "plain", 5, 2, None)
        with tracing.Tracer() as t:
            traced = run.run_round(w, data, self.work / "traced", 5, 2, None, t)
        self.assertEqual(run.tree_differences(plain.out, traced.out), [])
        self.assertEqual(plain.identify_stdout, traced.identify_stdout)
        self.assertIn("cli.identify", {s.name for s in t.spans})

    def test_a_failing_command_is_counted_not_fatal(self):
        real_call = run._call

        def failing_evaluate(argv, tracer):
            if argv[0] == "evaluate":
                return 1, "evaluate: simulated failure", (0.0, 0.01)
            return real_call(argv, tracer)

        run._call = failing_evaluate
        try:
            metrics, info, rounds = run.measure(tiny("orl-rgb"), 3, 0.0, self.work / "fail")
        finally:
            run._call = real_call
        self.assertIsNone(info["quality"])
        failed = {op for r in rounds for op in r.failed}
        self.assertIn("evaluate#0", failed)
        self.assertIn("evaluate_s", metrics)


class ChecksTest(unittest.TestCase):
    def tensor(self, seed: int):
        from facedct.matching import ScoreTensor

        rng = np.random.default_rng(seed)
        subjects = [f"s{i}" for i in range(6)]
        cells = rng.integers(0, 20, size=(6, 6, 3)).astype(float)  # many ties
        return ScoreTensor(subjects, subjects, cells, "mse")

    def test_reference_quality_agrees_with_the_program(self):
        from facedct.pipeline import summarize_tensor

        for seed in range(20):
            tensor = self.tensor(seed)
            summary = summarize_tensor(tensor)
            ref = checks.reference_quality(
                checks.Scores(list(tensor.probe_subjects), list(tensor.gallery_subjects), tensor.scores))
            got = {"successes": summary.identification.successes, "eer": summary.eer,
                   "min_dcf": summary.min_dcf}
            self.assertEqual(checks.quality_problems(got, ref, "seed"), [])

    def test_quality_problems_flag_count_and_drift_but_not_an_ulp(self):
        want = {"successes": 10, "eer": 0.1, "min_dcf": {"0.5": 0.2}}
        ulp = {"successes": 10, "eer": np.nextafter(0.1, 1.0), "min_dcf": {"0.5": 0.2}}
        self.assertEqual(checks.quality_problems(ulp, want, "x"), [])
        self.assertEqual(len(checks.quality_problems(
            {"successes": 9, "eer": 0.1 + 1e-6, "min_dcf": {"0.5": 0.2}}, want, "x")), 2)

    def test_identify_answer_breaks_ties_lexicographically(self):
        cells = np.array([[[3.0], [1.0], [1.0]]])
        scores = checks.Scores(["b"], ["a", "b", "c"], cells)
        self.assertEqual(checks.identify_answer(scores, 0, 0), ("b", 1.0))

    def test_read_scores_round_trips_the_program_format(self):
        from facedct.matching import scores_to_csv

        tensor = self.tensor(1)
        path = run.WORK / "selftest-scores.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            path.write_text(scores_to_csv(tensor))
            parsed = checks.read_scores(path)
        finally:
            path.unlink()
        np.testing.assert_array_equal(parsed.cells, tensor.scores)
        self.assertEqual(parsed.gallery_subjects, list(tensor.gallery_subjects))


class HostSpeedTest(unittest.TestCase):
    def test_scaled_removes_inner_probes_and_divides_by_the_local_slowdown(self):
        speed = hostspeed.HostSpeed()
        ref = hostspeed.REFERENCE_S
        speed.samples = [(0.0, 2 * ref), (1.5, 2 * ref), (2.0, 2 * ref), (10.0, 4 * ref)]
        # the probes at 1.5 and 2.0 ran inside the call; the one at 10.0 is too far away
        self.assertAlmostEqual(speed.scaled(1.0, 3.0), (2.0 - 4 * ref) / 2)
        self.assertAlmostEqual(speed.scaled(1.0, 3.0, busy=1.0), (1.0 - 4 * ref) / 2)
        # no probe near the call: the mean of all of them
        self.assertAlmostEqual(speed.scaled(20.0, 21.0), 1.0 * ref / (2.5 * ref))

    def test_sampling_stops_and_the_signal_handler_is_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        with hostspeed.HostSpeed() as speed:
            end = time.perf_counter() + 4 * hostspeed.EVERY_S
            while time.perf_counter() < end:
                hostspeed.probe()
        self.assertGreaterEqual(len(speed.samples), 2)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class MainTest(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 0.5), 50)
        self.assertEqual(run.percentile(values, 0.9), 90)  # 10 samples beyond it


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
